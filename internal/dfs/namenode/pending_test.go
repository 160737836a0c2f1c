package namenode

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/dfs/proto"
	"aurora/internal/topology"
)

// reconcileState is what one reconcile pass leaves behind for the
// datanodes: the queued commands, the transfers in flight and the
// desired placement.
type reconcileState struct {
	cmds     map[proto.NodeID][]proto.Command
	inflight []inflightKey
	desired  map[core.BlockID][]topology.MachineID
}

// twin is a heal cluster whose every reconcile pass is recorded. A full
// twin puts every block in the pending set before each pass — every
// desired one and every confirmed one — which makes the pass the walk of
// every block that the pending set replaces.
type twin struct {
	*healCluster
	full   bool
	passes []reconcileState
}

func startTwin(t *testing.T, full bool) *twin {
	return &twin{healCluster: startHealCluster(t), full: full}
}

func (tw *twin) call(m *proto.Message) *proto.Message {
	tw.t.Helper()
	resp, _, err := proto.Call(tw.nn.Addr(), m, nil, time.Second)
	if err != nil {
		tw.t.Fatalf("%s: %v", m.Type, err)
	}
	return resp
}

// tick runs one reconcile pass and records its state.
func (tw *twin) tick() {
	nn := tw.nn
	if tw.full {
		nn.mu.Lock()
		for _, id := range nn.placement.Blocks() {
			nn.pending[proto.BlockID(id)] = struct{}{}
		}
		for b := range nn.confirmed {
			nn.pending[b] = struct{}{}
		}
		nn.mu.Unlock()
	}
	nn.ReconcileOnce()
	nn.mu.Lock()
	defer nn.mu.Unlock()
	st := reconcileState{
		cmds:    make(map[proto.NodeID][]proto.Command),
		desired: make(map[core.BlockID][]topology.MachineID),
	}
	for n, cmds := range nn.pendingCmds {
		if len(cmds) > 0 {
			st.cmds[n] = slices.Clone(cmds)
		}
	}
	for key := range nn.inflight {
		st.inflight = append(st.inflight, key)
	}
	slices.SortFunc(st.inflight, func(a, b inflightKey) int {
		if a.block != b.block {
			return int(a.block) - int(b.block)
		}
		return int(a.node) - int(b.node)
	})
	for _, id := range nn.placement.Blocks() {
		st.desired[id] = nn.placement.Replicas(id)
	}
	tw.passes = append(tw.passes, st)
}

// advance moves the clock by d, has every node but the silent ones
// restate what it holds, and reconciles.
func (tw *twin) advance(d time.Duration, silent ...*fakeDN) {
	tw.nn.mu.Lock()
	tw.now = tw.now.Add(d)
	tw.nn.mu.Unlock()
	for _, dn := range tw.dns {
		if !slices.Contains(silent, dn) {
			dn.heartbeat(tw.holds(dn)...)
		}
	}
	tw.tick()
}

// write adds a one-block file at replication 2 and has the first
// confirm nodes of its pipeline report the block; complete closes it.
func (tw *twin) write(path string, confirm int, complete bool) proto.BlockID {
	tw.call(&proto.Message{Type: proto.MsgCreateFile, Path: path, Replication: 2})
	resp := tw.call(&proto.Message{Type: proto.MsgAddBlock, Path: path, Length: 1})
	for _, addr := range resp.Pipeline[:confirm] {
		tw.node(addr).received(resp.Block)
	}
	if complete {
		tw.call(&proto.Message{Type: proto.MsgCompleteFile, Path: path})
	}
	return resp.Block
}

// forgotten fails the test unless block b has no confirmed entry and is
// out of the pending set: every copy of it is gone and so is the walk's
// interest in it.
func (tw *twin) forgotten(b proto.BlockID) {
	tw.t.Helper()
	tw.nn.mu.Lock()
	_, held := tw.nn.confirmed[b]
	_, pending := tw.nn.pending[b]
	tw.nn.mu.Unlock()
	if held || pending {
		tw.t.Fatalf("deleted block %d: confirmed entry %v, pending %v; want neither once no holder is left", b, held, pending)
	}
}

// without returns held less b.
func without(held []proto.BlockID, b proto.BlockID) []proto.BlockID {
	return slices.DeleteFunc(slices.Clone(held), func(h proto.BlockID) bool { return h == b })
}

func (tw *twin) node(addr string) *fakeDN {
	for _, dn := range tw.dns {
		if dn.addr == addr {
			return dn
		}
	}
	tw.t.Fatalf("no node at %s", addr)
	return nil
}

// holders splits the nodes into block b's desired holders and the rest.
func (tw *twin) holders(b proto.BlockID) (in, out []*fakeDN) {
	replicas, _ := tw.desired(core.BlockID(b))
	for _, dn := range tw.dns {
		if slices.Contains(replicas, topology.MachineID(dn.id)) {
			in = append(in, dn)
		} else {
			out = append(out, dn)
		}
	}
	return in, out
}

// Every event that can unsettle a block must put it in the pending set:
// on a settled namespace, each event is followed by passes that must
// queue exactly the commands, start exactly the transfers and leave
// exactly the desired placement that a walk of every block would. Each
// event must also give the passes something to do, or the comparison
// proves nothing.
func TestPendingSetEntries(t *testing.T) {
	const files = 4
	for _, tc := range []struct {
		name  string
		event func(tw *twin, blocks []proto.BlockID)
	}{
		{"plan apply", func(tw *twin, blocks []proto.BlockID) {
			for i := 0; i < 20; i++ {
				tw.call(&proto.Message{Type: proto.MsgGetLocations, Path: "/f0"})
			}
			if _, err := tw.nn.OptimizeNow(core.OptimizerOptions{
				RackAware: true, ReplicationBudget: 2*files + 2, MaxReplicationMoves: 4,
			}); err != nil {
				tw.t.Fatalf("OptimizeNow: %v", err)
			}
			tw.tick()
		}},
		{"mutations mid-period", func(tw *twin, blocks []proto.BlockID) {
			periodWithMutations(tw, blocks)
			tw.tick()
		}},
		{"WithPlacement", func(tw *twin, blocks []proto.BlockID) {
			_, spare := tw.holders(blocks[1])
			if err := tw.nn.WithPlacement(func(p *core.Placement) error {
				return p.AddReplica(core.BlockID(blocks[1]), topology.MachineID(spare[0].id))
			}); err != nil {
				tw.t.Fatalf("WithPlacement: %v", err)
			}
			tw.tick()
		}},
		{"report gains a replica", func(tw *twin, blocks []proto.BlockID) {
			_, spare := tw.holders(blocks[2])
			spare[0].received(blocks[2])
			tw.tick()
		}},
		{"report loses a replica", func(tw *twin, blocks []proto.BlockID) {
			in, _ := tw.holders(blocks[2])
			in[0].deleted(blocks[2])
			tw.tick()
		}},
		{"death", func(tw *twin, blocks []proto.BlockID) {
			in, _ := tw.holders(blocks[0])
			tw.advance(2*time.Second, in[0])
		}},
		{"revival", func(tw *twin, blocks []proto.BlockID) {
			in, _ := tw.holders(blocks[0])
			held := tw.holds(in[0])
			tw.advance(2*time.Second, in[0])
			in[0].heartbeat(held...)
			tw.tick()
		}},
		{"drain", func(tw *twin, blocks []proto.BlockID) {
			in, _ := tw.holders(blocks[3])
			if err := tw.nn.Decommission(in[0].id); err != nil {
				tw.t.Fatalf("Decommission: %v", err)
			}
			tw.tick()
		}},
		{"drain to decommissioned", func(tw *twin, blocks []proto.BlockID) {
			in, _ := tw.holders(blocks[3])
			drained := in[0]
			if err := tw.nn.Decommission(drained.id); err != nil {
				tw.t.Fatalf("Decommission: %v", err)
			}
			tw.tick()
			for _, key := range tw.passes[len(tw.passes)-1].inflight {
				tw.dns[key.node].received(key.block) // the replacements land
			}
			tw.tick() // the drained copies are released and deleted
			var gone []proto.BlockID
			for _, cmd := range tw.passes[len(tw.passes)-1].cmds[drained.id] {
				if cmd.Kind == proto.CmdDelete {
					gone = append(gone, cmd.Block)
				}
			}
			held := tw.holds(drained)
			for _, b := range gone {
				held = slices.DeleteFunc(held, func(h proto.BlockID) bool { return h == b })
				drained.deleted(b, held...)
			}
			tw.tick()
			tw.nn.mu.Lock()
			done := tw.nn.nodes[drained.id].decommissioned
			tw.nn.mu.Unlock()
			if !done {
				tw.t.Fatalf("node %d not decommissioned after its copies were released and deleted", drained.id)
			}
		}},
		{"delete_file", func(tw *twin, blocks []proto.BlockID) {
			in, _ := tw.holders(blocks[1])
			tw.call(&proto.Message{Type: proto.MsgDeleteFile, Path: "/f1"})
			tw.tick()
			in[0].deleted(blocks[1], without(tw.holds(in[0]), blocks[1])...)
			tw.advance(2*time.Second, in[1]) // the last holder dies: the walk forgets the block
			tw.forgotten(blocks[1])
		}},
		{"delete while a holder is down, then it rejoins", func(tw *twin, blocks []proto.BlockID) {
			in, _ := tw.holders(blocks[1])
			down, up := in[0], in[1]
			held := tw.holds(down)
			tw.advance(2*time.Second, down)
			tw.call(&proto.Message{Type: proto.MsgDeleteFile, Path: "/f1"})
			tw.tick()
			up.deleted(blocks[1], without(tw.holds(up), blocks[1])...)
			tw.tick()
			down.heartbeat(held...) // its disk still has the deleted block
			tw.tick()
			if !slices.Contains(tw.passes[len(tw.passes)-1].cmds[down.id],
				proto.Command{Kind: proto.CmdDelete, Block: blocks[1]}) {
				tw.t.Fatalf("no delete queued for the rejoined node's copy of deleted block %d", blocks[1])
			}
			down.deleted(blocks[1], without(tw.holds(down), blocks[1])...)
			tw.tick()
			tw.forgotten(blocks[1])
		}},
		{"set_replication", func(tw *twin, blocks []proto.BlockID) {
			tw.call(&proto.Message{Type: proto.MsgSetRepl, Path: "/f1", Replication: 3})
			tw.tick()
		}},
		{"add_block and complete", func(tw *twin, blocks []proto.BlockID) {
			tw.write("/new", 1, false)
			tw.tick()
			tw.call(&proto.Message{Type: proto.MsgCompleteFile, Path: "/new"})
			tw.tick()
		}},
		{"writing TTL", func(tw *twin, blocks []proto.BlockID) {
			tw.write("/stalled", 1, false)
			tw.tick()
			tw.advance(2 * time.Second)
			tw.advance(2 * time.Second)
		}},
		{"inflight TTL", func(tw *twin, blocks []proto.BlockID) {
			tw.call(&proto.Message{Type: proto.MsgSetRepl, Path: "/f2", Replication: 3})
			tw.tick()
			tw.advance(2 * time.Second) // the source is handed the copy; the target never confirms it
			tw.advance(2 * time.Second) // the transfer expires and is issued again
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(full bool) []reconcileState {
				tw := startTwin(t, full)
				var blocks []proto.BlockID
				for i := 0; i < files; i++ {
					blocks = append(blocks, tw.write(fmt.Sprintf("/f%d", i), 2, true))
				}
				tw.tick()
				if !tw.nn.Converged() {
					t.Fatal("setup did not converge")
				}
				tw.nn.mu.Lock()
				settled := len(tw.nn.pending)
				tw.nn.mu.Unlock()
				if !full && settled != 0 {
					t.Fatalf("%d block(s) still pending on a converged namespace", settled)
				}
				before := len(tw.passes)
				tc.event(tw, blocks)
				commands := 0
				for _, st := range tw.passes[before:] {
					for _, cmds := range st.cmds {
						commands += len(cmds)
					}
				}
				if commands == 0 {
					t.Fatal("the event queued no command: nothing to compare")
				}
				return tw.passes
			}
			walk, full := run(false), run(true)
			if len(walk) != len(full) {
				t.Fatalf("%d passes against %d", len(walk), len(full))
			}
			for i := range walk {
				if !reflect.DeepEqual(walk[i], full[i]) {
					t.Errorf("pass %d over the pending set:\n%+v\nover every block:\n%+v", i, walk[i], full[i])
				}
			}
		})
	}
}

// The holds index is the per-node view of nn.confirmed: after a seeded
// churn of block_received confirmations, deletion reports, full reports,
// deaths and revivals, every node's index lists exactly the blocks
// confirmed on it.
func TestHoldsIndexMatchesConfirmed(t *testing.T) {
	hc := startHealCluster(t)
	rng := rand.New(rand.NewPCG(7, 7))
	const blocks = 40
	randomSet := func() []proto.BlockID {
		var out []proto.BlockID
		for b := proto.BlockID(1); b <= blocks; b++ {
			if rng.IntN(3) == 0 {
				out = append(out, b)
			}
		}
		return out
	}
	for step := 0; step < 2000; step++ {
		dn := hc.dns[rng.IntN(len(hc.dns))]
		b := proto.BlockID(1 + rng.IntN(blocks))
		switch op := rng.IntN(10); {
		case op < 4:
			dn.received(b)
		case op < 7:
			dn.deleted(b)
		case op < 9:
			dn.heartbeat(randomSet()...)
		default:
			hc.outage(dn) // dn dies; its next report revives it
		}
		hc.nn.mu.Lock()
		for _, node := range hc.nn.nodes {
			want := make(map[proto.BlockID]struct{})
			for b, holders := range hc.nn.confirmed {
				if holders[node.id] {
					want[b] = struct{}{}
				}
			}
			got := node.holds
			if got == nil {
				got = map[proto.BlockID]struct{}{}
			}
			if !reflect.DeepEqual(got, want) {
				hc.nn.mu.Unlock()
				t.Fatalf("step %d: node %d holds index %v, confirmed on it %v", step, node.id, got, want)
			}
		}
		hc.nn.mu.Unlock()
	}
}

// The load gauges sum over the usage window's keys only. On a namespace
// with blocks outside the window, a read block with no desired replica
// (k = 0) and a read block since deleted, the loads must equal, bit for
// bit, the sum over every block in ascending ID that they replace.
func TestWindowLoadsMatchFullScan(t *testing.T) {
	fc := startForecastCluster(t, 1, "", 12)
	rng := rand.New(rand.NewPCG(3, 3))
	for i := range fc.blocks {
		if i%3 == 0 {
			continue // outside the window
		}
		for r := rng.IntN(7); r >= 0; r-- {
			fc.call(&proto.Message{Type: proto.MsgGetLocations, Path: fmt.Sprintf("/f%d", i)})
		}
	}
	stripped := fc.blocks[1]
	if err := fc.nn.WithPlacement(func(p *core.Placement) error {
		for _, m := range p.Replicas(stripped) {
			if err := p.RemoveReplica(stripped, m); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("WithPlacement: %v", err)
	}
	fc.call(&proto.Message{Type: proto.MsgDeleteFile, Path: "/f2"})

	nn := fc.nn
	nn.mu.Lock()
	defer nn.mu.Unlock()
	got, snap := nn.windowLoadsLocked()
	want := make([]float64, nn.cluster.NumMachines())
	for _, id := range nn.placement.Blocks() {
		k := nn.placement.ReplicaCount(id)
		if k == 0 {
			continue
		}
		share := float64(snap[id]) / float64(k)
		for _, m := range nn.placement.Replicas(id) {
			want[m] += share
		}
	}
	if nn.placement.ReplicaCount(stripped) != 0 || snap[stripped] == 0 {
		t.Fatalf("block %d: %d replicas, %d reads; want a read block at k = 0",
			stripped, nn.placement.ReplicaCount(stripped), snap[stripped])
	}
	for m := range want {
		if math.Float64bits(got[m]) != math.Float64bits(want[m]) {
			t.Errorf("machine %d: window load %v, full scan %v", m, got[m], want[m])
		}
	}
}
