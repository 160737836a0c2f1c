package namenode

import (
	"slices"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/dfs/proto"
	"aurora/internal/topology"
)

// healCluster is a 2-rack × 2-node namenode with fake datanodes, a parked
// reconcile ticker and an injected clock, so liveness changes only when
// the test says so. Nodes 0 and 2 sit in rack 0, nodes 1 and 3 in rack 1.
type healCluster struct {
	t   *testing.T
	nn  *NameNode
	dns []*fakeDN
	now time.Time // guarded by nn.mu
}

func startHealCluster(t *testing.T) *healCluster {
	t.Helper()
	nn, err := Start(Config{
		ExpectedNodes:      4,
		Racks:              2,
		DefaultReplication: 2,
		DefaultMinRacks:    2,
		DeadTimeout:        time.Second,
		ReconcileInterval:  time.Hour,
		Seed:               1,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = nn.Close() })
	hc := &healCluster{t: t, nn: nn, now: time.Unix(1_700_000_000, 0)}
	nn.mu.Lock()
	nn.clock = func() time.Time { return hc.now }
	nn.mu.Unlock()
	for i, addr := range []string{"a:1", "b:1", "c:1", "d:1"} {
		hc.dns = append(hc.dns, registerFake(t, nn, i%2, addr))
	}
	return hc
}

// writeBlock creates a complete one-block file at replication 2 and has
// every pipeline node confirm the block.
func (hc *healCluster) writeBlock() core.BlockID {
	hc.t.Helper()
	call := func(m *proto.Message) *proto.Message {
		resp, _, err := proto.Call(hc.nn.Addr(), m, nil, time.Second)
		if err != nil {
			hc.t.Fatalf("%s: %v", m.Type, err)
		}
		return resp
	}
	call(&proto.Message{Type: proto.MsgCreateFile, Path: "/f", Replication: 2})
	resp := call(&proto.Message{Type: proto.MsgAddBlock, Path: "/f", Length: 1})
	for _, dn := range hc.dns {
		for _, addr := range resp.Pipeline {
			if dn.addr == addr {
				dn.received(resp.Block)
			}
		}
	}
	call(&proto.Message{Type: proto.MsgCompleteFile, Path: "/f"})
	return core.BlockID(resp.Block)
}

// outage lets DeadTimeout pass with every node but the listed ones
// heartbeating, then reconciles: the listed nodes are declared dead.
func (hc *healCluster) outage(silent ...*fakeDN) {
	hc.t.Helper()
	hc.nn.mu.Lock()
	hc.now = hc.now.Add(2 * time.Second)
	hc.nn.mu.Unlock()
	for _, dn := range hc.dns {
		dark := false
		for _, s := range silent {
			dark = dark || s == dn
		}
		if !dark {
			dn.heartbeat(hc.holds(dn)...)
		}
	}
	hc.nn.ReconcileOnce()
}

// holds lists what the namenode has confirmed on dn, so a fake full
// report restates it instead of retracting it.
func (hc *healCluster) holds(dn *fakeDN) []proto.BlockID {
	hc.nn.mu.Lock()
	defer hc.nn.mu.Unlock()
	var out []proto.BlockID
	for b, holders := range hc.nn.confirmed {
		if holders[dn.id] {
			out = append(out, b)
		}
	}
	return out
}

// inflight reports whether a replicate command copying b to dn is
// still outstanding.
func (hc *healCluster) inflight(b proto.BlockID, dn *fakeDN) bool {
	hc.nn.mu.Lock()
	defer hc.nn.mu.Unlock()
	_, ok := hc.nn.inflight[inflightKey{block: b, node: dn.id}]
	return ok
}

func (hc *healCluster) desired(id core.BlockID) (replicas []topology.MachineID, spread int) {
	hc.nn.mu.Lock()
	defer hc.nn.mu.Unlock()
	return hc.nn.placement.Replicas(id), hc.nn.placement.RackSpread(id)
}

// nonHolders lists the nodes outside block id's desired set.
func (hc *healCluster) nonHolders(id core.BlockID) []*fakeDN {
	replicas, _ := hc.desired(id)
	var out []*fakeDN
	for _, dn := range hc.dns {
		held := false
		for _, m := range replicas {
			held = held || proto.NodeID(m) == dn.id
		}
		if !held {
			out = append(out, dn)
		}
	}
	return out
}

// A rack outage collapses a block's desired set onto the surviving rack;
// once the rack is back, one reconcile pass must spread it over both racks
// again at exactly k replicas. Every top-up loop used to be "count < k",
// so the collapsed set was final and fsck stayed under-spread forever.
func TestRackSpreadReturnsWithTheRack(t *testing.T) {
	hc := startHealCluster(t)
	id := hc.writeBlock()
	if replicas, spread := hc.desired(id); len(replicas) != 2 || spread != 2 {
		t.Fatalf("initial desired set %v spans %d racks, want 2 replicas over 2 racks", replicas, spread)
	}

	hc.outage(hc.dns[1], hc.dns[3]) // rack 1 goes dark
	replicas, spread := hc.desired(id)
	if len(replicas) != 2 || spread != 1 {
		t.Fatalf("during the outage desired set %v spans %d racks, want 2 replicas in rack 0", replicas, spread)
	}
	for _, m := range replicas {
		if m%2 != 0 {
			t.Fatalf("desired replica on dead machine %d during the outage: %v", m, replicas)
		}
	}

	for _, dn := range hc.dns { // rack 1 heartbeats again
		dn.heartbeat(hc.holds(dn)...)
	}
	hc.dns[1].received(proto.BlockID(id)) // a copy that survived the outage in rack 1
	if h := hc.nn.Health(); h.Healthy {
		t.Errorf("fsck healthy on a surviving surplus copy while the desired set spans one rack: %+v", h)
	}
	hc.nn.ReconcileOnce()
	if replicas, spread := hc.desired(id); len(replicas) != 2 || spread != 2 {
		t.Errorf("after the rack returned desired set %v spans %d racks, want exactly 2 replicas over 2 racks", replicas, spread)
	}
}

// set_replication 2→3 must pick the healthy non-holder: widening used to
// go through core.InitialPlace, which knows only the static topology,
// where a dead or draining machine is as good as any (and, once its
// replicas were stripped, the emptiest).
func TestSetReplicationSkipsUnhealthyNodes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		unhealthy func(hc *healCluster, dn *fakeDN)
	}{
		{"dead", func(hc *healCluster, victim *fakeDN) { hc.outage(victim) }},
		{"draining", func(hc *healCluster, victim *fakeDN) {
			if err := hc.nn.Decommission(victim.id); err != nil {
				hc.t.Fatalf("Decommission: %v", err)
			}
		}},
	} {
		for victim := 0; victim < 2; victim++ {
			hc := startHealCluster(t)
			id := hc.writeBlock()
			bad := hc.nonHolders(id)[victim]
			tc.unhealthy(hc, bad)
			if _, _, err := proto.Call(hc.nn.Addr(), &proto.Message{
				Type: proto.MsgSetRepl, Path: "/f", Replication: 3,
			}, nil, time.Second); err != nil {
				t.Fatalf("%s: set_replication: %v", tc.name, err)
			}
			replicas, _ := hc.desired(id)
			if len(replicas) != 3 {
				t.Errorf("%s: desired set %v after set_replication 3, want 3 replicas", tc.name, replicas)
			}
			for _, m := range replicas {
				if proto.NodeID(m) == bad.id {
					t.Errorf("%s: set_replication named %s node %d: %v", tc.name, tc.name, bad.id, replicas)
				}
			}
		}
	}
}

// An external rebalancer sees the static topology; what it puts on a dead
// machine must be re-homed before WithPlacement returns.
func TestWithPlacementRehomesOffDeadMachine(t *testing.T) {
	hc := startHealCluster(t)
	id := hc.writeBlock()
	spare := hc.nonHolders(id)
	dead, live := spare[0], spare[1]
	hc.outage(dead)

	if err := hc.nn.WithPlacement(func(p *core.Placement) error {
		return p.AddReplica(id, topology.MachineID(dead.id))
	}); err != nil {
		t.Fatalf("WithPlacement: %v", err)
	}
	replicas, _ := hc.desired(id)
	if len(replicas) != 3 {
		t.Errorf("desired set %v, want the added replica re-homed (3 replicas)", replicas)
	}
	rehomed := false
	for _, m := range replicas {
		if proto.NodeID(m) == dead.id {
			t.Errorf("desired replica left on dead machine %d: %v", dead.id, replicas)
		}
		rehomed = rehomed || proto.NodeID(m) == live.id
	}
	if !rehomed {
		t.Errorf("added replica not re-homed on the one healthy spare %d: %v", live.id, replicas)
	}
}

// queued reports whether a command is queued for dn's next report.
func (hc *healCluster) queued(dn *fakeDN, cmd proto.Command) bool {
	hc.nn.mu.Lock()
	defer hc.nn.mu.Unlock()
	for _, c := range hc.nn.pendingCmds[dn.id] {
		if c == cmd {
			return true
		}
	}
	return false
}

// A holder that is down when its file is deleted keeps its copy; when
// it rejoins with a full report, that copy belongs to no file and is
// deleted like any surplus copy. fsck is not healthy while it is held.
func TestDeletedWhileDownReapedOnRejoin(t *testing.T) {
	hc := startHealCluster(t)
	id := hc.writeBlock()
	b := proto.BlockID(id)
	replicas, _ := hc.desired(id)
	down, up := hc.dns[replicas[0]], hc.dns[replicas[1]]
	hc.outage(down)
	if _, _, err := proto.Call(hc.nn.Addr(), &proto.Message{Type: proto.MsgDeleteFile, Path: "/f"}, nil, time.Second); err != nil {
		t.Fatalf("delete: %v", err)
	}
	hc.nn.ReconcileOnce()
	if !hc.queued(up, proto.Command{Kind: proto.CmdDelete, Block: b}) {
		t.Fatalf("no delete queued for the live holder of deleted block %d", b)
	}
	up.deleted(b)
	hc.nn.ReconcileOnce()
	if h := hc.nn.Health(); h.TombstonedBlocks != 0 {
		t.Fatalf("fsck counts a tombstoned block once the live copy was deleted: %+v", h)
	}

	down.heartbeat(b) // rejoins: its disk still has the block
	if h := hc.nn.Health(); h.Healthy || h.TombstonedBlocks != 1 {
		t.Errorf("fsck with a deleted block held on the rejoined node: %+v, want unhealthy with 1 tombstoned block", h)
	}
	hc.nn.ReconcileOnce()
	if !hc.queued(down, proto.Command{Kind: proto.CmdDelete, Block: b}) {
		t.Fatalf("no delete queued for the rejoined node's copy of deleted block %d", b)
	}
	down.deleted(b)
	hc.nn.ReconcileOnce()
	hc.nn.mu.Lock()
	_, held := hc.nn.confirmed[b]
	hc.nn.mu.Unlock()
	if held {
		t.Errorf("deleted block %d keeps a confirmed entry once no holder is left", b)
	}
	if h := hc.nn.Health(); !h.Healthy {
		t.Errorf("fsck not healthy once every copy was deleted: %+v", h)
	}
}

// A drain takes a copy away only once its replacement is confirmed.
// Where no healthy machine has room for the replacement, the draining
// copy stays confirmed and gets no delete, however many ticks pass.
func TestDrainWithoutRoomKeepsCopy(t *testing.T) {
	nn, err := Start(Config{
		ExpectedNodes:      3,
		Racks:              2,
		DefaultReplication: 2,
		DefaultMinRacks:    2,
		DeadTimeout:        time.Hour,
		ReconcileInterval:  time.Hour,
		Seed:               1,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = nn.Close() })
	var dns []*fakeDN
	for i, addr := range []string{"a:1", "b:1", "c:1"} {
		dns = append(dns, registerWithCapacity(t, nn, i%2, 1, addr))
	}
	write := func(path string, replication int) proto.BlockID {
		t.Helper()
		if _, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgCreateFile, Path: path, Replication: replication, MinRacks: 1}, nil, time.Second); err != nil {
			t.Fatalf("create %s: %v", path, err)
		}
		resp, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgAddBlock, Path: path, Length: 1}, nil, time.Second)
		if err != nil {
			t.Fatalf("add block to %s: %v", path, err)
		}
		for _, addr := range resp.Pipeline {
			for _, dn := range dns {
				if dn.addr == addr {
					dn.received(resp.Block)
				}
			}
		}
		if _, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgCompleteFile, Path: path}, nil, time.Second); err != nil {
			t.Fatalf("complete %s: %v", path, err)
		}
		return resp.Block
	}
	pair := write("/pair", 2) // two of the three one-block machines
	write("/one", 1)          // the third: no machine has room left
	nn.ReconcileOnce()
	if !nn.Converged() {
		t.Fatal("setup did not converge")
	}
	nn.mu.Lock()
	drained := dns[nn.placement.Replicas(core.BlockID(pair))[0]]
	nn.mu.Unlock()
	if err := nn.Decommission(drained.id); err != nil {
		t.Fatalf("Decommission: %v", err)
	}
	for tick := 0; tick < 3; tick++ {
		nn.ReconcileOnce()
		nn.mu.Lock()
		held := nn.confirmed[pair][drained.id]
		cmds := slices.Clone(nn.pendingCmds[drained.id])
		nn.mu.Unlock()
		if !held {
			t.Fatalf("tick %d: the draining copy of block %d is no longer confirmed", tick, pair)
		}
		if slices.Contains(cmds, proto.Command{Kind: proto.CmdDelete, Block: pair}) {
			t.Fatalf("tick %d: delete queued for the only spare copy of block %d: %v", tick, pair, cmds)
		}
	}
}

// A draining node whose only copy is of a block the namespace has no
// spec for — block 5, reported to a fresh namespace — decommissions
// once the walk's delete of that copy is reported, and not while the
// copy is still confirmed.
func TestDrainWithOnlyForeignBlocksDecommissions(t *testing.T) {
	hc := startHealCluster(t)
	const stale proto.BlockID = 5 // a fresh namespace allocated no block yet
	dn := hc.dns[0]
	dn.heartbeat(stale)
	if err := hc.nn.Decommission(dn.id); err != nil {
		t.Fatalf("Decommission: %v", err)
	}
	decommissioned := func() bool {
		hc.nn.mu.Lock()
		defer hc.nn.mu.Unlock()
		return hc.nn.nodes[dn.id].decommissioned
	}
	del := proto.Command{Kind: proto.CmdDelete, Block: stale}
	for tick := 0; !hc.queued(dn, del); tick++ {
		if tick == 3 {
			t.Fatalf("no delete of block %d queued on the draining node after %d ticks", stale, tick)
		}
		hc.nn.ReconcileOnce()
		if decommissioned() {
			t.Fatalf("tick %d: decommissioned while its copy of block %d is confirmed", tick, stale)
		}
	}
	if cmds := dn.heartbeat(stale); !slices.Contains(cmds, del) {
		t.Fatalf("heartbeat delivered %v, want the delete of block %d", cmds, stale)
	}
	dn.deleted(stale)
	hc.nn.ReconcileOnce()
	if !decommissioned() {
		t.Error("node not decommissioned once its last copy's delete was reported")
	}
	if h := hc.nn.Health(); !h.Healthy || h.DrainingNodes != 0 {
		t.Errorf("health after the drain = %+v, want healthy with no draining node", h)
	}
}
