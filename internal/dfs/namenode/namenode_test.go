package namenode

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/dfs/proto"
)

// startNN launches a namenode with fast timers for unit testing.
func startNN(t *testing.T, nodes, racks int) *NameNode {
	t.Helper()
	nn, err := Start(Config{
		ExpectedNodes:      nodes,
		Racks:              racks,
		DefaultReplication: 2,
		DefaultMinRacks:    2,
		DeadTimeout:        500 * time.Millisecond,
		ReconcileInterval:  10 * time.Millisecond,
		Seed:               1,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = nn.Close() })
	return nn
}

// fakeDN registers a datanode identity without running a real process,
// so tests control heartbeats and block reports precisely. Its reports
// carry the namespace ID its registration returned.
type fakeDN struct {
	t    *testing.T
	nn   string
	id   proto.NodeID
	addr string
	ns   uint64
}

func registerFake(t *testing.T, nn *NameNode, rack int, addr string) *fakeDN {
	t.Helper()
	return registerWithCapacity(t, nn, rack, 100, addr)
}

// registerWithCapacity registers a fake datanode that has room for
// capacity blocks.
func registerWithCapacity(t *testing.T, nn *NameNode, rack, capacity int, addr string) *fakeDN {
	t.Helper()
	resp, _, err := proto.Call(nn.Addr(), &proto.Message{
		Type:     proto.MsgRegister,
		DataAddr: addr,
		Rack:     rack,
		Capacity: capacity,
	}, nil, time.Second)
	if err != nil {
		t.Fatalf("register fake dn: %v", err)
	}
	return &fakeDN{t: t, nn: nn.Addr(), id: resp.Node, addr: addr, ns: resp.Namespace}
}

// heartbeat sends a full report of the given blocks and returns any
// commands.
func (f *fakeDN) heartbeat(blocks ...proto.BlockID) []proto.Command {
	f.t.Helper()
	resp, _, err := proto.Call(f.nn, &proto.Message{
		Type:       proto.MsgHeartbeatDelta,
		Node:       f.id,
		FullReport: true,
		Received:   blocks,
		Namespace:  f.ns,
	}, nil, time.Second)
	if err != nil {
		f.t.Fatalf("heartbeat: %v", err)
	}
	return resp.Commands
}

// deleted sends a delta report that b is gone and that the node now
// holds exactly held, and returns any commands.
func (f *fakeDN) deleted(b proto.BlockID, held ...proto.BlockID) []proto.Command {
	f.t.Helper()
	resp, _, err := proto.Call(f.nn, &proto.Message{
		Type:      proto.MsgHeartbeatDelta,
		Node:      f.id,
		Digest:    proto.BlockSetDigest(held),
		Deleted:   []proto.BlockID{b},
		Namespace: f.ns,
	}, nil, time.Second)
	if err != nil {
		f.t.Fatalf("report deletion: %v", err)
	}
	return resp.Commands
}

// received sends a pipeline head's arrival report of b, naming the
// downstream addresses its ack vouched for.
func (f *fakeDN) received(b proto.BlockID, downstream ...string) {
	f.t.Helper()
	if _, _, err := proto.Call(f.nn, &proto.Message{
		Type:      proto.MsgBlockReceived,
		Node:      f.id,
		Block:     b,
		Pipeline:  downstream,
		Namespace: f.ns,
	}, nil, time.Second); err != nil {
		f.t.Fatalf("block received: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Start(Config{}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("zero ExpectedNodes err = %v, want ErrBadRequest", err)
	}
	if _, err := Start(Config{ExpectedNodes: 2, DefaultMinRacks: 3, DefaultReplication: 2, Racks: 4}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("minRacks > replication err = %v, want ErrBadRequest", err)
	}
	if _, err := Start(Config{ExpectedNodes: 1, BlockSize: proto.MaxPayloadBytes + 1}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("BlockSize above the frame payload limit err = %v, want ErrBadRequest", err)
	}
}

// TestAddBlockChecksLength: add_block stores the length every reader
// sizes its buffer from, so one outside [1, BlockSize] is refused
// before an ID is allocated.
func TestAddBlockChecksLength(t *testing.T) {
	nn := startNN(t, 2, 2)
	registerFake(t, nn, 0, "a:1")
	registerFake(t, nn, 1, "b:1")
	if _, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgCreateFile, Path: "/f"}, nil, time.Second); err != nil {
		t.Fatalf("create: %v", err)
	}
	size := nn.cfg.BlockSize
	for _, length := range []int{-1, 0, size + 1} {
		_, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgAddBlock, Path: "/f", Length: length}, nil, time.Second)
		if err == nil || !strings.Contains(err.Error(), ErrBadRequest.Error()) {
			t.Errorf("add_block of length %d: err = %v, want %v", length, err, ErrBadRequest)
		}
	}
	resp, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgAddBlock, Path: "/f", Length: size}, nil, time.Second)
	if err != nil {
		t.Fatalf("add_block of length BlockSize: %v", err)
	}
	if resp.Block != 1 {
		t.Errorf("first accepted block = %d, want 1: a refused add_block allocated an ID", resp.Block)
	}
}

func TestRegisterValidation(t *testing.T) {
	nn := startNN(t, 2, 2)
	if _, _, err := proto.Call(nn.Addr(), &proto.Message{
		Type: proto.MsgRegister, DataAddr: "x", Rack: 9, Capacity: 10,
	}, nil, time.Second); err == nil {
		t.Error("out-of-range rack accepted")
	}
	if _, _, err := proto.Call(nn.Addr(), &proto.Message{
		Type: proto.MsgRegister, DataAddr: "x", Rack: 0, Capacity: 0,
	}, nil, time.Second); err == nil {
		t.Error("zero capacity accepted")
	}
	registerFake(t, nn, 0, "a:1")
	registerFake(t, nn, 1, "b:1")
	if !nn.Ready() {
		t.Fatal("cluster not ready after expected registrations")
	}
	// Late registrations are rejected once the topology is frozen.
	if _, _, err := proto.Call(nn.Addr(), &proto.Message{
		Type: proto.MsgRegister, DataAddr: "c:1", Rack: 0, Capacity: 10,
	}, nil, time.Second); err == nil {
		t.Error("registration after ready accepted")
	}
}

func TestNotReadyErrors(t *testing.T) {
	nn := startNN(t, 2, 2)
	if _, _, err := proto.Call(nn.Addr(), &proto.Message{
		Type: proto.MsgCreateFile, Path: "/x",
	}, nil, time.Second); err == nil {
		t.Error("create before ready accepted")
	}
	if _, err := nn.OptimizeNow(core.OptimizerOptions{}); !errors.Is(err, ErrNotReady) {
		t.Errorf("OptimizeNow err = %v, want ErrNotReady", err)
	}
	if _, err := nn.PlacementClone(); !errors.Is(err, ErrNotReady) {
		t.Errorf("PlacementClone err = %v, want ErrNotReady", err)
	}
	if err := nn.WithPlacement(func(*core.Placement) error { return nil }); !errors.Is(err, ErrNotReady) {
		t.Errorf("WithPlacement err = %v, want ErrNotReady", err)
	}
	if err := nn.WaitReady(30 * time.Millisecond); err == nil {
		t.Error("WaitReady succeeded with missing datanodes")
	}
}

func TestCreateValidation(t *testing.T) {
	nn := startNN(t, 2, 2)
	registerFake(t, nn, 0, "a:1")
	registerFake(t, nn, 1, "b:1")
	call := func(m *proto.Message) error {
		_, _, err := proto.Call(nn.Addr(), m, nil, time.Second)
		return err
	}
	if err := call(&proto.Message{Type: proto.MsgCreateFile}); err == nil {
		t.Error("empty path accepted")
	}
	if err := call(&proto.Message{Type: proto.MsgCreateFile, Path: "/f", Replication: 2, MinRacks: 3}); err == nil {
		t.Error("minRacks > replication accepted")
	}
	if err := call(&proto.Message{Type: proto.MsgCreateFile, Path: "/f"}); err != nil {
		t.Errorf("valid create failed: %v", err)
	}
	if err := call(&proto.Message{Type: proto.MsgCreateFile, Path: "/f"}); err == nil {
		t.Error("duplicate create accepted")
	}
	if err := call(&proto.Message{Type: proto.MsgAddBlock, Path: "/nope"}); err == nil {
		t.Error("add block to missing file accepted")
	}
}

func TestAddBlockAndReconcileIssuesReplication(t *testing.T) {
	nn := startNN(t, 2, 2)
	a := registerFake(t, nn, 0, "a:1")
	b := registerFake(t, nn, 1, "b:1")
	if _, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgCreateFile, Path: "/f", Replication: 2}, nil, time.Second); err != nil {
		t.Fatalf("create: %v", err)
	}
	resp, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgAddBlock, Path: "/f", Length: 42}, nil, time.Second)
	if err != nil {
		t.Fatalf("add block: %v", err)
	}
	if len(resp.Pipeline) != 2 {
		t.Fatalf("pipeline = %v, want both machines", resp.Pipeline)
	}
	blk := resp.Block

	// Only node a stores the block (pipeline to b "failed").
	a.received(blk)
	a.heartbeat(blk)
	b.heartbeat() // b reports empty

	// While the file is open this is what every healthy pipeline write
	// looks like mid-flight (head confirmed, tail not yet): reconcile
	// must not race it with a transfer of its own.
	nn.ReconcileOnce()
	if cmds := a.heartbeat(blk); len(cmds) != 0 {
		t.Errorf("reconcile raced the in-flight pipeline write: %v", cmds)
	}
	if _, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgCompleteFile, Path: "/f"}, nil, time.Second); err != nil {
		t.Fatalf("complete: %v", err)
	}

	nn.ReconcileOnce()
	// b should be commanded to receive the block from a (a is the only
	// confirmed holder, so a gets the replicate command).
	cmds := a.heartbeat(blk)
	foundReplicate := false
	for _, c := range cmds {
		if c.Kind == proto.CmdReplicate && c.Block == blk && c.Target == "b:1" {
			foundReplicate = true
		}
	}
	if !foundReplicate {
		t.Errorf("no replicate command issued to repair under-replication; got %v", cmds)
	}

	// Once b confirms, no further commands flow and the system
	// converges.
	b.received(blk)
	b.heartbeat(blk)
	nn.ReconcileOnce()
	if cmds := a.heartbeat(blk); len(cmds) != 0 {
		t.Errorf("unexpected commands after convergence: %v", cmds)
	}
	if err := nn.WaitConverged(2 * time.Second); err != nil {
		t.Errorf("WaitConverged: %v", err)
	}
}

func TestDeadNodeDetection(t *testing.T) {
	nn := startNN(t, 2, 2)
	a := registerFake(t, nn, 0, "a:1")
	b := registerFake(t, nn, 1, "b:1")
	if _, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgCreateFile, Path: "/f", Replication: 2}, nil, time.Second); err != nil {
		t.Fatalf("create: %v", err)
	}
	resp, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgAddBlock, Path: "/f", Length: 1}, nil, time.Second)
	if err != nil {
		t.Fatalf("add block: %v", err)
	}
	blk := resp.Block
	a.received(blk)
	b.received(blk)

	// Only a keeps heartbeating; b goes silent past DeadTimeout.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		a.heartbeat(blk)
		nn.ReconcileOnce()
		nodes := clusterNodes(t, nn)
		if !nodes[1].Alive {
			return // dead node detected
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("silent datanode never marked dead")
}

func clusterNodes(t *testing.T, nn *NameNode) []proto.NodeInfo {
	t.Helper()
	resp, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgClusterInfo}, nil, time.Second)
	if err != nil {
		t.Fatalf("cluster info: %v", err)
	}
	return resp.Nodes
}

func TestHeartbeatUnknownNode(t *testing.T) {
	nn := startNN(t, 1, 1)
	if _, _, err := proto.Call(nn.Addr(), &proto.Message{
		Type: proto.MsgHeartbeatDelta, Node: 42, Namespace: nn.namespace,
	}, nil, time.Second); err == nil {
		t.Error("heartbeat from unknown node accepted")
	}
}

func TestUnknownMessageType(t *testing.T) {
	nn := startNN(t, 1, 1)
	if _, _, err := proto.Call(nn.Addr(), &proto.Message{Type: "bogus"}, nil, time.Second); err == nil {
		t.Error("bogus message type accepted")
	}
}

func TestCloseIdempotent(t *testing.T) {
	nn, err := Start(Config{ExpectedNodes: 1, Racks: 1, DefaultMinRacks: 1})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := nn.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := nn.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close err = %v, want ErrClosed", err)
	}
}

// A full report is listed on the datanode and applied here some time
// later; a block that lands in between is confirmed by a
// MsgBlockReceived — the node's own as a pipeline head, or the head's
// naming it downstream — but absent from the list. Reading that as
// "gone" un-confirmed a replica that exists and made reconcile copy the
// whole block to the node again. The stale report must leave it alone;
// only a report listed after the confirmation may remove it.
func TestStaleFullReportKeepsFreshConfirmation(t *testing.T) {
	for _, chain := range []bool{false, true} {
		name := "own report"
		if chain {
			name = "chain report"
		}
		t.Run(name, func(t *testing.T) {
			nn := startNN(t, 2, 2)
			a := registerFake(t, nn, 0, "a:1")
			b := registerFake(t, nn, 1, "b:1")
			if _, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgCreateFile, Path: "/f", Replication: 2}, nil, time.Second); err != nil {
				t.Fatalf("create: %v", err)
			}
			resp, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgAddBlock, Path: "/f", Length: 1}, nil, time.Second)
			if err != nil {
				t.Fatalf("add block: %v", err)
			}
			blk := resp.Block
			holds := func() bool {
				nn.mu.Lock()
				defer nn.mu.Unlock()
				return nn.confirmed[blk][a.id]
			}
			if chain {
				b.received(blk, a.addr)
			} else {
				a.received(blk)
			}
			if !holds() {
				t.Fatal("the arrival report did not confirm a")
			}
			a.heartbeat() // listed before blk landed
			if !holds() {
				t.Fatal("a full report listed before the block landed un-confirmed it")
			}
			a.heartbeat() // listed after: the replica really is gone
			if holds() {
				t.Error("a later full report without the block left it confirmed")
			}
		})
	}
}

// TestChainReportConfirmsLiveDownstream: a head's arrival report
// confirms the head and each downstream address that is a registered
// live node; an unknown address and a dead node's are skipped.
func TestChainReportConfirmsLiveDownstream(t *testing.T) {
	nn := startNN(t, 3, 2)
	a := registerFake(t, nn, 0, "a:1")
	b := registerFake(t, nn, 1, "b:1")
	c := registerFake(t, nn, 0, "c:1")
	nn.mu.Lock()
	nn.nodes[c.id].alive = false
	nn.mu.Unlock()
	a.received(7, b.addr, "x:1", c.addr)
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if got := nn.confirmed[7]; len(got) != 2 || !got[a.id] || !got[b.id] {
		t.Errorf("confirmed holders = %v, want the head %d and live %d only", got, a.id, b.id)
	}
	if !nn.nodes[b.id].fresh[7] {
		t.Error("a downstream confirmation is not marked fresh")
	}
}

func TestMovementStatsTracksDurations(t *testing.T) {
	nn := startNN(t, 2, 2)
	a := registerFake(t, nn, 0, "a:1")
	b := registerFake(t, nn, 1, "b:1")
	if _, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgCreateFile, Path: "/f", Replication: 2}, nil, time.Second); err != nil {
		t.Fatalf("create: %v", err)
	}
	resp, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgAddBlock, Path: "/f", Length: 1}, nil, time.Second)
	if err != nil {
		t.Fatalf("add block: %v", err)
	}
	blk := resp.Block
	a.received(blk)
	a.heartbeat(blk)
	b.heartbeat()
	// The writer never completes the file; once the allocation is
	// inflightTTL old reconcile stops waiting for it.
	nn.mu.Lock()
	nn.writing[blk] = nn.writing[blk].Add(-inflightTTL)
	nn.mu.Unlock()
	nn.ReconcileOnce()
	a.heartbeat(blk) // collects the replicate command
	time.Sleep(20 * time.Millisecond)
	b.received(blk) // completes the transfer
	durations, replicates, _ := nn.MovementStats()
	if replicates == 0 {
		t.Error("no replicate commands counted")
	}
	if len(durations) == 0 {
		t.Fatal("no movement durations recorded")
	}
	if durations[0] <= 0 {
		t.Errorf("movement duration %v not positive", durations[0])
	}
}

// A replicate command stays in flight until a report names its (block,
// target) pair. An entry no report will ever close — its target
// confirmed the copy in a full report, died, or lost the block to a
// delete mid-transfer — must still expire after inflightTTL: fsck
// counts it, so a leaked entry reads as a transfer in flight forever on
// a converged namenode. The clock is pinned and the reconcile ticker
// parked, so only the test moves time and reconciles.
func TestInflightEntriesExpire(t *testing.T) {
	// replicate writes /f at replication 2, raises it to 3 and reconciles
	// once, which sends a copy of the block to the new desired node.
	replicate := func(t *testing.T) (*healCluster, proto.BlockID, *fakeDN) {
		t.Helper()
		hc := startHealCluster(t)
		b := proto.BlockID(hc.writeBlock())
		if _, _, err := proto.Call(hc.nn.Addr(), &proto.Message{Type: proto.MsgSetRepl, Path: "/f", Replication: 3}, nil, time.Second); err != nil {
			t.Fatalf("set_replication: %v", err)
		}
		hc.nn.ReconcileOnce()
		for _, dn := range hc.dns {
			if hc.inflight(b, dn) {
				return hc, b, dn
			}
		}
		t.Fatalf("no replicate command in flight for block %d", b)
		return nil, 0, nil
	}
	// remove deletes /f and has every holder report its replica gone.
	remove := func(t *testing.T, hc *healCluster, b proto.BlockID) {
		t.Helper()
		if _, _, err := proto.Call(hc.nn.Addr(), &proto.Message{Type: proto.MsgDeleteFile, Path: "/f"}, nil, time.Second); err != nil {
			t.Fatalf("delete: %v", err)
		}
		for _, dn := range hc.dns {
			dn.deleted(b)
		}
	}
	// pastTTL moves the clock beyond inflightTTL in two outage steps of
	// 2 s, every node but the silent ones heartbeating and a reconcile
	// pass after each step.
	pastTTL := func(hc *healCluster, silent ...*fakeDN) {
		hc.outage(silent...)
		hc.outage(silent...)
	}
	// settled requires a converged, empty namenode with nothing in flight.
	settled := func(t *testing.T, hc *healCluster) {
		t.Helper()
		if !hc.nn.Converged() {
			t.Fatal("namenode not converged")
		}
		if h := hc.nn.Health(); h.Files != 0 || h.InflightTransfers != 0 {
			t.Errorf("fsck on a converged namenode: %d file(s), %d transfer(s) in flight, want none", h.Files, h.InflightTransfers)
		}
	}

	t.Run("confirmed by a full report", func(t *testing.T) {
		hc, b, target := replicate(t)
		target.heartbeat(b)
		if hc.inflight(b, target) {
			t.Error("a full report naming the copy left its transfer in flight")
		}
		if durations, _, _ := hc.nn.MovementStats(); len(durations) != 1 {
			t.Errorf("%d movement durations recorded, want the full report's 1", len(durations))
		}
		remove(t, hc, b)
		pastTTL(hc)
		settled(t, hc)
	})
	t.Run("target declared dead", func(t *testing.T) {
		hc, b, target := replicate(t)
		pastTTL(hc, target)
		if hc.inflight(b, target) {
			t.Error("a transfer to a dead node is still in flight after inflightTTL")
		}
	})
	t.Run("block deleted mid-transfer", func(t *testing.T) {
		hc, b, _ := replicate(t)
		remove(t, hc, b)
		pastTTL(hc)
		settled(t, hc)
	})
}

// A heartbeat hands a node its queued CmdDelete; a reconcile pass that
// runs before the node's report of the deletion arrives queues the same
// delete again (the holder is still confirmed and still surplus, and the
// queue it is de-duplicated against was just emptied). When the report
// then lands the cluster is converged, so nothing may still be queued —
// not even in the report's own response: fsck counts PendingCommands
// against Healthy. The clock is pinned so neither
// dead detection nor the in-flight TTL can fire however slowly the test
// runs, and a namenode with a clock of its owner's runs no reconcile
// loop, so only the explicit passes below run.
func TestReportedDeletionDropsRequeuedDelete(t *testing.T) {
	epoch := time.Unix(1_700_000_000, 0)
	nn, err := Start(Config{
		ExpectedNodes:      3,
		Racks:              2,
		DefaultReplication: 2,
		DefaultMinRacks:    2,
		Seed:               1,
		Clock:              func() time.Time { return epoch },
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = nn.Close() })

	dns := []*fakeDN{
		registerFake(t, nn, 0, "a:1"),
		registerFake(t, nn, 1, "b:1"),
		registerFake(t, nn, 0, "c:1"),
	}
	if _, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgCreateFile, Path: "/f", Replication: 2}, nil, time.Second); err != nil {
		t.Fatalf("create: %v", err)
	}
	resp, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgAddBlock, Path: "/f", Length: 1}, nil, time.Second)
	if err != nil {
		t.Fatalf("add block: %v", err)
	}
	blk := resp.Block
	// Every node holds the block, so the one outside the two-node
	// pipeline is a surplus replica reconcile must delete.
	var surplus *fakeDN
	for _, dn := range dns {
		dn.received(blk)
		if dn.addr != resp.Pipeline[0] && dn.addr != resp.Pipeline[1] {
			surplus = dn
		}
	}
	if _, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgCompleteFile, Path: "/f"}, nil, time.Second); err != nil {
		t.Fatalf("complete: %v", err)
	}

	nn.ReconcileOnce()
	cmds := surplus.heartbeat(blk)
	if len(cmds) != 1 || cmds[0].Kind != proto.CmdDelete || cmds[0].Block != blk {
		t.Fatalf("surplus holder got %v, want one delete of block %d", cmds, blk)
	}
	nn.ReconcileOnce() // before the report: the delete is queued again
	if nn.Converged() {
		t.Fatal("converged while the surplus replica is still confirmed")
	}
	if cmds := surplus.deleted(blk); len(cmds) != 0 {
		t.Errorf("the deletion report drew %v, want no commands", cmds)
	}
	if !nn.Converged() {
		t.Fatal("not converged after the surplus replica was deleted")
	}
	if h := nn.Health(); h.PendingCommands != 0 || !h.Healthy {
		t.Errorf("converged but fsck reports %d pending command(s), healthy=%v", h.PendingCommands, h.Healthy)
	}
}

// A reported block ID is a datanode's word. One at the top of the ID
// space moves the allocation counter to the top, never past it, and
// allocation there is refused instead of wrapping to a negative ID.
func TestReportedBlockIDNeverWraps(t *testing.T) {
	nn := startNN(t, 2, 2)
	a := registerFake(t, nn, 0, "a:1")
	registerFake(t, nn, 1, "b:1")
	a.heartbeat(math.MaxInt64-1, math.MaxInt64)
	if _, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgCreateFile, Path: "/f"}, nil, time.Second); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgAddBlock, Path: "/f", Length: 1}, nil, time.Second); err == nil {
		t.Error("add_block allocated past the top of the block ID space")
	}
	nn.mu.Lock()
	next := nn.nextBlock
	nn.mu.Unlock()
	if next != math.MaxInt64 {
		t.Errorf("next block ID %d, want %d", next, int64(math.MaxInt64))
	}
}
