package namenode

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/dfs/proto"
	"aurora/internal/invariant"
	"aurora/internal/metrics"
	"aurora/internal/topology"
)

// desire is one block's desired state: its replica set and k_low.
type desire struct {
	replicas []topology.MachineID
	k        int
}

func desiresOf(p *core.Placement) map[core.BlockID]desire {
	out := make(map[core.BlockID]desire)
	for _, id := range p.Blocks() {
		spec, _ := p.Spec(id)
		out[id] = desire{replicas: p.Replicas(id), k: spec.MinReplicas}
	}
	return out
}

func (hc *healCluster) liveDesires() map[core.BlockID]desire {
	hc.nn.mu.Lock()
	defer hc.nn.mu.Unlock()
	return desiresOf(hc.nn.placement)
}

// midPeriod records a period during whose compute step a create, a
// delete, a set_replication and a datanode death landed: the plan as
// computed, the live desired state when the compute began and when the
// install began, and the node that died.
type midPeriod struct {
	plan, before, after map[core.BlockID]desire
	victim              topology.MachineID
}

// periodWithMutations reads /f0 until it is hot, then runs one period
// that lands the four mutations between its compute and install steps.
// The victim is the node with no copy of /f0's block, live or planned,
// so what the plan does to /f0 stays untouched; one block it holds is
// re-homed by its death, and the delete and the set_replication hit two
// other files.
func periodWithMutations(tw *twin, blocks []proto.BlockID) *midPeriod {
	tw.t.Helper()
	for i := 0; i < 20; i++ {
		tw.call(&proto.Message{Type: proto.MsgGetLocations, Path: "/f0"})
	}
	hot := core.BlockID(blocks[0])
	mp := &midPeriod{victim: topology.NoMachine}
	tw.nn.computed = func(plan *core.Placement) {
		mp.plan = desiresOf(plan)
		mp.before = tw.liveDesires()
		var victim *fakeDN
		for _, dn := range tw.dns {
			m := topology.MachineID(dn.id)
			if !slices.Contains(mp.plan[hot].replicas, m) && !slices.Contains(mp.before[hot].replicas, m) {
				victim = dn
			}
		}
		if victim == nil {
			tw.t.Fatalf("every node holds the hot block: plan %v, live %v", mp.plan[hot], mp.before[hot])
		}
		mp.victim = topology.MachineID(victim.id)
		healed := -1
		var others []int
		for i := 1; i < len(blocks); i++ {
			if healed < 0 && slices.Contains(mp.before[core.BlockID(blocks[i])].replicas, mp.victim) {
				healed = i
			} else {
				others = append(others, i)
			}
		}
		if healed < 0 {
			tw.t.Fatalf("victim %d holds no block", mp.victim)
		}
		tw.write("/new", 2, true)
		tw.call(&proto.Message{Type: proto.MsgDeleteFile, Path: fmt.Sprintf("/f%d", others[0])})
		tw.call(&proto.Message{Type: proto.MsgSetRepl, Path: fmt.Sprintf("/f%d", others[1]), Replication: 3})
		tw.advance(2*time.Second, victim)
		mp.after = tw.liveDesires()
	}
	defer func() { tw.nn.computed = nil }()
	if _, err := tw.nn.OptimizeNow(core.OptimizerOptions{
		RackAware: true, ReplicationBudget: 2*len(blocks) + 1, MaxReplicationMoves: 4,
	}); err != nil {
		tw.t.Fatalf("OptimizeNow: %v", err)
	}
	return mp
}

// After a period whose compute saw a create, a delete, a set_replication
// and a death, each block's desired set is the live one if the live
// placement changed it since the snapshot, and the plan's otherwise —
// less the dead node, which the install's reconcile walk re-homes.
func TestPeriodRebasesConcurrentMutations(t *testing.T) {
	tw := startTwin(t, false)
	var blocks []proto.BlockID
	for i := 0; i < 4; i++ {
		blocks = append(blocks, tw.write(fmt.Sprintf("/f%d", i), 2, true))
	}
	tw.tick()
	mp := periodWithMutations(tw, blocks)
	got := tw.liveDesires()

	hot := core.BlockID(blocks[0])
	if slices.Equal(mp.plan[hot].replicas, mp.before[hot].replicas) {
		t.Fatalf("the plan left the hot block at %v: nothing to install", mp.plan[hot].replicas)
	}
	var touched []core.BlockID
	for id := range mp.before {
		if _, ok := mp.after[id]; !ok {
			touched = append(touched, id)
		}
	}
	for id, live := range mp.after {
		before, existed := mp.before[id]
		g, ok := got[id]
		if !ok {
			t.Errorf("block %d is live but not desired after the install", id)
			continue
		}
		if !existed || before.k != live.k || !slices.Equal(before.replicas, live.replicas) {
			touched = append(touched, id)
			if g.k != live.k || !slices.Equal(g.replicas, live.replicas) {
				t.Errorf("block %d changed mid-period to %+v; after the install it is %+v", id, live, g)
			}
			continue
		}
		plan := mp.plan[id]
		if !slices.Contains(plan.replicas, mp.victim) {
			if g.k != plan.k || !slices.Equal(g.replicas, plan.replicas) {
				t.Errorf("untouched block %d: the plan says %+v; after the install it is %+v", id, plan, g)
			}
			continue
		}
		// The plan put a replica on the dead node: healed to the same
		// size, the other holders kept.
		if slices.Contains(g.replicas, mp.victim) || len(g.replicas) != len(plan.replicas) {
			t.Errorf("untouched block %d: the plan's %v holds dead node %d; after the install it is %v",
				id, plan.replicas, mp.victim, g.replicas)
		}
		for _, m := range plan.replicas {
			if m != mp.victim && !slices.Contains(g.replicas, m) {
				t.Errorf("untouched block %d: the heal dropped live holder %d of %v: %v", id, m, plan.replicas, g.replicas)
			}
		}
	}
	for id := range got {
		if _, ok := mp.after[id]; !ok {
			t.Errorf("block %d is desired after the install but was deleted mid-period", id)
		}
	}
	// The create, the delete, the set_replication and the re-homed block.
	if len(touched) < 4 {
		t.Errorf("only %v changed mid-period: the mutations did not land", touched)
	}
	tw.nn.mu.Lock()
	defer tw.nn.mu.Unlock()
	if err := invariant.CheckPlacement(tw.nn.placement); err != nil {
		t.Errorf("after the install: %v", err)
	}
}

// A plan that filled a machine the live placement then wrote a new
// block to cannot take the rebased replica: the install drops the whole
// plan and counts it, and the desired placement is the live one.
// OptimizeNow reports the drop as an empty result, WithPlacement as
// ErrPlanDropped.
func TestPeriodDropsPlanOnCapacityConflict(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(nn *NameNode) error
		want error
	}{
		{"OptimizeNow", func(nn *NameNode) error {
			_, err := nn.OptimizeNow(core.OptimizerOptions{RackAware: true})
			return err
		}, nil},
		{"WithPlacement", func(nn *NameNode) error {
			return nn.WithPlacement(func(*core.Placement) error { return nil })
		}, ErrPlanDropped},
	} {
		t.Run(tc.name, func(t *testing.T) { testPlanDropped(t, tc.run, tc.want) })
	}
}

func testPlanDropped(t *testing.T, run func(*NameNode) error, want error) {
	nn, err := Start(Config{
		ExpectedNodes: 4, Racks: 2, DefaultReplication: 2, DefaultMinRacks: 2,
		DeadTimeout: time.Hour, ReconcileInterval: time.Hour, Seed: 1,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = nn.Close() })
	hc := &healCluster{t: t, nn: nn}
	for i, addr := range []string{"a:1", "b:1", "c:1", "d:1"} {
		hc.dns = append(hc.dns, registerWithCapacity(t, nn, i%2, 3, addr))
	}
	call := func(m *proto.Message) *proto.Message {
		resp, _, err := proto.Call(nn.Addr(), m, nil, time.Second)
		if err != nil {
			t.Fatalf("%s: %v", m.Type, err)
		}
		return resp
	}
	for i := 0; i < 4; i++ {
		path := fmt.Sprintf("/f%d", i)
		call(&proto.Message{Type: proto.MsgCreateFile, Path: path})
		call(&proto.Message{Type: proto.MsgAddBlock, Path: path, Length: 1})
		call(&proto.Message{Type: proto.MsgGetLocations, Path: path})
	}
	full := hc.dns[0]
	var after map[core.BlockID]desire
	var pops map[core.BlockID]float64
	nn.computed = func(plan *core.Placement) {
		// The plan fills the machine...
		m := topology.MachineID(full.id)
		for _, id := range plan.Blocks() {
			if plan.FreeCapacity(m) > 0 && !slices.Contains(plan.Replicas(id), m) {
				if err := plan.AddReplica(id, m); err != nil {
					t.Fatalf("fill the plan: %v", err)
				}
			}
		}
		// ...that a writer colocated with it then writes a block to.
		call(&proto.Message{Type: proto.MsgCreateFile, Path: "/local"})
		call(&proto.Message{Type: proto.MsgAddBlock, Path: "/local", Length: 1, DataAddr: full.addr})
		after = hc.liveDesires()
		pops = popularities(nn)
	}
	dropped := metrics.Default.Counter("dfs.namenode.plan_dropped")
	before := dropped.Value()
	if err := run(nn); !errors.Is(err, want) {
		t.Fatalf("the period returned %v, want %v", err, want)
	}
	if got := dropped.Value() - before; got != 1 {
		t.Fatalf("plan_dropped rose by %d, want 1", got)
	}
	got := hc.liveDesires()
	if len(got) != len(after) {
		t.Errorf("%d blocks desired after the drop, %d before it", len(got), len(after))
	}
	for id, want := range after {
		if g := got[id]; g.k != want.k || !slices.Equal(g.replicas, want.replicas) {
			t.Errorf("block %d: %+v after the drop, %+v before it", id, g, want)
		}
	}
	for id, want := range pops {
		if g := popularities(nn)[id]; math.Float64bits(g) != math.Float64bits(want) {
			t.Errorf("block %d popularity %v after the drop, %v before it", id, g, want)
		}
	}
}

func popularities(nn *NameNode) map[core.BlockID]float64 {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	out := make(map[core.BlockID]float64)
	for _, id := range nn.placement.Blocks() {
		spec, _ := nn.placement.Spec(id)
		out[id] = spec.Popularity
	}
	return out
}

// A period that fails changes nothing: with a budget below Σ k_low the
// optimizer refuses, and every popularity, every desired set and the
// dirty flag are as the period found them.
func TestFailedPeriodChangesNothing(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			fc := startForecastCluster(t, shards, "", 6)
			fc.period(func(i int) int { return 1 + i })
			nn := fc.nn
			nn.mu.Lock()
			nn.dirty = false
			nn.mu.Unlock()
			hc := &healCluster{t: t, nn: nn}
			desired, pops := hc.liveDesires(), popularities(nn)
			_, err := nn.OptimizeNow(core.OptimizerOptions{RackAware: true, ReplicationBudget: 1})
			if !errors.Is(err, core.ErrBudgetTooSmall) {
				t.Fatalf("OptimizeNow with budget 1: %v, want ErrBudgetTooSmall", err)
			}
			for id, want := range pops {
				if got := popularities(nn)[id]; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("block %d popularity %v after the failed period, %v before it", id, got, want)
				}
			}
			for id, want := range desired {
				if got := hc.liveDesires()[id]; !slices.Equal(got.replicas, want.replicas) {
					t.Errorf("block %d desired on %v after the failed period, %v before it", id, got.replicas, want.replicas)
				}
			}
			if nn.Dirty() {
				t.Error("the failed period marked the namespace dirty")
			}
		})
	}
}

// get_locations is served while a period computes: the period holds
// nn.mu only to snapshot and to install. The period parks in its first
// replication, inside the optimizer.
func TestLookupsServedDuringPeriod(t *testing.T) {
	fc := startForecastCluster(t, 1, "", 4)
	fc.period(func(i int) int { return 10 * (i + 1) })
	parked, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		first := true
		_, err := fc.nn.OptimizeNow(core.OptimizerOptions{
			RackAware: true, ReplicationBudget: 2*len(fc.blocks) + 2,
			OnReplicate: func(core.BlockID, topology.MachineID, topology.MachineID) {
				if first {
					first = false
					close(parked)
					<-release
				}
			},
		})
		done <- err
	}()
	select {
	case <-parked:
	case err := <-done:
		t.Fatalf("the period ended without a replication: %v", err)
	}
	_, _, err := proto.Call(fc.nn.Addr(), &proto.Message{Type: proto.MsgGetLocations, Path: "/f0"}, nil, time.Second)
	close(release)
	if err != nil {
		t.Errorf("get_locations while the period computes: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("OptimizeNow: %v", err)
	}
}

// pendingSet returns the reconcile pending set, after draining what the
// placement recorded into it.
func pendingSet(nn *NameNode) map[proto.BlockID]struct{} {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	nn.syncPendingLocked()
	return maps.Clone(nn.pending)
}

// A rebalancer that fails changes nothing, even after it mutated its
// copy of the placement: every popularity, every desired set, the
// pending set and the dirty flag are as the period found them.
func TestFailedRebalanceChangesNothing(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			fc := startForecastCluster(t, shards, "", 6)
			fc.period(func(i int) int { return 1 + i })
			nn := fc.nn
			nn.mu.Lock()
			nn.dirty = false
			nn.mu.Unlock()
			hc := &healCluster{t: t, nn: nn}
			desired, pops, pending := hc.liveDesires(), popularities(nn), pendingSet(nn)
			failed := errors.New("rebalancer failed")
			mutated := false
			err := nn.WithPlacement(func(p *core.Placement) error {
				for _, id := range p.Blocks() {
					for _, m := range p.Cluster().Machines() {
						if !p.HasReplica(id, m) {
							if err := p.AddReplica(id, m); err != nil {
								t.Fatalf("AddReplica(%d, %d): %v", id, m, err)
							}
							mutated = true
							return failed
						}
					}
				}
				return failed
			})
			if !errors.Is(err, failed) {
				t.Fatalf("WithPlacement: %v, want the rebalancer's error", err)
			}
			if !mutated {
				t.Fatal("the rebalancer found no replica to add")
			}
			for id, want := range pops {
				if got := popularities(nn)[id]; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("block %d popularity %v after the failed rebalance, %v before it", id, got, want)
				}
			}
			for id, want := range desired {
				if got := hc.liveDesires()[id]; !slices.Equal(got.replicas, want.replicas) {
					t.Errorf("block %d desired on %v after the failed rebalance, %v before it", id, got.replicas, want.replicas)
				}
			}
			if got := pendingSet(nn); !maps.Equal(got, pending) {
				t.Errorf("pending set %v after the failed rebalance, %v before it", got, pending)
			}
			if nn.Dirty() {
				t.Error("the failed rebalance marked the namespace dirty")
			}
		})
	}
}

// get_locations is served while an external rebalancer runs: like a
// period, it holds nn.mu only to snapshot and to install.
func TestLookupsServedDuringRebalance(t *testing.T) {
	fc := startForecastCluster(t, 1, "", 4)
	fc.period(func(i int) int { return 10 * (i + 1) })
	parked, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- fc.nn.WithPlacement(func(*core.Placement) error {
			close(parked)
			<-release
			return nil
		})
	}()
	select {
	case <-parked:
	case err := <-done:
		t.Fatalf("the rebalance ended without running the rebalancer: %v", err)
	}
	_, _, err := proto.Call(fc.nn.Addr(), &proto.Message{Type: proto.MsgGetLocations, Path: "/f0"}, nil, time.Second)
	close(release)
	if err != nil {
		t.Errorf("get_locations while the rebalancer runs: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("WithPlacement: %v", err)
	}
}

// Periods run one at a time: while an external rebalancer computes,
// periodMu is held, and an OptimizeNow started meanwhile neither
// computes nor returns until the rebalance has installed.
func TestPeriodsSerialize(t *testing.T) {
	fc := startForecastCluster(t, 1, "", 4)
	fc.period(func(i int) int { return 10 * (i + 1) })
	nn := fc.nn
	var computed atomic.Int32
	nn.computed = func(*core.Placement) { computed.Add(1) }
	parked, release := make(chan struct{}), make(chan struct{})
	rebalanced := make(chan error, 1)
	go func() {
		rebalanced <- nn.WithPlacement(func(*core.Placement) error {
			close(parked)
			<-release
			return nil
		})
	}()
	select {
	case <-parked:
	case err := <-rebalanced:
		t.Fatalf("the rebalance ended without running the rebalancer: %v", err)
	}
	if nn.periodMu.TryLock() {
		nn.periodMu.Unlock()
		close(release)
		t.Fatal("periodMu is free while the rebalancer computes")
	}
	optimized := make(chan error, 1)
	go func() {
		_, err := nn.OptimizeNow(core.OptimizerOptions{RackAware: true, ReplicationBudget: 2*len(fc.blocks) + 2})
		optimized <- err
	}()
	var optErr error
	early := false
	select {
	case optErr = <-optimized:
		early = true
		t.Errorf("OptimizeNow returned while the rebalancer computed: %v", optErr)
	case <-time.After(200 * time.Millisecond):
	}
	if n := computed.Load(); n != 0 {
		t.Errorf("%d periods computed while the rebalancer was parked", n)
	}
	close(release)
	if err := <-rebalanced; err != nil {
		t.Fatalf("WithPlacement: %v", err)
	}
	if !early {
		optErr = <-optimized
	}
	if optErr != nil {
		t.Fatalf("OptimizeNow: %v", optErr)
	}
	if n := computed.Load(); n != 2 {
		t.Errorf("%d periods computed, want 2", n)
	}
}

// A failed period does not advance the forecaster: the forecast it
// staged is committed only with an installed plan. After one failed
// rebalance, the next period optimizes against the popularities of a
// twin namenode, fed the same reads, that never ran it.
func TestFailedPeriodLeavesForecaster(t *testing.T) {
	failing := startForecastCluster(t, 1, "ewma", 4)
	twin := startForecastCluster(t, 1, "ewma", 4)
	for _, fc := range []*forecastCluster{failing, twin} {
		fc.period(func(i int) int { return 1 + i })
		fc.refresh()
		fc.period(func(i int) int { return 8 - 2*i })
	}
	failed := errors.New("rebalancer failed")
	if err := failing.nn.WithPlacement(func(*core.Placement) error { return failed }); !errors.Is(err, failed) {
		t.Fatalf("WithPlacement: %v, want the rebalancer's error", err)
	}
	got, want := failing.refresh(), twin.refresh()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("block %d popularity %v after a failed period, %v on the twin", failing.blocks[i], got[i], want[i])
		}
	}
}

// queuedCommands counts the commands of each kind queued for the
// datanodes' next reports.
func queuedCommands(nn *NameNode) map[proto.CommandKind]int {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	out := make(map[proto.CommandKind]int)
	for _, cmds := range nn.pendingCmds {
		for _, cmd := range cmds {
			out[cmd.Kind]++
		}
	}
	return out
}

// A period's install runs the reconcile walk over what it changed, so
// the copies it plans are queued before OptimizeNow returns, not at the
// next reconcile tick (whose ticker is parked here).
func TestInstallQueuesCopies(t *testing.T) {
	tw := startTwin(t, false)
	for i := 0; i < 4; i++ {
		tw.write(fmt.Sprintf("/f%d", i), 2, true)
	}
	tw.tick()
	if !tw.nn.Converged() {
		t.Fatal("setup did not converge")
	}
	for i := 0; i < 20; i++ {
		tw.call(&proto.Message{Type: proto.MsgGetLocations, Path: "/f0"})
	}
	res, err := tw.nn.OptimizeNow(core.OptimizerOptions{
		RackAware: true, ReplicationBudget: 10, MaxReplicationMoves: 4,
	})
	if err != nil {
		t.Fatalf("OptimizeNow: %v", err)
	}
	if res.Replications == 0 {
		t.Fatal("the period added no replica: nothing to queue")
	}
	if n := queuedCommands(tw.nn)[proto.CmdReplicate]; n == 0 {
		t.Errorf("no replicate command queued after a period that added %d replica(s)", res.Replications)
	}
}

// A drain's blocks wait in the pending set for their replacements to be
// confirmed, and every reconcile tick visits them. A visit that changes
// nothing must write nothing to the placement: a tick inside a period
// must leave the install nothing to rebase.
func TestDrainTickLeavesNothingToRebase(t *testing.T) {
	tw := startTwin(t, false)
	for i := 0; i < 8; i++ {
		tw.write(fmt.Sprintf("/f%d", i), 2, true)
	}
	tw.tick()
	if err := tw.nn.Decommission(tw.dns[0].id); err != nil {
		t.Fatalf("Decommission: %v", err)
	}
	tw.tick() // replacements chosen and copies queued; none confirmed
	if n := queuedCommands(tw.nn)[proto.CmdReplicate]; n == 0 {
		t.Fatal("the drain queued no copy: the node holds nothing")
	}
	rebased := metrics.Default.Counter("dfs.namenode.plan_rebased_blocks")
	before := rebased.Value()
	if err := tw.nn.WithPlacement(func(*core.Placement) error {
		tw.nn.ReconcileOnce()
		return nil
	}); err != nil {
		t.Fatalf("WithPlacement: %v", err)
	}
	if got := rebased.Value() - before; got != 0 {
		t.Errorf("the install rebased %d block(s) after a drain tick that changed nothing", got)
	}
}
