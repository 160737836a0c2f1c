package dfs_test

import (
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/dfs"
	"aurora/internal/dfs/client"
	"aurora/internal/faultinject"
)

// startStepped boots a stepped cluster of nodes datanodes whose reports
// and reconcile passes come once a second of its clock, with a 2-minute
// usage window and a 5-second DeadTimeout.
func startStepped(t *testing.T, nodes int, faults *faultinject.Injector) (*dfs.Cluster, *client.Client) {
	t.Helper()
	c := startCluster(t, nodes, func(s *dfs.Spec) {
		s.Clock = &dfs.Clock{}
		s.Faults = faults
		s.NameNode.DeadTimeout = 5 * time.Second
		s.NameNode.ReconcileInterval = time.Second
		s.NameNode.WindowBucket = time.Minute
		s.NameNode.WindowBuckets = 2
		s.DataNode.HeartbeatInterval = time.Second
	})
	return c, client.New(c.NameNode.Addr(), client.WithBlockSize(1<<12))
}

// A stepped cluster's usage window slides on its clock, however little
// wall time passes: stepped past t + W, the window a period reads no
// longer holds an access made at t, and still holds one made inside W.
// The reports of every second on the way keep every node alive.
func TestSteppedWindowSlides(t *testing.T) {
	c, cl := startStepped(t, 3, nil)
	access := func(path string) core.BlockID {
		t.Helper()
		locs, err := cl.Locations(path)
		if err != nil || len(locs) != 1 {
			t.Fatalf("locations %s: %v, %v", path, locs, err)
		}
		return core.BlockID(locs[0].Block)
	}
	for _, path := range []string{"/old", "/young"} {
		if err := cl.Create(path, payload(100, 1), 3); err != nil {
			t.Fatalf("create %s: %v", path, err)
		}
	}
	const at, w = 10 * time.Second, 2 * time.Minute
	c.Step(at)
	old := access("/old")
	if got := c.NameNode.PopularitySnapshot()[old]; got != 1 {
		t.Fatalf("window holds %d accesses of the block just read, want 1", got)
	}
	c.Step(at + w)
	young := access("/young")
	window := c.NameNode.PopularitySnapshot()
	if got, ok := window[old]; ok {
		t.Errorf("window still holds %d accesses made W ago", got)
	}
	if got := window[young]; got != 1 {
		t.Errorf("window holds %d accesses of the block read inside W, want 1", got)
	}
	if h := c.NameNode.Health(); h.DeadNodes != 0 {
		t.Errorf("%d nodes declared dead while every node reported", h.DeadNodes)
	}
}

// A stepped cluster declares a crashed node dead DeadTimeout after its
// last report, to the second of its clock, and then re-homes its
// replicas on the survivors.
func TestSteppedCrashDetection(t *testing.T) {
	const crash = 10 * time.Second
	inj := faultinject.New(faultinject.Schedule{{Kind: faultinject.Crash, Node: 0, At: crash}})
	c, cl := startStepped(t, 4, inj)
	if err := cl.Create("/f", payload(3<<12, 2), 3); err != nil {
		t.Fatalf("create: %v", err)
	}
	// Node 0 reports on whole seconds; its last report lands at 9 s.
	c.Step(crash + 3*time.Second)
	if h := c.NameNode.Health(); h.DeadNodes != 0 {
		t.Fatalf("dead at %v, 4 s after the last report: %d", crash+3*time.Second, h.DeadNodes)
	}
	c.Step(crash + 4*time.Second)
	if h := c.NameNode.Health(); h.DeadNodes != 1 {
		t.Fatalf("dead nodes at %v, 5 s after the last report: %d, want 1", crash+4*time.Second, h.DeadNodes)
	}
	for i := 1; !c.NameNode.Converged(); i++ {
		if i > 10 {
			t.Fatal("not converged 10 s after the death")
		}
		c.Step(crash + time.Duration(4+i)*time.Second)
	}
	if h := c.NameNode.Health(); h.UnderReplicatedBlocks != 0 || h.ConfirmedReplicas != 3*h.Blocks {
		t.Errorf("after re-homing: %+v", h)
	}
}
