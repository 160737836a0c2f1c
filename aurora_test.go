package aurora_test

import (
	"bytes"
	"testing"
	"time"

	"aurora"
	"aurora/internal/dfs"
)

// TestPublicAPIAlgorithms walks the algorithm layer exactly as the
// package documentation advertises.
func TestPublicAPIAlgorithms(t *testing.T) {
	cluster, err := aurora.UniformCluster(3, 4, 50, 4)
	if err != nil {
		t.Fatalf("UniformCluster: %v", err)
	}
	specs := []aurora.BlockSpec{
		{ID: 1, Popularity: 900, MinReplicas: 3, MinRacks: 2},
		{ID: 2, Popularity: 90, MinReplicas: 3, MinRacks: 2},
		{ID: 3, Popularity: 9, MinReplicas: 3, MinRacks: 2},
	}
	p, err := aurora.NewPlacement(cluster, specs)
	if err != nil {
		t.Fatalf("NewPlacement: %v", err)
	}
	for _, s := range specs {
		if err := aurora.PlaceBlock(p, s.ID, s.MinReplicas, aurora.NoMachine); err != nil {
			t.Fatalf("PlaceBlock: %v", err)
		}
	}
	if err := p.CheckFeasible(); err != nil {
		t.Fatalf("CheckFeasible: %v", err)
	}

	rf, err := aurora.ReplicationFactors(specs, 15, cluster.NumMachines(), 0)
	if err != nil {
		t.Fatalf("ReplicationFactors: %v", err)
	}
	if rf.Factors[1] <= rf.Factors[3] {
		t.Errorf("hot block factor %d <= cold %d", rf.Factors[1], rf.Factors[3])
	}

	res, err := aurora.Optimize(p, aurora.OptimizerOptions{
		Epsilon:           0.1,
		RackAware:         true,
		ReplicationBudget: 15,
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Replications == 0 {
		t.Error("Optimize performed no replications")
	}
	if sr, err := aurora.BalanceRacks(p, aurora.SearchOptions{}); err != nil || sr.FinalCost > sr.InitialCost {
		t.Errorf("BalanceRacks = %+v, %v", sr, err)
	}

	if lb := aurora.LowerBound(cluster, specs, res.Targets); lb > p.Cost() {
		t.Errorf("LowerBound %v exceeds the optimized max load %v", lb, p.Cost())
	}
}

// placementTarget is the smallest Target a library user can write: one
// Algorithm 5 period over a bare placement whose popularities the user
// maintains.
type placementTarget struct{ p *aurora.Placement }

func (t placementTarget) OptimizeNow(opts aurora.OptimizerOptions) (aurora.OptimizeResult, error) {
	return aurora.Optimize(t.p, opts)
}

// TestPublicAPIController drives the framework layer over a
// user-implemented Target.
func TestPublicAPIController(t *testing.T) {
	cluster, err := aurora.UniformCluster(2, 2, 20, 2)
	if err != nil {
		t.Fatalf("UniformCluster: %v", err)
	}
	specs := []aurora.BlockSpec{
		{ID: 1, Popularity: 20, MinReplicas: 2, MinRacks: 2},
		{ID: 2, MinReplicas: 2, MinRacks: 2},
	}
	p, err := aurora.NewPlacement(cluster, specs)
	if err != nil {
		t.Fatalf("NewPlacement: %v", err)
	}
	for _, s := range specs {
		if err := aurora.PlaceBlock(p, s.ID, 2, aurora.NoMachine); err != nil {
			t.Fatalf("PlaceBlock: %v", err)
		}
	}
	ctl, err := aurora.NewController(placementTarget{p}, aurora.ControllerConfig{
		Period: time.Hour,
		Options: aurora.OptimizerOptions{
			RackAware:         true,
			ReplicationBudget: 6,
		},
	})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	defer ctl.Close()
	if _, err := ctl.RunOnce(); err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	if st := ctl.Stats(); st.Periods != 1 || st.Replications == 0 {
		t.Errorf("Stats = %+v, want 1 period with replications", st)
	}
}

// TestPublicAPIFileSystem drives the DFS layer end to end.
func TestPublicAPIFileSystem(t *testing.T) {
	cl, err := dfs.Start(dfs.Spec{
		Nodes: 4,
		NameNode: aurora.NameNodeConfig{
			Racks:             2,
			BlockSize:         1 << 12,
			ReconcileInterval: 25 * time.Millisecond,
			Placer:            aurora.AuroraPlacer{},
		},
		DataNode: aurora.DataNodeConfig{CapacityBlocks: 128, HeartbeatInterval: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("dfs.Start: %v", err)
	}
	defer cl.Close()
	nn := cl.NameNode
	c := aurora.NewFSClient(nn.Addr(), aurora.WithBlockSize(1<<12), aurora.WithClientSeed(1))
	data := bytes.Repeat([]byte("aurora"), 1000)
	if err := c.Create("/pub", data, 3); err != nil {
		t.Fatalf("Create: %v", err)
	}
	got, err := c.Read("/pub")
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	ctl, err := aurora.NewController(nn, aurora.ControllerConfig{
		Period:  time.Hour,
		Options: aurora.OptimizerOptions{Epsilon: 0.1, RackAware: true},
	})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	defer ctl.Close()
	if _, err := ctl.RunOnce(); err != nil {
		t.Fatalf("RunOnce over namenode: %v", err)
	}
}
