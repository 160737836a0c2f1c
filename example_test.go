package aurora_test

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"aurora"
	"aurora/internal/dfs"
)

// ExampleOptimize runs one full Algorithm 5 period over a small skewed
// dataset: the hot block picks up the spare replication budget and the
// maximum machine load falls.
func ExampleOptimize() {
	cluster, _ := aurora.UniformCluster(2, 3, 20, 4)
	specs := []aurora.BlockSpec{
		{ID: 1, Popularity: 600, MinReplicas: 3, MinRacks: 2}, // hot
		{ID: 2, Popularity: 60, MinReplicas: 3, MinRacks: 2},
		{ID: 3, Popularity: 6, MinReplicas: 3, MinRacks: 2},
	}
	p, _ := aurora.NewPlacement(cluster, specs)
	for _, s := range specs {
		_ = aurora.PlaceBlock(p, s.ID, s.MinReplicas, aurora.NoMachine)
	}
	before := p.Cost()

	res, _ := aurora.Optimize(p, aurora.OptimizerOptions{
		Epsilon:           0.1,
		RackAware:         true,
		ReplicationBudget: 12, // 9 minimum + 3 spare
	})

	fmt.Printf("hot block replicas: %d\n", p.ReplicaCount(1))
	fmt.Printf("cold block replicas: %d\n", p.ReplicaCount(3))
	fmt.Printf("replications: %d\n", res.Replications)
	fmt.Printf("max load fell: %v\n", p.Cost() < before)
	// Output:
	// hot block replicas: 6
	// cold block replicas: 3
	// replications: 3
	// max load fell: true
}

// exampleCluster boots a small loopback mini-DFS for the data-path
// examples and returns the namenode plus a teardown closure.
func exampleCluster(nodes int) (*aurora.NameNode, func(), error) {
	c, err := dfs.Start(dfs.Spec{
		Nodes:    nodes,
		NameNode: aurora.NameNodeConfig{Racks: 2, BlockSize: 32 << 10, ReconcileInterval: 25 * time.Millisecond},
		DataNode: aurora.DataNodeConfig{CapacityBlocks: 256, HeartbeatInterval: 50 * time.Millisecond},
	})
	if err != nil {
		return nil, nil, err
	}
	return c.NameNode, func() { _ = c.Close() }, nil
}

// ExampleNewFSClient writes and reads a file over the streamed data
// path (DESIGN.md §15): the block goes down the pipeline as 4 KiB
// chunks, and the read streams it back chunk by chunk.
func ExampleNewFSClient() {
	nn, stop, err := exampleCluster(3)
	if err != nil {
		panic(err)
	}
	defer stop()

	c := aurora.NewFSClient(nn.Addr(),
		aurora.WithBlockSize(32<<10),
		aurora.WithChunkSize(4<<10), // 8 chunk frames per block
		aurora.WithClientSeed(1),
	)
	data := make([]byte, 3*(32<<10))
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := c.Create("/demo/streamed", data, 3); err != nil {
		panic(err)
	}
	locs, err := c.Locations("/demo/streamed")
	if err != nil {
		panic(err)
	}
	got, err := c.Read("/demo/streamed")
	if err != nil {
		panic(err)
	}
	fmt.Printf("blocks: %d\n", len(locs))
	fmt.Printf("read %d bytes, identical: %v\n", len(got), bytes.Equal(got, data))
	// Output:
	// blocks: 3
	// read 98304 bytes, identical: true
}

// ExampleWithReadAhead streams a multi-block file back with the client
// prefetching blocks beyond the one currently draining; replica choice
// stays deterministic under WithClientSeed even with prefetch workers.
func ExampleWithReadAhead() {
	nn, stop, err := exampleCluster(4)
	if err != nil {
		panic(err)
	}
	defer stop()

	c := aurora.NewFSClient(nn.Addr(),
		aurora.WithBlockSize(32<<10),
		aurora.WithChunkSize(8<<10),
		aurora.WithReadAhead(2), // blocks N+1, N+2 stream while N drains
		aurora.WithClientSeed(1),
	)
	data := make([]byte, 6*(32<<10))
	for i := range data {
		data[i] = byte(i % 239)
	}
	if err := c.Create("/demo/readahead", data, 2); err != nil {
		panic(err)
	}
	got, err := c.Read("/demo/readahead")
	if err != nil {
		panic(err)
	}
	fmt.Printf("read 6 blocks, identical: %v\n", bytes.Equal(got, data))
	// Output:
	// read 6 blocks, identical: true
}

// ExampleReplicationFactors shows Algorithm 3 levelling per-replica
// popularity under a budget: the hottest block takes most of the spare
// replicas.
func ExampleReplicationFactors() {
	specs := []aurora.BlockSpec{
		{ID: 1, Popularity: 100, MinReplicas: 1, MinRacks: 1},
		{ID: 2, Popularity: 10, MinReplicas: 1, MinRacks: 1},
		{ID: 3, Popularity: 1, MinReplicas: 1, MinRacks: 1},
	}
	res, _ := aurora.ReplicationFactors(specs, 13, 100, 0)

	ids := []aurora.BlockID{1, 2, 3}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		fmt.Printf("block %d: %d replicas\n", id, res.Factors[id])
	}
	fmt.Printf("objective (max per-replica popularity): %.0f\n", res.Objective)
	// Output:
	// block 1: 11 replicas
	// block 2: 1 replicas
	// block 3: 1 replicas
	// objective (max per-replica popularity): 10
}

// ExampleBalanceNodes shows Algorithm 1 unwinding an adversarial
// placement to within the paper's factor 2 of the optimum, measured
// against LowerBound.
func ExampleBalanceNodes() {
	cluster, _ := aurora.UniformCluster(1, 4, 20, 4)
	var specs []aurora.BlockSpec
	for i := 1; i <= 8; i++ {
		specs = append(specs, aurora.BlockSpec{
			ID:          aurora.BlockID(i),
			Popularity:  float64(80 / i),
			MinReplicas: 2,
			MinRacks:    1,
		})
	}
	p, _ := aurora.NewPlacement(cluster, specs)
	// Adversarial start: every block on machines 0 and 1.
	for _, s := range specs {
		_ = p.AddReplica(s.ID, 0)
		_ = p.AddReplica(s.ID, 1)
	}

	res, _ := aurora.BalanceNodes(p, aurora.SearchOptions{})
	lb := aurora.LowerBound(cluster, specs, nil)

	fmt.Printf("cost: %.0f -> %.0f\n", res.InitialCost, res.FinalCost)
	fmt.Printf("lower bound: %.0f\n", lb)
	fmt.Printf("within 2x of the lower bound: %v\n", res.FinalCost <= 2*lb)
	// Output:
	// cost: 108 -> 55
	// lower bound: 54
	// within 2x of the lower bound: true
}

// ExampleNewController runs Aurora on a loopback mini-DFS: one file is
// read hot, the controller runs one period over the namenode, and the
// hot file's blocks pick up the spare replication budget.
func ExampleNewController() {
	nn, stop, err := exampleCluster(6)
	if err != nil {
		panic(err)
	}
	defer stop()

	// One soon-to-be-hot file and nine cold ones, four blocks each.
	c := aurora.NewFSClient(nn.Addr(), aurora.WithBlockSize(32<<10), aurora.WithClientSeed(7))
	payload := make([]byte, 4*(32<<10))
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := c.Create("/data/hot", payload, 3); err != nil {
		panic(err)
	}
	for i := 0; i < 9; i++ {
		if err := c.Create(fmt.Sprintf("/data/cold%d", i), payload, 3); err != nil {
			panic(err)
		}
	}
	if err := nn.WaitConverged(10 * time.Second); err != nil {
		panic(err)
	}
	// Every read counts as an access in the namenode's usage monitor.
	for i := 0; i < 50; i++ {
		if _, err := c.Read("/data/hot"); err != nil {
			panic(err)
		}
	}

	// The budget allows 12 replicas beyond the 3x minimum: exactly enough
	// to double the hot file's four blocks, since Algorithm 3 spends every
	// spare replica on the hottest per-replica popularity.
	ctl, err := aurora.NewController(nn, aurora.ControllerConfig{
		Period: time.Hour, // the example drives the one period itself
		Options: aurora.OptimizerOptions{
			Epsilon:           0.1,
			RackAware:         true,
			ReplicationBudget: 10*4*3 + 12,
		},
	})
	if err != nil {
		panic(err)
	}
	defer ctl.Close()
	res, err := ctl.RunOnce()
	if err != nil {
		panic(err)
	}
	if err := nn.WaitConverged(15 * time.Second); err != nil {
		panic(err)
	}
	hot, _ := c.Locations("/data/hot")
	cold, _ := c.Locations("/data/cold0")
	fmt.Printf("hot blocks: %d replicas\n", len(hot[0].Addresses))
	fmt.Printf("cold blocks: %d replicas\n", len(cold[0].Addresses))
	fmt.Printf("replications: %d\n", res.Replications)
	// Output:
	// hot blocks: 6 replicas
	// cold blocks: 3 replicas
	// replications: 12
}

// ExampleBalanceRacks shows the local search repairing an adversarial
// placement while honouring rack-level fault tolerance.
func ExampleBalanceRacks() {
	cluster, _ := aurora.UniformCluster(2, 2, 20, 4)
	specs := []aurora.BlockSpec{
		{ID: 1, Popularity: 90, MinReplicas: 2, MinRacks: 2},
		{ID: 2, Popularity: 60, MinReplicas: 2, MinRacks: 2},
		{ID: 3, Popularity: 30, MinReplicas: 2, MinRacks: 2},
	}
	p, _ := aurora.NewPlacement(cluster, specs)
	// Adversarial start: everything on machines 0 (rack 0) and 2 (rack 1).
	for _, s := range specs {
		_ = p.AddReplica(s.ID, 0)
		_ = p.AddReplica(s.ID, 2)
	}

	res, _ := aurora.BalanceRacks(p, aurora.SearchOptions{})

	fmt.Printf("cost: %.0f -> %.0f\n", res.InitialCost, res.FinalCost)
	fmt.Printf("still rack-feasible: %v\n", p.CheckFeasible() == nil)
	// Output:
	// cost: 90 -> 45
	// still rack-feasible: true
}
