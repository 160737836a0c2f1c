package core

import (
	"testing"

	"aurora/internal/topology"
)

// TestShardClusterPreservesInterleavedIDs guards the identity contract of
// the per-shard quota cluster: machine and rack IDs must denote the same
// physical machines as the base cluster even when the base registers
// machines interleaved across racks (machine i in rack i%R — exactly how
// the namenode builds its topology). A rack-major rebuild silently
// permutes IDs, and every shard then computes rack spread and capacity
// against the wrong machines.
func TestShardClusterPreservesInterleavedIDs(t *testing.T) {
	const machines, racks = 6, 2
	var b topology.Builder
	rackIDs := make([]topology.RackID, racks)
	for r := range rackIDs {
		rackIDs[r] = b.AddRack()
	}
	for i := 0; i < machines; i++ {
		// Distinct capacities so a permutation is also visible there.
		if _, err := b.AddMachine(rackIDs[i%racks], 100+i, 4); err != nil {
			t.Fatal(err)
		}
	}
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		qc, err := shardCluster(base, shards)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range base.Machines() {
			want := base.MustMachine(m)
			got := qc.MustMachine(m)
			if got.Rack != want.Rack {
				t.Errorf("shards=%d: machine %d rack %d, want %d", shards, m, got.Rack, want.Rack)
			}
			if got.Capacity != shardQuota(want.Capacity, shards) {
				t.Errorf("shards=%d: machine %d capacity %d, want quota of %d", shards, m, got.Capacity, want.Capacity)
			}
		}
	}

	// A shard's view of a placed block must preserve identity too: a
	// replica placed on machine 1 (rack 1) is on rack 1 in its shard.
	sp, err := NewShardedPlacement(base, 2, []BlockSpec{
		{ID: 1, Popularity: 5, MinReplicas: 2, MinRacks: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []topology.MachineID{0, 1} { // racks 0 and 1
		if err := sp.AddReplica(1, m); err != nil {
			t.Fatal(err)
		}
	}
	if got := sp.For(1).RackSpread(1); got != 2 {
		t.Fatalf("sharded rack spread = %d, want 2", got)
	}
}

func TestShardOfRangeAndStability(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8, 16} {
		counts := make([]int, shards)
		for id := BlockID(1); id <= 10000; id++ {
			s := ShardOf(id, shards)
			if s < 0 || s >= shards {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", id, shards, s)
			}
			if s != ShardOf(id, shards) {
				t.Fatalf("ShardOf(%d, %d) unstable", id, shards)
			}
			counts[s]++
		}
		// Hash partitioning should be roughly even: no shard may be
		// empty, and none may hold more than twice its fair share.
		fair := 10000 / shards
		for s, c := range counts {
			if c == 0 {
				t.Fatalf("shards=%d: shard %d empty", shards, s)
			}
			if shards > 1 && c > 2*fair {
				t.Fatalf("shards=%d: shard %d holds %d of 10000 (fair %d)", shards, s, c, fair)
			}
		}
	}
}

func TestShardOfSingleShard(t *testing.T) {
	for _, id := range []BlockID{0, 1, 42, 1 << 40} {
		if ShardOf(id, 1) != 0 || ShardOf(id, 0) != 0 || ShardOf(id, -3) != 0 {
			t.Fatalf("ShardOf(%d, <=1) must be 0", id)
		}
	}
}

func TestApportionLargestRemainder(t *testing.T) {
	cases := []struct {
		total   int
		weights []float64
		want    []int
	}{
		{total: 10, weights: []float64{1, 1}, want: []int{5, 5}},
		{total: 10, weights: []float64{3, 1}, want: []int{8, 2}}, // 7.5, 2.5 -> floors 7,2; leftover to the .5 tie at the low index
		{total: 7, weights: []float64{1, 1, 1}, want: []int{3, 2, 2}},
		{total: 0, weights: []float64{1, 2}, want: []int{0, 0}},
		{total: 5, weights: []float64{0, 0}, want: []int{3, 2}}, // zero weights: even split
		{total: 4, weights: []float64{-1, 2}, want: []int{0, 4}},
	}
	for _, c := range cases {
		got := apportion(c.total, c.weights)
		sum := 0
		for i := range got {
			sum += got[i]
			if got[i] != c.want[i] {
				t.Fatalf("apportion(%d, %v) = %v, want %v", c.total, c.weights, got, c.want)
			}
		}
		if c.total > 0 && sum != c.total {
			t.Fatalf("apportion(%d, %v) sums to %d", c.total, c.weights, sum)
		}
	}
}

func TestSplitCap(t *testing.T) {
	if splitCap(0, 4, 0) != 0 {
		t.Fatal("unbounded cap must stay unbounded")
	}
	total := 0
	for i := 0; i < 4; i++ {
		total += splitCap(10, 4, i)
	}
	if total != 10 {
		t.Fatalf("splitCap shares sum to %d, want 10", total)
	}
	if splitCap(10, 4, 0) != 3 || splitCap(10, 4, 2) != 2 {
		t.Fatal("remainder must go to low shard indexes")
	}
}

func TestShardQuota(t *testing.T) {
	if shardQuota(360, 1) != 360 {
		t.Fatal("single shard keeps exact capacity")
	}
	q := shardQuota(360, 8)
	if q < 360/8 {
		t.Fatalf("quota %d below even split", q)
	}
	// The overcommit must absorb binomial skew: ~50% above the even
	// split plus a floor.
	if q < 45+22 {
		t.Fatalf("quota %d has insufficient slack", q)
	}
}
