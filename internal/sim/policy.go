// Package sim is the trace-driven, discrete-event cluster simulator used
// for the paper's production-scale experiments (Section VI.A): jobs
// arrive from a trace, map tasks occupy machine slots with
// locality-dependent durations, and a placement policy reconfigures the
// block layout at fixed epochs using the usage monitor's popularity
// observations.
package sim

import (
	"fmt"
	"math/rand/v2"

	"aurora/internal/baseline"
	"aurora/internal/core"
	"aurora/internal/topology"
)

// Reconfig reports what a policy did during one reconfiguration epoch.
type Reconfig struct {
	// Migrations is the number of block transfers caused by Move/Swap
	// rebalancing (a swap counts as two).
	Migrations int
	// Replications is the number of new replicas copied.
	Replications int
	// Evictions is the number of replicas dropped by lazy deletion.
	Evictions int
}

// Policy is a block placement strategy under simulation: it decides the
// initial placement of every block and may reconfigure the layout each
// epoch. The placement's block popularities are refreshed from the usage
// monitor before Reconfigure is called.
type Policy interface {
	Name() string
	PlaceInitial(p *core.Placement, id core.BlockID, writer topology.MachineID) error
	Reconfigure(p *core.Placement) (Reconfig, error)
}

// HDFSPolicy is the static random baseline: default HDFS placement, no
// reconfiguration ever.
type HDFSPolicy struct {
	place *baseline.HDFSPolicy
}

// NewHDFSPolicy builds the baseline with a deterministic seed.
func NewHDFSPolicy(seed uint64) (*HDFSPolicy, error) {
	h, err := baseline.NewHDFSPolicy(rand.New(rand.NewPCG(seed, seed^0x1234567)))
	if err != nil {
		return nil, err
	}
	return &HDFSPolicy{place: h}, nil
}

// Name implements Policy.
func (h *HDFSPolicy) Name() string { return "hdfs" }

// PlaceInitial implements Policy.
func (h *HDFSPolicy) PlaceInitial(p *core.Placement, id core.BlockID, writer topology.MachineID) error {
	spec, err := p.Spec(id)
	if err != nil {
		return err
	}
	return h.place.Place(p, id, spec.MinReplicas, writer)
}

// Reconfigure implements Policy. Default HDFS never reconfigures.
func (h *HDFSPolicy) Reconfigure(*core.Placement) (Reconfig, error) {
	return Reconfig{}, nil
}

// AuroraPolicy runs the paper's system: Algorithm 4 initial placement and
// Algorithm 5 periodic optimization. With Shards >= 2 it optimizes the
// way the namenode's partitioned block map does: each epoch it shards
// the current layout by block hash, runs one Algorithm 5 period per shard
// concurrently plus the cross-shard budget rebalance, and replays the
// resulting layout delta onto the simulator's shared placement. The
// budget-share state carries across epochs, so the rebalance pass steers
// budget exactly as the live namenode's does. Initial placement is
// global either way.
type AuroraPolicy struct {
	// Shards is the hash-partition count; values below 2 run one
	// core.Optimize period over the whole placement.
	Shards int
	// Opts configure each Algorithm 5 period. OnOp/OnReplicate/OnEvict
	// observers are overwritten by the policy for accounting.
	Opts core.OptimizerOptions

	shares []int // cross-shard budget apportionment carried across epochs
}

// Name implements Policy.
func (a *AuroraPolicy) Name() string {
	if a.Shards < 2 {
		return "aurora"
	}
	return fmt.Sprintf("aurora-%dshard", a.Shards)
}

// PlaceInitial implements Policy.
func (a *AuroraPolicy) PlaceInitial(p *core.Placement, id core.BlockID, writer topology.MachineID) error {
	spec, err := p.Spec(id)
	if err != nil {
		return err
	}
	return core.InitialPlace(p, id, spec.MinReplicas, writer)
}

// Reconfigure implements Policy.
func (a *AuroraPolicy) Reconfigure(p *core.Placement) (Reconfig, error) {
	var rc Reconfig
	opts := a.Opts
	opts.OnOp = func(o core.Op) { rc.Migrations += o.BlockMovements() }
	opts.OnReplicate = func(core.BlockID, topology.MachineID, topology.MachineID) { rc.Replications++ }
	opts.OnEvict = func(core.BlockID, topology.MachineID) { rc.Evictions++ }
	if a.Shards < 2 {
		if _, err := core.Optimize(p, opts); err != nil {
			return rc, fmt.Errorf("sim: aurora reconfigure: %w", err)
		}
		return rc, nil
	}

	ids := p.Blocks()
	specs := make([]core.BlockSpec, 0, len(ids))
	for _, id := range ids {
		spec, err := p.Spec(id)
		if err != nil {
			return rc, err
		}
		specs = append(specs, spec)
	}
	sp, err := core.NewShardedPlacement(p.Cluster(), a.Shards, specs)
	if err != nil {
		return rc, fmt.Errorf("sim: sharded aurora reconfigure: %w", err)
	}
	for _, id := range ids {
		for _, m := range p.Replicas(id) {
			if err := sp.AddReplica(id, m); err != nil {
				return rc, fmt.Errorf("sim: sharded aurora reconfigure: seed replica: %w", err)
			}
		}
	}
	sp.SetShares(a.shares)

	res, err := core.OptimizeSharded(sp, core.ShardedOptimizerOptions{Opts: opts})
	if err != nil {
		return rc, fmt.Errorf("sim: sharded aurora reconfigure: %w", err)
	}
	a.shares = res.NextShares

	// Replay the layout delta onto the shared placement: all removals
	// first so machine capacity freed by migrations is available before
	// the additions that consumed it in the sharded run land.
	type add struct {
		id core.BlockID
		m  topology.MachineID
	}
	var adds []add
	for _, id := range ids {
		before := p.Replicas(id)
		after := sp.Replicas(id) // both ascending; set-diff by merge walk
		i, j := 0, 0
		for i < len(before) || j < len(after) {
			switch {
			case j == len(after) || (i < len(before) && before[i] < after[j]):
				if err := p.RemoveReplica(id, before[i]); err != nil {
					return rc, fmt.Errorf("sim: sharded aurora reconfigure: apply removal: %w", err)
				}
				i++
			case i == len(before) || after[j] < before[i]:
				adds = append(adds, add{id, after[j]})
				j++
			default:
				i, j = i+1, j+1
			}
		}
	}
	for _, ad := range adds {
		if err := p.AddReplica(ad.id, ad.m); err != nil {
			return rc, fmt.Errorf("sim: sharded aurora reconfigure: apply addition: %w", err)
		}
	}
	return rc, nil
}

// ScarlettPolicy is the dynamic-replication baseline: random initial
// placement plus Scarlett's replication heuristic each epoch, with no
// Move/Swap rebalancing.
type ScarlettPolicy struct {
	place    *baseline.HDFSPolicy
	scarlett *baseline.Scarlett
}

// NewScarlettPolicy builds the baseline. budget is β, shared with Aurora
// for fair comparison.
func NewScarlettPolicy(seed uint64, scarlett *baseline.Scarlett) (*ScarlettPolicy, error) {
	h, err := baseline.NewHDFSPolicy(rand.New(rand.NewPCG(seed, seed^0x7654321)))
	if err != nil {
		return nil, err
	}
	if scarlett == nil {
		return nil, fmt.Errorf("sim: nil scarlett config")
	}
	return &ScarlettPolicy{place: h, scarlett: scarlett}, nil
}

// Name implements Policy.
func (s *ScarlettPolicy) Name() string { return "scarlett" }

// PlaceInitial implements Policy.
func (s *ScarlettPolicy) PlaceInitial(p *core.Placement, id core.BlockID, writer topology.MachineID) error {
	spec, err := p.Spec(id)
	if err != nil {
		return err
	}
	return s.place.Place(p, id, spec.MinReplicas, writer)
}

// Reconfigure implements Policy.
func (s *ScarlettPolicy) Reconfigure(p *core.Placement) (Reconfig, error) {
	res, err := s.scarlett.Rebalance(p)
	if err != nil {
		return Reconfig{}, fmt.Errorf("sim: scarlett reconfigure: %w", err)
	}
	return Reconfig{Replications: res.Replications}, nil
}

var (
	_ Policy = (*HDFSPolicy)(nil)
	_ Policy = (*AuroraPolicy)(nil)
	_ Policy = (*ScarlettPolicy)(nil)
)
