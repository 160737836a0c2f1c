// Package sim is the trace-driven cluster simulator used for the
// paper's production-scale experiments (Section VI.A): jobs arrive from
// a trace and their map tasks run on the job replay of internal/sched
// against a simulated block placement, and a placement policy
// reconfigures the layout every hour-long epoch using the usage
// monitor's popularity observations.
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
// Algorithm 5 periodic optimization. Each epoch is one
// core.OptimizePartitioned period, the one the live namenode runs: with
// Shards >= 2 it partitions the layout by block hash, runs one Algorithm
// 5 period per shard concurrently plus the cross-shard budget rebalance,
// and replays the result onto the simulator's placement. The
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
	res, err := core.OptimizePartitioned(p, a.Shards, a.shares, core.ShardedOptimizerOptions{Opts: opts})
	if err != nil {
		return rc, fmt.Errorf("sim: aurora reconfigure: %w", err)
	}
	a.shares = res.NextShares
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
	return Reconfig{Replications: res.Replications, Evictions: res.Evictions}, nil
}

var (
	_ Policy = (*HDFSPolicy)(nil)
	_ Policy = (*AuroraPolicy)(nil)
	_ Policy = (*ScarlettPolicy)(nil)
)
