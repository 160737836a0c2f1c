// Package aurora is an implementation of "Aurora: Adaptive Block
// Replication in Distributed File Systems" (Zhang, Zhang, Leon-Garcia,
// Boutaba — IEEE ICDCS 2015): popularity-aware dynamic block replication
// and placement with constant-factor approximation guarantees.
//
// The package exposes three layers:
//
//   - The placement algorithms (Section III/IV of the paper): the
//     BP-Node and BP-Rack local searches (Algorithms 1-2), the optimal
//     Rep-Factor solver (Algorithm 3), greedy initial placement
//     (Algorithm 4) and the periodic optimizer (Algorithm 5, Optimize —
//     the one optimizer entry point), all operating on a Placement over
//     a Cluster.
//
//   - The Aurora framework (Section V): a periodic Controller that runs
//     one optimizer period per reconfiguration interval against a
//     Target — the namenode, whose usage monitor supplies the
//     popularities.
//
//   - A mini distributed file system (namenode/datanode/client over
//     TCP), the substrate equivalent of the paper's HDFS prototype, with
//     replica placement as a pluggable policy and the Aurora optimizer
//     built in; NameNodeConfig.Shards partitions each optimizer period
//     into hash shards. See dfs.go.
//
// The runnable examples walk each layer: go test -run Example -v .
package aurora

import (
	framework "aurora/internal/aurora"
	"aurora/internal/core"
	"aurora/internal/topology"
)

// Core model types. See the internal/core package for full
// documentation; these aliases are the supported public surface.
type (
	// BlockID identifies a block.
	BlockID = core.BlockID
	// BlockSpec declares a block's popularity and fault-tolerance
	// requirements (k_low and ρ in the paper's notation).
	BlockSpec = core.BlockSpec
	// Placement is the mutable replica assignment all algorithms
	// operate on.
	Placement = core.Placement
	// SearchOptions tune the local searches (epsilon-admissibility,
	// iteration caps, observers).
	SearchOptions = core.SearchOptions
	// SearchResult reports a local-search run.
	SearchResult = core.SearchResult
	// Op is one executed Move/Swap/RackMove/RackSwap operation.
	Op = core.Op
	// OpKind discriminates the four local-search operations.
	OpKind = core.OpKind
	// OptimizerOptions configure one Algorithm 5 period.
	OptimizerOptions = core.OptimizerOptions
	// OptimizeResult reports one Algorithm 5 period.
	OptimizeResult = core.OptimizeResult
	// RepFactorResult reports an Algorithm 3 run.
	RepFactorResult = core.RepFactorResult

	// Cluster is the immutable machine/rack topology.
	Cluster = topology.Cluster
	// MachineID identifies a machine.
	MachineID = topology.MachineID
	// RackID identifies a rack.
	RackID = topology.RackID

	// Controller periodically re-optimizes a Target (Section V).
	Controller = framework.Controller
	// ControllerConfig parameterizes a Controller.
	ControllerConfig = framework.Config
	// ControllerStats aggregates a Controller's activity.
	ControllerStats = framework.Stats
	// Target is anything the Controller can optimize.
	Target = framework.Target
)

// Operation kinds (Sections III.A and III.B).
const (
	OpMove     = core.OpMove
	OpSwap     = core.OpSwap
	OpRackMove = core.OpRackMove
	OpRackSwap = core.OpRackSwap
)

// NoMachine is the sentinel "no machine" value (e.g. "block not written
// by a task" in PlaceBlock).
const NoMachine = topology.NoMachine

// UniformCluster builds the homogeneous layout used throughout the
// paper: `racks` racks of `machinesPerRack` machines, each with the
// given block capacity and task slots.
func UniformCluster(racks, machinesPerRack, capacity, slots int) (*Cluster, error) {
	return topology.Uniform(racks, machinesPerRack, capacity, slots)
}

// NewPlacement creates an empty placement for the given blocks over the
// cluster.
func NewPlacement(cluster *Cluster, specs []BlockSpec) (*Placement, error) {
	return core.NewPlacement(cluster, specs)
}

// BalanceNodes runs Algorithm 1 (BP-Node local search): a
// 2-approximation for machine-level load balancing with fixed
// replication factors.
func BalanceNodes(p *Placement, opts SearchOptions) (SearchResult, error) {
	return core.BPNodeSearch(p, opts)
}

// BalanceRacks runs Algorithm 2 (BP-Rack local search): a
// 4-approximation honouring rack-level fault-tolerance.
func BalanceRacks(p *Placement, opts SearchOptions) (SearchResult, error) {
	return core.BPRackSearch(p, opts)
}

// ReplicationFactors runs Algorithm 3: the optimal levelling of
// per-replica popularity under a total replication budget.
func ReplicationFactors(specs []BlockSpec, budget, maxPerBlock, maxIterations int) (RepFactorResult, error) {
	return core.ComputeReplicationFactors(specs, budget, maxPerBlock, maxIterations)
}

// PlaceBlock runs Algorithm 4: greedy initial placement of k replicas,
// writer-local when the block was produced by a task.
func PlaceBlock(p *Placement, id BlockID, k int, writer MachineID) error {
	return core.InitialPlace(p, id, k, writer)
}

// Optimize runs one Algorithm 5 period: dynamic replication under the
// budget followed by admissible local search.
func Optimize(p *Placement, opts OptimizerOptions) (OptimizeResult, error) {
	return core.Optimize(p, opts)
}

// LowerBound returns a valid lower bound on the optimal maximum load.
func LowerBound(cluster *Cluster, specs []BlockSpec, factors map[BlockID]int) float64 {
	return core.LowerBound(cluster, specs, factors)
}

// NewController starts a periodic optimizer over the target.
func NewController(target Target, cfg ControllerConfig) (*Controller, error) {
	return framework.NewController(target, cfg)
}
