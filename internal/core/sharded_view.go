package core

import (
	"slices"

	"aurora/internal/topology"
)

// This file is the routed view of a ShardedPlacement: the per-block
// Placement API forwarded through For(id), plus the per-machine and
// whole-namespace aggregates the namenode's metadata paths need. Every
// wrapper is a thin fan-out — no per-block state is duplicated outside
// the owning shard — and with one shard each call is exactly the
// underlying Placement call, preserving the unsharded behaviour
// bit-for-bit.

// Spec returns block id's registered spec from its shard.
func (sp *ShardedPlacement) Spec(id BlockID) (BlockSpec, error) { return sp.For(id).Spec(id) }

// Replicas lists the machines holding block id.
func (sp *ShardedPlacement) Replicas(id BlockID) []topology.MachineID {
	return sp.For(id).Replicas(id)
}

// ReplicaCount returns k_i for block id (zero for unknown blocks).
func (sp *ShardedPlacement) ReplicaCount(id BlockID) int { return sp.For(id).ReplicaCount(id) }

// RackSpread reports how many distinct racks hold block id.
func (sp *ShardedPlacement) RackSpread(id BlockID) int { return sp.For(id).RackSpread(id) }

// AddReplica adds a replica of block id on machine m in its shard.
func (sp *ShardedPlacement) AddReplica(id BlockID, m topology.MachineID) error {
	return sp.For(id).AddReplica(id, m)
}

// SetPopularity updates block id's popularity in its shard.
func (sp *ShardedPlacement) SetPopularity(id BlockID, pop float64) error {
	return sp.For(id).SetPopularity(id, pop)
}

// Blocks lists every registered block across all shards in ascending ID
// order — the same order the unsharded Placement reports.
func (sp *ShardedPlacement) Blocks() []BlockID {
	if len(sp.shards) == 1 {
		return sp.shards[0].Blocks()
	}
	buf := make([]BlockID, 0, sp.NumBlocks())
	for _, p := range sp.shards {
		buf = p.AppendBlocks(buf)
	}
	slices.Sort(buf)
	return buf
}

// BlocksOn lists the blocks stored on machine m across all shards in
// ascending ID order.
func (sp *ShardedPlacement) BlocksOn(m topology.MachineID) []BlockID {
	if len(sp.shards) == 1 {
		return sp.shards[0].BlocksOn(m)
	}
	var buf []BlockID
	for _, p := range sp.shards {
		buf = p.AppendBlocksOn(m, buf)
	}
	slices.Sort(buf)
	return buf
}

// Load reports machine m's load aggregated across shards (the global
// per-machine load the paper's objective is defined over).
func (sp *ShardedPlacement) Load(m topology.MachineID) float64 {
	if len(sp.shards) == 1 {
		return sp.shards[0].Load(m)
	}
	l := 0.0
	for _, p := range sp.shards {
		l += p.Load(m)
	}
	return l
}

// FreeCapacity reports machine m's residual physical capacity: its base
// capacity minus replicas stored across all shards. Individual shards
// additionally enforce their own quota (see shardQuota), which the
// owning Placement checks on every add.
func (sp *ShardedPlacement) FreeCapacity(m topology.MachineID) int {
	if len(sp.shards) == 1 {
		return sp.shards[0].FreeCapacity(m)
	}
	return sp.base.MustMachine(m).Capacity - sp.Used(m)
}

// CheckFeasible verifies the paper's feasibility constraints shard by
// shard.
func (sp *ShardedPlacement) CheckFeasible() error {
	for _, p := range sp.shards {
		if err := p.CheckFeasible(); err != nil {
			return err
		}
	}
	return nil
}

// TrackChanges turns on change recording in every shard.
func (sp *ShardedPlacement) TrackChanges() {
	for _, p := range sp.shards {
		p.TrackChanges()
	}
}

// DrainChanges appends every shard's recorded blocks to buf and forgets
// them.
func (sp *ShardedPlacement) DrainChanges(buf []BlockID) []BlockID {
	for _, p := range sp.shards {
		buf = p.DrainChanges(buf)
	}
	return buf
}
