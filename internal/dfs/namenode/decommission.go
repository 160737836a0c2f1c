package namenode

import (
	"fmt"
	"time"

	"aurora/internal/core"
	"aurora/internal/dfs/proto"
	"aurora/internal/topology"
)

// Decommission starts draining a datanode: replicas it holds are copied
// to other machines first, then released, so availability and rack
// spread never dip (unlike a crash, which loses a replica before
// re-replication starts). Once the node stores nothing it is reported
// decommissioned and can be stopped safely. The drain is driven by the
// reconcile loop; poll ClusterInfo/fsck or WaitDecommissioned for
// completion.
func (nn *NameNode) Decommission(id proto.NodeID) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if !nn.ready {
		return ErrNotReady
	}
	node, err := nn.nodeLocked(id)
	if err != nil {
		return err
	}
	if !node.alive {
		return fmt.Errorf("%w: node %d is dead", ErrBadRequest, id)
	}
	// Refuse drains that cannot complete: every block on the node must
	// be re-homeable on the remaining live, non-draining machines.
	live := 0
	for _, n := range nn.nodes {
		if n.alive && !n.draining && n.id != id {
			live++
		}
	}
	m := topology.MachineID(id)
	for _, b := range nn.placement.BlocksOn(m) {
		spec, err := nn.placement.Spec(b)
		if err != nil {
			continue
		}
		if spec.MinReplicas > live {
			return fmt.Errorf("%w: block %d needs %d replicas but only %d nodes would remain",
				ErrBadRequest, b, spec.MinReplicas, live)
		}
	}
	node.draining = true
	nn.markDirtyLocked()
	return nil
}

// WaitDecommissioned polls until the node finished draining or the
// timeout elapses.
func (nn *NameNode) WaitDecommissioned(id proto.NodeID, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		nn.mu.Lock()
		node, err := nn.nodeLocked(id)
		done := err == nil && node.decommissioned
		nn.mu.Unlock()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("namenode: node %d not decommissioned after %v", id, timeout)
}

// drainLocked advances every draining node: desired copies on the node
// are released once the block is safe without them, and the node flips
// to decommissioned when empty. Runs from the reconcile loop, after the
// heal pass has given those blocks replacement homes.
func (nn *NameNode) drainLocked() {
	for _, node := range nn.nodes {
		if !node.draining || node.decommissioned || !node.alive {
			continue
		}
		m := topology.MachineID(node.id)
		for _, id := range nn.placement.BlocksOn(m) {
			nn.releaseDrainedLocked(id, m)
		}
		// Decommissioned once the node neither is desired to hold
		// anything nor physically holds anything.
		if nn.placement.Used(m) == 0 && len(node.holds) == 0 {
			node.decommissioned = true
		}
	}
}

// releaseDrainedLocked drops draining machine m's copy of block id from
// the desired state — make-before-break, the ordering a drain adds to
// healLocked: heal chose the replacements, and this waits until
// MinReplicas copies are confirmed on healthy machines and the spread
// holds without m. The convergence pass then deletes the physical copy.
func (nn *NameNode) releaseDrainedLocked(id core.BlockID, m topology.MachineID) {
	p := nn.placement
	spec, err := p.Spec(id)
	if err != nil || !p.RemovalKeepsSpread(id, m) {
		return
	}
	confirmed := 0
	for _, h := range p.Replicas(id) {
		if hn := nn.nodes[h]; hn.alive && !hn.draining && nn.confirmed[proto.BlockID(id)][hn.id] {
			confirmed++
		}
	}
	if confirmed < spec.MinReplicas {
		return // replacements chosen but data not copied yet; wait
	}
	//lint:ignore errcheck m was just enumerated from BlocksOn; removal cannot fail
	_ = p.RemoveReplica(id, m)
	nn.markDirtyLocked()
}
