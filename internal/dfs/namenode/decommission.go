package namenode

import (
	"fmt"
	"time"

	"aurora/internal/dfs/proto"
	"aurora/internal/topology"
)

// Decommission starts draining a datanode. A draining machine is as
// unhealthy as a dead one to the desired placement: the reconcile walk's
// heal moves each of its desired replicas to a healthy machine at once,
// keeping the block's replica count. Its copies stay readable and are
// deleted like any surplus copy, only once the new desired set is
// feasible with MinReplicas of its replicas confirmed, so availability
// and rack spread never dip (unlike a crash, which loses a replica
// before re-replication starts). Once the node stores nothing it is
// reported decommissioned and can be stopped safely; poll
// ClusterInfo/fsck or WaitDecommissioned for completion.
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
	for _, b := range nn.placement.BlocksOn(topology.MachineID(id)) {
		if spec, err := nn.placement.Spec(b); err == nil && spec.MinReplicas > live {
			return fmt.Errorf("%w: block %d needs %d replicas but only %d nodes would remain",
				ErrBadRequest, b, spec.MinReplicas, live)
		}
	}
	node.draining = true
	nn.unsettleNodeLocked(node)
	nn.markDirtyLocked()
	return nil
}

// WaitDecommissioned polls until the node finished draining or the
// timeout elapses.
func (nn *NameNode) WaitDecommissioned(id proto.NodeID, timeout time.Duration) error {
	var err error
	if poll(timeout, 10*time.Millisecond, func() bool {
		nn.mu.Lock()
		defer nn.mu.Unlock()
		var node *nodeState
		node, err = nn.nodeLocked(id)
		return err != nil || node.decommissioned
	}) {
		return err
	}
	return fmt.Errorf("namenode: node %d not decommissioned after %v", id, timeout)
}
