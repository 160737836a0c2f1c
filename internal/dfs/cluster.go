// Package dfs boots the mini distributed file system in one process: a
// namenode and its datanodes on loopback, wired the same way for every
// test, benchmark and testbed that needs a whole cluster.
package dfs

import (
	"errors"
	"fmt"
	"time"

	"aurora/internal/dfs/datanode"
	"aurora/internal/dfs/namenode"
	"aurora/internal/dfs/proto"
	"aurora/internal/faultinject"
)

// Spec describes an in-process cluster.
type Spec struct {
	// Nodes is the number of datanodes.
	Nodes int
	// NameNode configures the namenode; ExpectedNodes defaults to Nodes.
	NameNode namenode.Config
	// DataNode is the template for every datanode. Start fills in
	// NameNodeAddr and puts node i on rack i % NameNode.Racks.
	DataNode datanode.Config
	// PerNode, when set, edits node i's config last (e.g. a disk store).
	PerNode func(i int, cfg *datanode.Config)
	// Faults, when set, routes node i's RPCs and streams through the
	// injector as its node i, and registers the node with a corrupter
	// that damages the named block, or any stored block for block 0.
	Faults *faultinject.Injector
}

// Cluster is a running namenode and its datanodes; DataNodes[i]
// registered as NodeID i.
type Cluster struct {
	NameNode  *namenode.NameNode
	DataNodes []*datanode.DataNode
}

// Start boots the namenode, then the datanodes one at a time so that
// node i is NodeID i and injector node i, and waits until the namenode
// is ready. On any error it closes everything it started.
func Start(s Spec) (*Cluster, error) {
	if s.NameNode.ExpectedNodes == 0 {
		s.NameNode.ExpectedNodes = s.Nodes
	}
	nn, err := namenode.Start(s.NameNode)
	if err != nil {
		return nil, fmt.Errorf("dfs: start namenode: %w", err)
	}
	c := &Cluster{NameNode: nn}
	for i := 0; i < s.Nodes && err == nil; i++ {
		err = c.startDataNode(s, i)
	}
	if err == nil {
		err = nn.WaitReady(10 * time.Second)
	}
	if err != nil {
		//lint:ignore errcheck the boot error is the one to report
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

func (c *Cluster) startDataNode(s Spec, i int) error {
	cfg := s.DataNode
	cfg.NameNodeAddr = c.NameNode.Addr()
	cfg.Rack = i % max(s.NameNode.Racks, 1)
	if s.Faults != nil {
		cfg.Call = s.Faults.CallFrom(i)
		cfg.OpenStream = s.Faults.StreamFrom(i)
	}
	if s.PerNode != nil {
		s.PerNode(i, &cfg)
	}
	dn, err := datanode.Start(cfg)
	if err != nil {
		return fmt.Errorf("dfs: start datanode %d: %w", i, err)
	}
	c.DataNodes = append(c.DataNodes, dn)
	if s.Faults != nil {
		s.Faults.RegisterNode(i, dn.Addr())
		s.Faults.RegisterCorrupter(i, func(id proto.BlockID) error {
			if id == 0 {
				blocks := dn.Blocks()
				if len(blocks) == 0 {
					return fmt.Errorf("dfs: node %d stores no blocks to corrupt", i)
				}
				id = blocks[0]
			}
			return dn.CorruptBlock(id)
		})
	}
	return nil
}

// Close stops the datanodes, then the namenode.
func (c *Cluster) Close() error {
	var errs []error
	for _, dn := range c.DataNodes {
		errs = append(errs, dn.Close())
	}
	return errors.Join(append(errs, c.NameNode.Close())...)
}
