package dfs_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"aurora/internal/dfs"
	"aurora/internal/dfs/client"
	"aurora/internal/dfs/datanode"
	"aurora/internal/dfs/namenode"
)

// TestClientFailsOverFromCorruptReplica flips bytes on one replica and
// verifies the client's checksum check routes around it.
func TestClientFailsOverFromCorruptReplica(t *testing.T) {
	tc := startCluster(t, 4)
	c := client.New(tc.NameNode.Addr(), client.WithBlockSize(1<<12), client.WithSeed(31))
	data := payload(2048, 13)
	if err := c.Create("/checked", data, 3); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := tc.NameNode.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("WaitConverged: %v", err)
	}
	locs, err := c.Locations("/checked")
	if err != nil {
		t.Fatalf("Locations: %v", err)
	}
	block := locs[0].Block
	// Corrupt the replica on every datanode except one.
	intact := 0
	for _, dn := range tc.DataNodes {
		if !dn.HasBlock(block) {
			continue
		}
		if intact == 0 {
			intact++
			continue // leave one good copy
		}
		if err := dn.CorruptBlock(block); err != nil {
			t.Fatalf("CorruptBlock: %v", err)
		}
	}
	// Reads must still return the correct bytes (from the good replica)
	// regardless of which replica the client tries first.
	for i := 0; i < 10; i++ {
		got, err := c.Read("/checked")
		if err != nil {
			t.Fatalf("Read attempt %d: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("Read attempt %d returned wrong bytes", i)
		}
	}
}

// TestDiskBackedDataNodes runs a whole cluster on disk-backed stores.
func TestDiskBackedDataNodes(t *testing.T) {
	tcNN := startCluster(t, 4, func(s *dfs.Spec) {
		s.DataNode.CapacityBlocks = 64
		s.PerNode = func(_ int, cfg *datanode.Config) { cfg.DataDir = t.TempDir() }
	}).NameNode
	c := client.New(tcNN.Addr(), client.WithBlockSize(1<<12), client.WithSeed(32))
	data := payload(3*(1<<12), 17)
	if err := c.Create("/ondisk", data, 3); err != nil {
		t.Fatalf("Create: %v", err)
	}
	got, err := c.Read("/ondisk")
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("disk-backed round trip mismatch")
	}
	if err := tcNN.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("WaitConverged: %v", err)
	}
	// Replication transfers must deliver identical bytes: grow
	// replication so inter-datanode streamed transfers happen.
	if err := c.SetReplication("/ondisk", 4); err != nil {
		t.Fatalf("SetReplication: %v", err)
	}
	if err := tcNN.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("WaitConverged after grow: %v", err)
	}
	got, err = c.Read("/ondisk")
	if err != nil {
		t.Fatalf("Read after inter-datanode replication: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("inter-datanode replication corrupted data")
	}
}

// TestFsckHealthReport exercises the health report across states: fresh
// cluster, converged dataset, and a degraded cluster after a node death.
func TestFsckHealthReport(t *testing.T) {
	tc := startCluster(t, 4)
	c := client.New(tc.NameNode.Addr(), client.WithBlockSize(1<<12), client.WithSeed(33))
	h, err := c.Fsck()
	if err != nil {
		t.Fatalf("Fsck: %v", err)
	}
	if h.Files != 0 || h.Blocks != 0 || !h.Healthy {
		t.Errorf("empty cluster health = %+v, want healthy and empty", h)
	}
	if err := c.Create("/health", payload(2*(1<<12), 21), 3); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := tc.NameNode.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("WaitConverged: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err = c.Fsck()
		if err != nil {
			t.Fatalf("Fsck: %v", err)
		}
		if h.Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never became healthy: %+v", h)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if h.Files != 1 || h.Blocks != 2 || h.DesiredReplicas != 6 || h.ConfirmedReplicas != 6 {
		t.Errorf("converged health = %+v, want 1 file / 2 blocks / 6+6 replicas", h)
	}
	// Kill a node: the report must show degradation until repair.
	if err := tc.DataNodes[0].Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	sawDead := false
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		h, err = c.Fsck()
		if err != nil {
			t.Fatalf("Fsck: %v", err)
		}
		if h.DeadNodes == 1 {
			sawDead = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !sawDead {
		t.Error("fsck never reported the dead datanode")
	}
}

// TestGracefulDecommission drains a datanode: data stays available
// throughout, fault tolerance never dips, and the node empties out.
func TestGracefulDecommission(t *testing.T) {
	tc := startCluster(t, 5)
	c := client.New(tc.NameNode.Addr(), client.WithBlockSize(1<<12), client.WithSeed(41))
	data := payload(4*(1<<12), 23)
	if err := c.Create("/drain", data, 3); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := tc.NameNode.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("WaitConverged: %v", err)
	}
	// Pick a datanode that actually holds replicas.
	victim := -1
	for i, dn := range tc.DataNodes {
		if dn.NumBlocks() > 0 {
			victim = i
			break
		}
	}
	if victim == -1 {
		t.Fatal("no datanode holds blocks")
	}
	dn := tc.DataNodes[victim]
	if err := c.Decommission(dn.ID()); err != nil {
		t.Fatalf("Decommission: %v", err)
	}
	// Reads must succeed the whole time the drain runs.
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			if got, err := c.Read("/drain"); err != nil || !bytes.Equal(got, data) {
				done <- fmt.Errorf("read during drain: %v", err)
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	if err := tc.NameNode.WaitDecommissioned(dn.ID(), 15*time.Second); err != nil {
		t.Fatalf("WaitDecommissioned: %v", err)
	}
	select {
	case err := <-done:
		t.Fatalf("%v", err)
	default:
		close(done)
	}
	// The node is empty and reported decommissioned.
	deadline := time.Now().Add(5 * time.Second)
	for dn.NumBlocks() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("drained node still stores %d blocks", dn.NumBlocks())
		}
		time.Sleep(25 * time.Millisecond)
	}
	nodes, err := c.ClusterInfo()
	if err != nil {
		t.Fatalf("ClusterInfo: %v", err)
	}
	if !nodes[dn.ID()].Decommissioned {
		t.Errorf("node %d not reported decommissioned: %+v", dn.ID(), nodes[dn.ID()])
	}
	// Fault tolerance fully restored on the remaining nodes.
	if err := tc.NameNode.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("WaitConverged after drain: %v", err)
	}
	locs, err := c.Locations("/drain")
	if err != nil {
		t.Fatalf("Locations: %v", err)
	}
	for _, l := range locs {
		if len(l.Addresses) < 3 {
			t.Errorf("block %d has %d replicas after drain, want 3", l.Block, len(l.Addresses))
		}
		for _, a := range l.Addresses {
			if a == dn.Addr() {
				t.Errorf("block %d still served from drained node", l.Block)
			}
		}
	}
	// New writes never land on the drained node.
	if err := c.Create("/post-drain", payload(1<<12, 29), 3); err != nil {
		t.Fatalf("Create after drain: %v", err)
	}
	locs, err = c.Locations("/post-drain")
	if err != nil {
		t.Fatalf("Locations: %v", err)
	}
	for _, a := range locs[0].Addresses {
		if a == dn.Addr() {
			t.Error("new block placed on decommissioned node")
		}
	}
}

// TestDecommissionRefusedWhenImpossible rejects drains that would leave
// too few machines for the replication factor.
func TestDecommissionRefusedWhenImpossible(t *testing.T) {
	tc := startCluster(t, 3) // 3 nodes, k=3: no node can leave
	c := client.New(tc.NameNode.Addr(), client.WithBlockSize(1<<12), client.WithSeed(43))
	if err := c.Create("/pinned", payload(1<<12, 31), 3); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := tc.NameNode.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("WaitConverged: %v", err)
	}
	if err := c.Decommission(tc.DataNodes[0].ID()); err == nil {
		t.Error("impossible decommission accepted")
	}
}

// TestDataNodeRestartRejoins restarts a disk-backed datanode on the same
// address: it rejoins under its old identity and its surviving blocks
// re-confirm from the block report.
func TestDataNodeRestartRejoins(t *testing.T) {
	dir := t.TempDir()
	tc := startCluster(t, 4, func(s *dfs.Spec) {
		s.DataNode = datanode.Config{CapacityBlocks: 64, HeartbeatInterval: 40 * time.Millisecond}
		s.PerNode = func(i int, cfg *datanode.Config) {
			if i == 0 {
				cfg.DataDir = dir
			}
		}
	})
	nn := tc.NameNode
	fixedAddr := tc.DataNodes[0].Addr()
	c := client.New(nn.Addr(), client.WithBlockSize(1<<12), client.WithSeed(44))
	data := payload(2*(1<<12), 37)
	if err := c.Create("/survivor", data, 3); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := nn.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("WaitConverged: %v", err)
	}
	stored := tc.DataNodes[0].NumBlocks()

	// Restart node 0 quickly on the same address with the same disk.
	oldID := tc.DataNodes[0].ID()
	if err := tc.DataNodes[0].Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reborn, err := datanode.Start(datanode.Config{
		NameNodeAddr:      nn.Addr(),
		Rack:              0,
		CapacityBlocks:    64,
		HeartbeatInterval: 40 * time.Millisecond,
		DataDir:           dir,
		ListenAddr:        fixedAddr,
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	tc.DataNodes[0] = reborn
	if reborn.ID() != oldID {
		t.Errorf("rejoined with ID %d, want old identity %d", reborn.ID(), oldID)
	}
	if got := reborn.NumBlocks(); got != stored {
		t.Errorf("disk store lost blocks across restart: %d vs %d", got, stored)
	}
	if err := nn.WaitConverged(10 * time.Second); err != nil {
		t.Fatalf("WaitConverged after restart: %v", err)
	}
	got, err := c.Read("/survivor")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Read after restart: %v", err)
	}
	// A stranger on an unknown address is still rejected post-formation.
	if _, err := datanode.Start(datanode.Config{
		NameNodeAddr:      nn.Addr(),
		Rack:              0,
		CapacityBlocks:    64,
		HeartbeatInterval: 40 * time.Millisecond,
	}); err == nil {
		t.Error("unknown datanode joined a formed cluster")
	}
}

// TestNameNodeRestartWithFsImage restarts the metadata service from its
// checkpoint: datanodes keep heartbeating blindly, the restored namenode
// picks them back up, and all files remain readable.
func TestNameNodeRestartWithFsImage(t *testing.T) {
	fsimage := filepath.Join(t.TempDir(), "fsimage.json")
	tc := startCluster(t, 4, func(s *dfs.Spec) {
		s.NameNode.DeadTimeout = 2 * time.Second
		s.NameNode.FsImagePath = fsimage
		s.DataNode.CapacityBlocks = 64
	})
	// The restarted namenode takes over this one's address so the
	// blindly-heartbeating datanodes find it.
	nn, addr := tc.NameNode, tc.NameNode.Addr()
	c := client.New(addr, client.WithBlockSize(1<<12), client.WithSeed(55))
	data := payload(3*(1<<12), 47)
	if err := c.Create("/persist/me", data, 3); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := nn.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("WaitConverged: %v", err)
	}
	// Stop the namenode (saves the checkpoint); datanodes keep running.
	if err := nn.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Restart on the same address from the checkpoint.
	nn2, err := namenode.Start(namenode.Config{
		ExpectedNodes:     99, // overwritten by the fsimage
		Racks:             2,
		BlockSize:         1 << 12,
		DeadTimeout:       2 * time.Second,
		ReconcileInterval: 25 * time.Millisecond,
		FsImagePath:       fsimage,
		ListenAddr:        addr,
		Seed:              7,
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(func() { _ = nn2.Close() })
	if !nn2.Ready() {
		t.Fatal("restored namenode not immediately ready")
	}
	// Metadata restored.
	info, err := c.Stat("/persist/me")
	if err != nil {
		t.Fatalf("Stat after restart: %v", err)
	}
	if info.Blocks != 3 || !info.Complete {
		t.Errorf("restored metadata wrong: %+v", info)
	}
	// Confirmations rebuild from heartbeats; reads resume.
	if err := nn2.WaitConverged(10 * time.Second); err != nil {
		t.Fatalf("WaitConverged after restart: %v", err)
	}
	got, err := c.Read("/persist/me")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Read after restart: %v", err)
	}
	// And writes keep working with non-colliding block IDs.
	if err := c.Create("/persist/more", payload(1<<12, 53), 3); err != nil {
		t.Fatalf("Create after restart: %v", err)
	}
	if _, err := c.Read("/persist/more"); err != nil {
		t.Fatalf("Read new file: %v", err)
	}
}

// TestFreshNameNodeDeletesNothingOnOldDisks starts a namenode without
// its image — a lost image, a mistyped -fsimage path — over the disks of
// a cluster that held data, with the same Seed as the old namenode. The
// old datanodes are bound to the old namespace, so each one's
// registration is refused with a namespace mismatch, and every block
// file stays on disk.
func TestFreshNameNodeDeletesNothingOnOldDisks(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	hb := 20 * time.Millisecond
	tc := startCluster(t, len(dirs), func(s *dfs.Spec) {
		s.DataNode = datanode.Config{CapacityBlocks: 64, HeartbeatInterval: hb}
		s.PerNode = func(i int, cfg *datanode.Config) { cfg.DataDir = dirs[i] }
	})
	c := client.New(tc.NameNode.Addr(), client.WithBlockSize(1<<12), client.WithSeed(61))
	for i := 0; i < 3; i++ {
		if err := c.Create(fmt.Sprintf("/old/f%d", i), payload(2*(1<<12), byte(i)), 3); err != nil {
			t.Fatalf("Create: %v", err)
		}
	}
	if err := tc.NameNode.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("WaitConverged: %v", err)
	}
	if err := tc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	blockFiles := func() []string {
		var all []string
		for _, dir := range dirs {
			files, err := filepath.Glob(filepath.Join(dir, "blk_*"))
			if err != nil {
				t.Fatalf("Glob: %v", err)
			}
			all = append(all, files...)
		}
		return all
	}
	before := blockFiles()
	if len(before) != 18 {
		t.Fatalf("%d block files after writing 3 two-block files at 3 replicas, want 18", len(before))
	}

	nn, err := namenode.Start(namenode.Config{ExpectedNodes: len(dirs), Racks: 2, ReconcileInterval: 10 * time.Millisecond, Seed: 7})
	if err != nil {
		t.Fatalf("namenode.Start: %v", err)
	}
	t.Cleanup(func() { _ = nn.Close() })
	for i, dir := range dirs {
		dn, err := datanode.Start(datanode.Config{
			NameNodeAddr: nn.Addr(), Rack: i % 2, CapacityBlocks: 64, HeartbeatInterval: hb, DataDir: dir,
		})
		if err == nil {
			t.Cleanup(func() { _ = dn.Close() })
		}
		if err == nil || !strings.Contains(err.Error(), "namespace mismatch") {
			t.Errorf("datanode %d on an old disk: err = %v, want a namespace mismatch", i, err)
		}
	}
	time.Sleep(20 * hb) // time for any deletes to be issued and carried out
	if after := blockFiles(); !slices.Equal(after, before) {
		t.Errorf("block files changed under a fresh namenode: %d before, %d after", len(before), len(after))
	}
}
