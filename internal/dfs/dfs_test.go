// Package dfs_test exercises the mini distributed file system
// end-to-end: a real namenode and real datanodes speaking TCP on
// loopback, with files written, read, re-replicated, rebalanced by the
// Aurora optimizer, and surviving datanode failure.
package dfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/dfs"
	"aurora/internal/dfs/client"
	"aurora/internal/dfs/datanode"
	"aurora/internal/dfs/namenode"
	"aurora/internal/dfs/proto"
)

// startCluster boots a namenode and nodes datanodes over two racks with
// the tests' compressed timeouts; tune, if given, adjusts the spec before
// it starts. The cluster closes when the test ends.
func startCluster(t *testing.T, nodes int, tune ...func(*dfs.Spec)) *dfs.Cluster {
	t.Helper()
	s := dfs.Spec{
		Nodes: nodes,
		NameNode: namenode.Config{
			Racks:              2,
			DefaultReplication: 3,
			DefaultMinRacks:    2,
			BlockSize:          1 << 12,
			DeadTimeout:        1500 * time.Millisecond,
			ReconcileInterval:  25 * time.Millisecond,
			Seed:               7,
		},
		DataNode: datanode.Config{CapacityBlocks: 512, HeartbeatInterval: 50 * time.Millisecond},
	}
	for _, f := range tune {
		f(&s)
	}
	c, err := dfs.Start(s)
	if err != nil {
		t.Fatalf("dfs.Start: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestStartFailureClosesCluster fails the third datanode's boot (its
// data directory is a regular file): Start must return that error and
// leave neither the namenode nor the first two datanodes listening.
func TestStartFailureClosesCluster(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var addrs []string
	_, err := dfs.Start(dfs.Spec{
		Nodes:    4,
		NameNode: namenode.Config{Racks: 2},
		DataNode: datanode.Config{CapacityBlocks: 8},
		PerNode: func(i int, cfg *datanode.Config) {
			if i != 2 {
				return
			}
			cfg.DataDir = notDir
			nodes, err := client.New(cfg.NameNodeAddr).ClusterInfo()
			if err != nil || len(nodes) != 2 {
				t.Errorf("ClusterInfo before node 2 = %v, %v; want nodes 0 and 1", nodes, err)
			}
			addrs = append(addrs, cfg.NameNodeAddr)
			for _, n := range nodes {
				addrs = append(addrs, n.Addr)
			}
		},
	})
	if !errors.Is(err, syscall.ENOTDIR) {
		t.Fatalf("Start = %v, want node 2's ENOTDIR", err)
	}
	for _, a := range addrs {
		if conn, err := net.DialTimeout("tcp", a, time.Second); err == nil {
			_ = conn.Close()
			t.Errorf("%s still accepts connections after a failed Start", a)
		}
	}
}

func payload(n int, tag byte) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i)*7 + tag
	}
	return data
}

func TestWriteReadRoundTrip(t *testing.T) {
	tc := startCluster(t, 6)
	c := client.New(tc.NameNode.Addr(), client.WithBlockSize(1<<12), client.WithSeed(1))

	data := payload(3*(1<<12)+100, 3) // 4 blocks: 3 full + 1 partial
	if err := c.Create("/a/file1", data, 0); err != nil {
		t.Fatalf("Create: %v", err)
	}
	got, err := c.Read("/a/file1")
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %d bytes != written %d bytes", len(got), len(data))
	}
	info, err := c.Stat("/a/file1")
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if info.Blocks != 4 || info.Length != int64(len(data)) || !info.Complete {
		t.Errorf("Stat = %+v, want 4 blocks, %d bytes, complete", info, len(data))
	}
	if err := tc.NameNode.WaitConverged(5 * time.Second); err != nil {
		t.Errorf("WaitConverged: %v", err)
	}
}

func TestReplicationFactorAndRackSpread(t *testing.T) {
	tc := startCluster(t, 6)
	c := client.New(tc.NameNode.Addr(), client.WithBlockSize(1<<12), client.WithSeed(2))
	if err := c.Create("/f", payload(100, 1), 3); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := tc.NameNode.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("WaitConverged: %v", err)
	}
	locs, err := c.Locations("/f")
	if err != nil {
		t.Fatalf("Locations: %v", err)
	}
	if len(locs) != 1 {
		t.Fatalf("blocks = %d, want 1", len(locs))
	}
	if got := len(locs[0].Addresses); got != 3 {
		t.Errorf("replicas = %d, want 3", got)
	}
	// Rack spread: replicas must span both racks.
	p, err := tc.NameNode.PlacementClone()
	if err != nil {
		t.Fatalf("PlacementClone: %v", err)
	}
	if got := p.RackSpread(core.BlockID(locs[0].Block)); got < 2 {
		t.Errorf("rack spread = %d, want >= 2", got)
	}
}

func TestSetReplicationGrowsAndShrinks(t *testing.T) {
	tc := startCluster(t, 6)
	c := client.New(tc.NameNode.Addr(), client.WithBlockSize(1<<12), client.WithSeed(3))
	if err := c.Create("/hot", payload(64, 2), 3); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := c.SetReplication("/hot", 5); err != nil {
		t.Fatalf("SetReplication up: %v", err)
	}
	if err := tc.NameNode.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("WaitConverged after grow: %v", err)
	}
	locs, err := c.Locations("/hot")
	if err != nil {
		t.Fatalf("Locations: %v", err)
	}
	if got := len(locs[0].Addresses); got != 5 {
		t.Errorf("replicas after grow = %d, want 5", got)
	}
	if err := c.SetReplication("/hot", 2); err != nil {
		t.Fatalf("SetReplication down: %v", err)
	}
	if err := tc.NameNode.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("WaitConverged after shrink: %v", err)
	}
	locs, err = c.Locations("/hot")
	if err != nil {
		t.Fatalf("Locations: %v", err)
	}
	if got := len(locs[0].Addresses); got != 2 {
		t.Errorf("replicas after shrink = %d, want 2", got)
	}
	// Data must remain readable throughout.
	if _, err := c.Read("/hot"); err != nil {
		t.Errorf("Read after shrink: %v", err)
	}
}

func TestDataNodeFailureTriggersReReplication(t *testing.T) {
	tc := startCluster(t, 6)
	c := client.New(tc.NameNode.Addr(), client.WithBlockSize(1<<12), client.WithSeed(4))
	data := payload(2000, 5)
	if err := c.Create("/durable", data, 3); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := tc.NameNode.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("WaitConverged: %v", err)
	}
	// Kill a datanode that holds the block.
	locs, err := c.Locations("/durable")
	if err != nil {
		t.Fatalf("Locations: %v", err)
	}
	victimAddr := locs[0].Addresses[0]
	killed := false
	for _, dn := range tc.DataNodes {
		if dn.Addr() == victimAddr {
			if err := dn.Close(); err != nil {
				t.Fatalf("Close victim: %v", err)
			}
			killed = true
		}
	}
	if !killed {
		t.Fatal("victim datanode not found")
	}
	// The namenode must detect the death and restore 3 live replicas.
	deadline := time.Now().Add(10 * time.Second)
	for {
		locs, err = c.Locations("/durable")
		if err != nil {
			t.Fatalf("Locations: %v", err)
		}
		live := 0
		for _, a := range locs[0].Addresses {
			if a != victimAddr {
				live++
			}
		}
		if live >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("re-replication did not restore 3 live replicas; have %v", locs[0].Addresses)
		}
		time.Sleep(50 * time.Millisecond)
	}
	got, err := c.Read("/durable")
	if err != nil {
		t.Fatalf("Read after failure: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted after re-replication")
	}
}

func TestDeleteReapsReplicas(t *testing.T) {
	tc := startCluster(t, 4)
	c := client.New(tc.NameNode.Addr(), client.WithBlockSize(1<<12), client.WithSeed(5))
	if err := c.Create("/tmp1", payload(300, 6), 2); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := tc.NameNode.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("WaitConverged: %v", err)
	}
	if err := c.Delete("/tmp1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		total := 0
		for _, dn := range tc.DataNodes {
			total += dn.NumBlocks()
		}
		if total == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas not reaped: %d remain", total)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if _, err := c.Read("/tmp1"); err == nil {
		t.Error("Read of deleted file succeeded")
	}
}

func TestListFiles(t *testing.T) {
	tc := startCluster(t, 4)
	c := client.New(tc.NameNode.Addr(), client.WithBlockSize(1<<12), client.WithSeed(6))
	for i := 0; i < 3; i++ {
		if err := c.Create(fmt.Sprintf("/d/f%d", i), payload(128, byte(i)), 2); err != nil {
			t.Fatalf("Create: %v", err)
		}
	}
	checkList := func(want ...string) {
		t.Helper()
		files, err := c.List()
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		if len(files) != len(want) {
			t.Fatalf("List = %d files, want %d", len(files), len(want))
		}
		for i, f := range files {
			if f.Path != want[i] {
				t.Errorf("file %d path = %s, want %s (sorted)", i, f.Path, want[i])
			}
		}
	}
	checkList("/d/f0", "/d/f1", "/d/f2")
	// A deleted path leaves the listing, and re-created it returns to
	// its place in path order.
	if err := c.Delete("/d/f1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	checkList("/d/f0", "/d/f2")
	if err := c.Create("/d/f1", payload(64, 9), 2); err != nil {
		t.Fatalf("re-Create: %v", err)
	}
	checkList("/d/f0", "/d/f1", "/d/f2")
}

func TestOptimizeNowRebalancesHotBlocks(t *testing.T) {
	tc := startCluster(t, 6)
	c := client.New(tc.NameNode.Addr(), client.WithBlockSize(1<<12), client.WithSeed(7))
	if err := c.Create("/hotfile", payload(1<<12, 9), 3); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := c.Create("/coldfile", payload(1<<12, 10), 3); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := tc.NameNode.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("WaitConverged: %v", err)
	}
	// Drive popularity: read the hot file many times.
	for i := 0; i < 30; i++ {
		if _, err := c.Read("/hotfile"); err != nil {
			t.Fatalf("Read: %v", err)
		}
	}
	snap := tc.NameNode.PopularitySnapshot()
	if len(snap) == 0 {
		t.Fatal("usage monitor recorded no accesses")
	}
	res, err := tc.NameNode.OptimizeNow(core.OptimizerOptions{
		Epsilon:           0.1,
		RackAware:         true,
		ReplicationBudget: 6 + 4, // 2 files x 3 replicas + headroom
	})
	if err != nil {
		t.Fatalf("OptimizeNow: %v", err)
	}
	if res.Replications == 0 {
		t.Error("optimizer performed no replications for the hot block")
	}
	if err := tc.NameNode.WaitConverged(10 * time.Second); err != nil {
		t.Fatalf("WaitConverged after optimize: %v", err)
	}
	// The hot block must now have more live replicas than the cold one.
	hotLocs, err := c.Locations("/hotfile")
	if err != nil {
		t.Fatalf("Locations: %v", err)
	}
	coldLocs, err := c.Locations("/coldfile")
	if err != nil {
		t.Fatalf("Locations: %v", err)
	}
	if len(hotLocs[0].Addresses) <= len(coldLocs[0].Addresses) {
		t.Errorf("hot replicas %d <= cold replicas %d after optimization",
			len(hotLocs[0].Addresses), len(coldLocs[0].Addresses))
	}
	// And the data must still read back correctly.
	if _, err := c.Read("/hotfile"); err != nil {
		t.Errorf("Read hot after optimize: %v", err)
	}
}

func TestAuroraPlacerWriterLocal(t *testing.T) {
	tc := startCluster(t, 6, func(s *dfs.Spec) { s.NameNode.Placer = namenode.AuroraPlacer{} })
	writerDN := tc.DataNodes[2]
	c := client.New(tc.NameNode.Addr(),
		client.WithBlockSize(1<<12),
		client.WithSeed(8),
		client.WithLocalDataNode(writerDN.Addr()))
	if err := c.Create("/task-output", payload(256, 11), 3); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := tc.NameNode.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("WaitConverged: %v", err)
	}
	locs, err := c.Locations("/task-output")
	if err != nil {
		t.Fatalf("Locations: %v", err)
	}
	found := false
	for _, a := range locs[0].Addresses {
		if a == writerDN.Addr() {
			found = true
		}
	}
	if !found {
		t.Errorf("writer-local replica missing; addresses = %v", locs[0].Addresses)
	}
	if !writerDN.HasBlock(locs[0].Block) {
		t.Error("writer datanode does not physically hold the block")
	}
}

func TestClientErrors(t *testing.T) {
	tc := startCluster(t, 4)
	c := client.New(tc.NameNode.Addr(), client.WithBlockSize(1<<12), client.WithSeed(9))
	if err := c.Create("/x", nil, 0); err == nil {
		t.Error("empty create succeeded")
	}
	if err := c.Create("/x", payload(10, 1), 0); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := c.Create("/x", payload(10, 1), 0); err == nil {
		t.Error("duplicate create succeeded")
	}
	if _, err := c.Read("/missing"); err == nil {
		t.Error("read of missing file succeeded")
	}
	if err := c.Delete("/missing"); err == nil {
		t.Error("delete of missing file succeeded")
	}
	if _, err := c.Stat("/missing"); err == nil {
		t.Error("stat of missing file succeeded")
	}
	if err := c.SetReplication("/x", 0); err == nil {
		t.Error("zero replication accepted")
	}
}

func TestClusterInfo(t *testing.T) {
	tc := startCluster(t, 4)
	c := client.New(tc.NameNode.Addr(), client.WithSeed(10))
	nodes, err := c.ClusterInfo()
	if err != nil {
		t.Fatalf("ClusterInfo: %v", err)
	}
	if len(nodes) != 4 {
		t.Fatalf("nodes = %d, want 4", len(nodes))
	}
	racks := map[int]int{}
	for _, n := range nodes {
		if !n.Alive {
			t.Errorf("node %d reported dead", n.ID)
		}
		racks[n.Rack]++
	}
	if len(racks) != 2 {
		t.Errorf("racks = %v, want 2 racks", racks)
	}
	_ = proto.NodeID(0)
}
