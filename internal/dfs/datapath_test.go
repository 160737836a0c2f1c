package dfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aurora/internal/dfs"
	"aurora/internal/dfs/client"
	"aurora/internal/dfs/datanode"
	"aurora/internal/dfs/proto"
	"aurora/internal/metrics"
)

// callNN is a raw namenode RPC for tests that need to drive the
// protocol below the client's retry/failover machinery.
func callNN(t *testing.T, addr string, req *proto.Message) *proto.Message {
	t.Helper()
	resp, _, err := proto.Call(addr, req, nil, time.Second)
	if err != nil {
		t.Fatalf("%s: %v", req.Type, err)
	}
	return resp
}

// onNameNodeCall passes every datanode's namenode call to hook first;
// a call the hook fails is not sent.
func onNameNodeCall(hook func(*proto.Message) error) func(*dfs.Spec) {
	return func(s *dfs.Spec) {
		s.PerNode = func(_ int, cfg *datanode.Config) {
			cfg.Call = func(addr string, req *proto.Message, payload []byte, timeout time.Duration) (*proto.Message, []byte, error) {
				if err := hook(req); err != nil {
					return nil, nil, err
				}
				return proto.Call(addr, req, payload, timeout)
			}
		}
	}
}

// TestPipelineFailureReconcileRepairs is the regression test for the
// documented write contract (DESIGN.md §15.4, datanode.handleWriteStream):
// every hop stores its replica and records it for its next report
// BEFORE the downstream outcome is known, and the head reports the block
// before it answers the writer — itself, plus the downstream hops only
// when their ack vouches for them. A downstream failure therefore leaves
// a "short pipeline": the writer sees an error, the head alone is
// confirmed, a stored copy further down is confirmed by its holder's
// next delta, and the reconcile loop repairs the rest from the confirmed
// copies.
func TestPipelineFailureReconcileRepairs(t *testing.T) {
	const dead = "127.0.0.1:1"
	for _, tc := range []struct {
		name string
		// keepMid streams through the allocated second hop, so the dead
		// address is the tail; otherwise it is the second hop.
		keepMid bool
	}{
		{"dead second hop", false},
		{"dead tail", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// While hold is set every block report fails, as a dropped
			// heartbeat does, and the tracker keeps it for the next one.
			var hold atomic.Bool
			cl := startCluster(t, 4, onNameNodeCall(func(req *proto.Message) error {
				if hold.Load() && req.Type == proto.MsgHeartbeatDelta {
					return errors.New("report held by the test")
				}
				return nil
			}))
			nnAddr := cl.NameNode.Addr()
			data := payload(1200, 14)

			callNN(t, nnAddr, &proto.Message{Type: proto.MsgCreateFile, Path: "/short", Replication: 3})
			alloc := callNN(t, nnAddr, &proto.Message{Type: proto.MsgAddBlock, Path: "/short", Length: len(data)})
			if len(alloc.Pipeline) != 3 {
				t.Fatalf("pipeline = %v, want 3 nodes", alloc.Pipeline)
			}
			head, downstream := alloc.Pipeline[0], []string{dead}
			if tc.keepMid {
				downstream = []string{alloc.Pipeline[1], dead}
			}

			// Stream to the head with a dead hop in the pipeline — the
			// wire-level shape of a downstream node crashing mid-write.
			// Reports are held meanwhile, so the confirmed set below is
			// what the head's arrival report alone made it.
			hold.Store(true)
			st, err := proto.OpenStream(head, &proto.Message{
				Type: proto.MsgWriteBlockStream, Block: alloc.Block,
				Pipeline: downstream,
				Length:   len(data), Checksum: datanode.Checksum(data), ChunkSize: 256,
			}, time.Second)
			if err != nil {
				t.Fatalf("OpenStream: %v", err)
			}
			defer st.Close()
			for seq, off := 0, 0; ; seq++ {
				end := off + 256
				if end > len(data) {
					end = len(data)
				}
				part := data[off:end]
				if err := st.Send(&proto.Message{
					Type: proto.MsgChunk, Seq: seq, Offset: off, Eof: end == len(data),
					Checksum: proto.ChunkChecksum(part),
				}, part); err != nil {
					t.Fatalf("Send chunk %d: %v", seq, err)
				}
				if end == len(data) {
					break
				}
				off = end
			}
			_, _, err = st.Recv()
			var rerr *proto.RemoteError
			if !errors.As(err, &rerr) {
				t.Fatalf("short pipeline ack = %v, want *RemoteError (writer must see the failure)", err)
			}

			c := client.New(nnAddr, client.WithBlockSize(1<<12), client.WithSeed(14))
			holders := func() []string {
				t.Helper()
				locs, err := c.Locations("/short")
				if err != nil || len(locs) != 1 {
					t.Fatalf("Locations = %v, %v; want one block", locs, err)
				}
				return locs[0].Addresses
			}
			// The head vouches for nothing downstream: it is the one
			// confirmed holder, whatever the second hop stored.
			if got := holders(); len(got) != 1 || got[0] != head {
				t.Fatalf("confirmed holders right after the failed write = %v, want the head %s alone", got, head)
			}
			hold.Store(false)

			if tc.keepMid {
				// The block is still being written, so reconcile leaves it
				// alone: only the second hop's own delta can confirm the
				// copy it stored.
				mid := alloc.Pipeline[1]
				deadline := time.Now().Add(5 * time.Second)
				for !slices.Contains(holders(), mid) {
					if time.Now().After(deadline) {
						t.Fatalf("the second hop's delta never confirmed its copy; holders = %v", holders())
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
			callNN(t, nnAddr, &proto.Message{Type: proto.MsgCompleteFile, Path: "/short"})

			// Reconcile must restore three replicas from the confirmed
			// copies without any writer involvement.
			deadline := time.Now().Add(10 * time.Second)
			for {
				got := holders()
				if slices.Contains(got, dead) {
					t.Fatalf("the dead address %s was confirmed: holders = %v", dead, got)
				}
				if len(got) >= 3 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("reconcile did not repair the short pipeline; holders = %v", got)
				}
				time.Sleep(50 * time.Millisecond)
			}
			got, err := c.Read("/short")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read after repair: %v (%d bytes, want %d)", err, len(got), len(data))
			}
		})
	}
}

// TestOneArrivalReportPerBlock: a k=3 write sends one block_received
// per block — the head's, naming the two hops its ack vouched for — and
// Create returns only once all three replicas of every block are
// confirmed, with no reconcile pass to help.
func TestOneArrivalReportPerBlock(t *testing.T) {
	var reports atomic.Int64
	cl := startCluster(t, 4, func(s *dfs.Spec) { s.NameNode.ReconcileInterval = time.Hour },
		onNameNodeCall(func(req *proto.Message) error {
			if req.Type == proto.MsgBlockReceived {
				reports.Add(1)
			}
			return nil
		}))
	c := client.New(cl.NameNode.Addr(), client.WithBlockSize(1<<12), client.WithSeed(15))
	total := 0
	for _, blocks := range []int{1, 3} {
		before := reports.Load()
		if err := c.Create(fmt.Sprintf("/f%d", blocks), payload(blocks<<12-100, 3), 3); err != nil {
			t.Fatalf("Create of %d blocks: %v", blocks, err)
		}
		total += blocks
		if got := cl.NameNode.Health().ConfirmedReplicas; got != 3*total {
			t.Errorf("after a %d-block Create: %d confirmed replicas, want %d", blocks, got, 3*total)
		}
		if got := reports.Load() - before; got != int64(blocks) {
			t.Errorf("a %d-block k=3 Create sent %d block_received, want %d", blocks, got, blocks)
		}
	}
}

// TestIncrementalReportDivergenceResync pins the incremental-report
// reconciliation rule (DESIGN.md §15): when the namenode's per-node
// digest diverges from what the datanode reports — here forced by
// dropping one confirmation, the bookkeeping shape a lost delta leaves
// behind — the next delta heartbeat must trigger a full-report resync
// that restores agreement.
//
// The reconcile loop is parked for the whole test. Left running, its
// heal step could re-replicate the unconfirmed block onto the victim
// before the victim's next heartbeat; that delta's received=[b] then
// re-confirms the block with a matching digest and no resync ever fires.
// The digest resync is the repair path this test pins, so it must be the
// only one.
func TestIncrementalReportDivergenceResync(t *testing.T) {
	tc := startCluster(t, 4, func(s *dfs.Spec) { s.NameNode.ReconcileInterval = time.Hour })
	c := client.New(tc.NameNode.Addr(), client.WithBlockSize(1<<12), client.WithSeed(11))
	if err := c.Create("/diverge", payload(700, 7), 3); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := tc.NameNode.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("WaitConverged: %v", err)
	}
	locs, err := c.Locations("/diverge")
	if err != nil || len(locs) != 1 {
		t.Fatalf("Locations: %v (%d blocks)", err, len(locs))
	}
	nodes, err := c.ClusterInfo()
	if err != nil {
		t.Fatalf("ClusterInfo: %v", err)
	}
	victim := proto.NodeID(0)
	found := false
	for _, n := range nodes {
		if n.Addr == locs[0].Addresses[0] {
			victim, found = n.ID, true
		}
	}
	if !found {
		t.Fatalf("no node matches replica address %s", locs[0].Addresses[0])
	}

	// Reach steady state first: the boot-time full reports must have
	// landed and deltas must be flowing, otherwise a pending boot report
	// would repair the divergence silently (without a resync).
	deltas := metrics.Default.Counter("dfs.namenode.report_delta")
	deltasStart := deltas.Value()
	deadline := time.Now().Add(5 * time.Second)
	for deltas.Value() < deltasStart+8 {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat deltas never started flowing")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resyncs := metrics.Default.Counter("dfs.namenode.report_resync")
	fulls := metrics.Default.Counter("dfs.datanode.report_full")
	resyncBefore, fullBefore := resyncs.Value(), fulls.Value()

	// Forget one confirmation namenode-side. The datanode still holds
	// the block, so its next digest cannot match.
	tc.NameNode.DropConfirmation(locs[0].Block, victim)

	deadline = time.Now().Add(5 * time.Second)
	for resyncs.Value() == resyncBefore || fulls.Value() == fullBefore {
		if time.Now().After(deadline) {
			t.Fatalf("digest divergence never triggered a resync (resyncs=%d fulls=%d)",
				resyncs.Value()-resyncBefore, fulls.Value()-fullBefore)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err := tc.NameNode.WaitConverged(10 * time.Second); err != nil {
		t.Fatalf("WaitConverged after resync: %v", err)
	}
	if got, err := c.Read("/diverge"); err != nil || len(got) != 700 {
		t.Fatalf("read after resync: %v (%d bytes)", err, len(got))
	}
}

// TestStreamedWriteReadEndToEnd drives the client against a real cluster
// and checks the transfer moved the stream counters that /metrics
// exposes.
func TestStreamedWriteReadEndToEnd(t *testing.T) {
	send := metrics.Default.Counter("aurora_stream_chunks", metrics.L("dir", "send"))
	recv := metrics.Default.Counter("aurora_stream_chunks", metrics.L("dir", "recv"))
	sendBefore, recvBefore := send.Value(), recv.Value()

	tc := startCluster(t, 4)
	c := client.New(tc.NameNode.Addr(),
		client.WithBlockSize(1<<12),
		client.WithSeed(12),
		client.WithChunkSize(1<<10), // 4 chunks per block
		client.WithReadAhead(2),
	)
	data := payload(3*(1<<12)+17, 8)
	if err := c.Create("/streamed", data, 3); err != nil {
		t.Fatalf("Create: %v", err)
	}
	got, err := c.Read("/streamed")
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %d bytes != %d", len(got), len(data))
	}
	if send.Value() == sendBefore || recv.Value() == recvBefore {
		t.Errorf("stream chunk counters did not move (send +%d, recv +%d)",
			send.Value()-sendBefore, recv.Value()-recvBefore)
	}
	// 13 KiB in 1 KiB chunks through a 3-deep pipeline plus the read
	// back: far more than one chunk each way.
	if send.Value()-sendBefore < 8 {
		t.Errorf("only %d chunks sent; expected a chunked multi-block transfer", send.Value()-sendBefore)
	}
}

// pathContent is n bytes of content derived from the path alone, so any
// goroutine can check any read without sharing the written bytes.
func pathContent(path string, n int) []byte {
	h := fnv.New64a()
	h.Write([]byte(path))
	x := h.Sum64()
	out := make([]byte, n)
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		out[i] = byte(x >> 56)
	}
	return out
}

// TestBlockBufferLifetime drives every site where a datanode hands a
// block buffer back to its free list (DESIGN.md §15.6) at once —
// streamed reads, k=3 pipeline writes, a replicate command, and deletes
// racing reads of the deleted block — on disk and memory stores, with
// every byte read checked against its path. A buffer released while
// someone still reads it would be refilled by a neighbour's block; under
// -tags invariantdebug it is poisoned on release, so the mistake becomes
// a checksum failure or wrong bytes here rather than a rare corruption
// in the field. Run with -race.
func TestBlockBufferLifetime(t *testing.T) {
	const nodes, readers, writers, churns, chunk = 4, 8, 2, 24, 1 << 10
	tc := startCluster(t, nodes, func(s *dfs.Spec) {
		s.DataNode = datanode.Config{CapacityBlocks: 256, HeartbeatInterval: 30 * time.Millisecond}
		s.PerNode = func(i int, cfg *datanode.Config) {
			if i < nodes/2 {
				cfg.DataDir = t.TempDir() // two disk stores, two memory stores
			}
		}
	})
	nn := tc.NameNode
	newClient := func(seed uint64) *client.Client {
		return client.New(nn.Addr(), client.WithBlockSize(1<<12), client.WithSeed(seed), client.WithChunkSize(chunk))
	}
	// One single-block file per reader, each a different length so a
	// recycled buffer is re-cut from block to block.
	readerFile := func(r int) (string, int) { return fmt.Sprintf("/life/r%d", r), 1<<12 - 301*r }
	c := newClient(1)
	for r := 0; r < readers; r++ {
		path, n := readerFile(r)
		if err := c.Create(path, pathContent(path, n), 3); err != nil {
			t.Fatalf("Create %s: %v", path, err)
		}
	}
	check := func(c *client.Client, path string, n int) {
		got, err := c.Read(path)
		if err != nil {
			t.Errorf("Read %s: %v", path, err)
		} else if !bytes.Equal(got, pathContent(path, n)) {
			t.Errorf("Read %s: wrong bytes", path)
		}
	}

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := newClient(uint64(100 + r))
			path, n := readerFile(r)
			for i := 0; i < 40 && !t.Failed(); i++ {
				check(c, path, n)
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient(uint64(200 + w))
			for i := 0; i < 10 && !t.Failed(); i++ {
				path, n := fmt.Sprintf("/life/w%d-%d", w, i), 2*(1<<12)+97*i
				if err := c.Create(path, pathContent(path, n), 3); err != nil {
					t.Errorf("Create %s: %v", path, err)
					return
				}
				check(c, path, n)
			}
		}(w)
	}
	// Churn: a block on every node is read replica by replica, without
	// pause, while its file is deleted, until no node holds it any more —
	// so each store's Delete runs against Gets of the very block it
	// drops. A read may fail once its replica is gone; one that succeeds
	// must be exact.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := newClient(300)
		for i := 0; i < churns && !t.Failed(); i++ {
			path, n := fmt.Sprintf("/life/c%d", i), 1<<12-97*i
			want := pathContent(path, n)
			if err := c.Create(path, want, nodes); err != nil {
				t.Errorf("Create %s: %v", path, err)
				return
			}
			locs, err := c.Locations(path)
			if err != nil || len(locs) != 1 {
				t.Errorf("Locations %s: %v (%d blocks)", path, err, len(locs))
				return
			}
			block := locs[0].Block
			stop := make(chan struct{})
			var hammers sync.WaitGroup
			for j, addr := range locs[0].Addresses {
				hammers.Add(1)
				go func(rc *client.Client, loc proto.BlockLocation) {
					defer hammers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if got, err := rc.ReadBlockFrom(loc); err == nil && !bytes.Equal(got, want) {
							t.Errorf("%s replica on %s: wrong bytes while it was deleted", path, loc.Addresses[0])
							return
						}
					}
				}(newClient(uint64(400+j)), proto.BlockLocation{Block: block, Length: n, Addresses: []string{addr}})
			}
			if err := c.Delete(path); err != nil {
				t.Errorf("Delete %s: %v", path, err)
			}
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				held := false
				for _, dn := range tc.DataNodes {
					held = held || dn.HasBlock(block)
				}
				if !held {
					break
				}
			}
			close(stop)
			hammers.Wait()
		}
	}()
	// A fourth replica of the first reader's block can only come from a
	// replicate command executed by one of its three holders.
	hot, hotLen := readerFile(0)
	if err := c.SetReplication(hot, nodes); err != nil {
		t.Fatalf("SetReplication: %v", err)
	}
	wg.Wait()
	if err := nn.WaitConverged(10 * time.Second); err != nil {
		t.Fatalf("WaitConverged: %v", err)
	}

	// Every replica of every reader block, one address at a time: the
	// replicate target's copy and the pipeline tails' included.
	for r := 0; r < readers; r++ {
		path, n := readerFile(r)
		locs, err := c.Locations(path)
		if err != nil || len(locs) != 1 {
			t.Fatalf("Locations %s: %v (%d blocks)", path, err, len(locs))
		}
		if path == hot && (len(locs[0].Addresses) != nodes || n != hotLen) {
			t.Errorf("%s has %d replicas after SetReplication(%d)", hot, len(locs[0].Addresses), nodes)
		}
		for _, addr := range locs[0].Addresses {
			got, err := c.ReadBlockFrom(proto.BlockLocation{Block: locs[0].Block, Length: n, Addresses: []string{addr}})
			if err != nil || !bytes.Equal(got, pathContent(path, n)) {
				t.Errorf("%s replica on %s: %v, %d bytes", path, addr, err, len(got))
			}
		}
	}
}
