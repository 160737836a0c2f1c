package datanode

import (
	"bytes"
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"aurora/internal/dfs/proto"
	"aurora/internal/retrypolicy"
)

// fakeNameNode accepts registrations and records block reports, and
// can queue commands for the next heartbeat.
type fakeNameNode struct {
	srv *proto.Server

	mu        sync.Mutex
	stall     chan struct{} // when set, holds every request but register until closed
	nextID    proto.NodeID
	received  []proto.BlockID
	reporters []proto.NodeID // reporters[i] sent received[i]
	cmds      map[proto.NodeID][]proto.Command
	cmdsAt    time.Time // when the last command batch was handed out
	hbCount   int       // full reports
	deltas    int       // delta reports
	lastFull  []proto.BlockID
	deltaRecv []proto.BlockID
	deletions []deletion // one per delta that reported deletions
	askFull   bool       // request a full-report resync on the next delta
}

// deletion is one delta report's Deleted list and when it arrived.
type deletion struct {
	at     time.Time
	blocks []proto.BlockID
}

func startFakeNN(t *testing.T) *fakeNameNode {
	t.Helper()
	f := &fakeNameNode{cmds: make(map[proto.NodeID][]proto.Command)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	f.srv = proto.Serve(ln, f.handle, time.Second)
	t.Cleanup(func() { _ = f.srv.Close() })
	return f
}

func (f *fakeNameNode) handle(req *proto.Message, _ []byte) (*proto.Message, []byte) {
	f.mu.Lock()
	stall := f.stall
	f.mu.Unlock()
	if stall != nil && req.Type != proto.MsgRegister {
		<-stall
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	switch req.Type {
	case proto.MsgRegister:
		id := f.nextID
		f.nextID++
		return &proto.Message{Type: proto.MsgOK, Node: id}, nil
	case proto.MsgHeartbeatDelta:
		cmds := f.cmds[req.Node]
		delete(f.cmds, req.Node)
		resp := &proto.Message{Type: proto.MsgOK, Commands: cmds}
		if len(cmds) > 0 {
			f.cmdsAt = time.Now()
		}
		if req.FullReport {
			f.hbCount++
			f.lastFull = append([]proto.BlockID(nil), req.Received...)
			return resp, nil
		}
		f.deltas++
		f.deltaRecv = append(f.deltaRecv, req.Received...)
		if len(req.Deleted) > 0 {
			f.deletions = append(f.deletions, deletion{at: time.Now(), blocks: req.Deleted})
		}
		if f.askFull {
			resp.FullReport = true
			f.askFull = false
		}
		return resp, nil
	case proto.MsgBlockReceived:
		f.received = append(f.received, req.Block)
		f.reporters = append(f.reporters, req.Node)
		return nil, nil
	default:
		return proto.ErrorMessage(errors.New("unexpected")), nil
	}
}

func (f *fakeNameNode) queue(node proto.NodeID, cmd proto.Command) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cmds[node] = append(f.cmds[node], cmd)
}

func (f *fakeNameNode) receivedBlocks() []proto.BlockID {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]proto.BlockID(nil), f.received...)
}

func startDN(t *testing.T, nn *fakeNameNode) *DataNode {
	t.Helper()
	return startDNWith(t, nn, Config{HeartbeatInterval: 20 * time.Millisecond})
}

// startDNWith starts a datanode of cfg registered with nn.
func startDNWith(t *testing.T, nn *fakeNameNode, cfg Config) *DataNode {
	t.Helper()
	cfg.NameNodeAddr = nn.srv.Addr()
	cfg.CapacityBlocks = 16
	dn, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = dn.Close() })
	return dn
}

func TestStartValidation(t *testing.T) {
	if _, err := Start(Config{}); err == nil {
		t.Error("missing namenode addr accepted")
	}
	if _, err := Start(Config{NameNodeAddr: "x", CapacityBlocks: 0}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := Start(Config{NameNodeAddr: "127.0.0.1:1", CapacityBlocks: 1, Timeout: 100 * time.Millisecond}); err == nil {
		t.Error("unreachable namenode accepted")
	}
}

func TestWriteReadAndReport(t *testing.T) {
	nn := startFakeNN(t)
	dn := startDN(t, nn)
	data := []byte("block contents")
	if _, err := streamWrite(t, dn.Addr(), 5, data, 1<<10, nil, false); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := streamRead(t, dn.Addr(), 5, 1<<10, 0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("read = %q, want %q", got, data)
	}
	// The namenode heard about the block.
	recv := nn.receivedBlocks()
	if len(recv) != 1 || recv[0] != 5 {
		t.Errorf("received reports = %v, want [5]", recv)
	}
	if dn.ID() != 0 {
		t.Errorf("ID = %d, want 0 (assigned by namenode)", dn.ID())
	}
}

func TestWriteRejectsBadChecksum(t *testing.T) {
	nn := startFakeNN(t)
	dn := startDN(t, nn)
	data := []byte("corrupted in flight")
	st, err := proto.OpenStream(dn.Addr(), &proto.Message{
		Type: proto.MsgWriteBlockStream, Block: 9,
		Length: len(data), Checksum: Checksum(data) + 1, ChunkSize: 1 << 10,
	}, time.Second)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	defer st.Close()
	if _, err := streamChunks(t, st, data, 1<<10, false); err == nil {
		t.Fatal("bad-checksum write accepted")
	}
	if dn.HasBlock(9) {
		t.Error("corrupt block stored anyway")
	}
	if len(nn.receivedBlocks()) != 0 {
		t.Error("corrupt block reported to namenode")
	}
}

// corruptTail flips a byte of a write stream's final chunk after its
// checksum was stamped — corruption in flight.
type corruptTail struct{ proto.BlockStream }

func (s corruptTail) Send(msg *proto.Message, payload []byte) error {
	if msg.Type == proto.MsgChunk && msg.Eof {
		payload = append([]byte(nil), payload...)
		payload[0] ^= 0xFF
	}
	return s.BlockStream.Send(msg, payload)
}

// A replicate command moves the block over a write stream with no
// downstream pipeline. A chunk corrupted in flight is rejected by the
// target (nothing stored, nothing reported), the source tries again under
// its retry policy, and the clean transfer ends with the target itself
// confirming the replica to the namenode.
func TestReplicateCommandStreamsAndRetries(t *testing.T) {
	nn := startFakeNN(t)
	dst := startDN(t, nn)
	var mu sync.Mutex
	attempts, storedAfterCorrupt := 0, false
	src, err := Start(Config{
		NameNodeAddr:      nn.srv.Addr(),
		CapacityBlocks:    16,
		HeartbeatInterval: 20 * time.Millisecond,
		// The target's rejection arrives as a *proto.RemoteError, which
		// the default classifier leaves to the namenode's re-issue.
		Retry: retrypolicy.Policy{MaxAttempts: 3, Retryable: func(error) bool { return true }},
		OpenStream: func(addr string, open *proto.Message, timeout time.Duration) (proto.BlockStream, error) {
			mu.Lock()
			attempts++
			first := attempts == 1
			if attempts == 2 {
				storedAfterCorrupt = dst.HasBlock(open.Block)
			}
			mu.Unlock()
			if len(open.Pipeline) != 0 {
				t.Errorf("replicate opened a stream with pipeline %v, want none", open.Pipeline)
			}
			st, err := proto.OpenStream(addr, open, timeout)
			if err != nil || !first {
				return st, err
			}
			return corruptTail{st}, nil
		},
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = src.Close() })

	data := bytes.Repeat([]byte("replicated "), 30000) // three default-size chunks
	if _, err := streamWrite(t, src.Addr(), 11, data, 64<<10, nil, false); err != nil {
		t.Fatalf("write: %v", err)
	}
	nn.queue(src.ID(), proto.Command{Kind: proto.CmdReplicate, Block: 11, Target: dst.Addr()})
	confirmed := func() bool {
		nn.mu.Lock()
		defer nn.mu.Unlock()
		for i, id := range nn.received {
			if id == 11 && nn.reporters[i] == dst.ID() {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(3 * time.Second)
	for !confirmed() {
		if time.Now().After(deadline) {
			t.Fatal("target never confirmed the replicated block")
		}
		time.Sleep(10 * time.Millisecond)
	}
	got, err := streamRead(t, dst.Addr(), 11, 64<<10, 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("replicated data mismatch: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts != 2 {
		t.Errorf("source opened %d transfer streams, want 2 (corrupt attempt, clean retry)", attempts)
	}
	if storedAfterCorrupt {
		t.Error("target stored the block from the corrupted transfer")
	}
}

// A batch of delete commands is reported in one heartbeat_delta sent
// as soon as the batch has run, not at the next heartbeat tick: the
// first deletion wakes the heartbeat loop and the rest fold into that
// wake. The heartbeat interval is long, so a report that waited for the
// tick would arrive an interval after the commands went out.
func TestDeleteCommandReports(t *testing.T) {
	const interval = time.Second
	nn := startFakeNN(t)
	dn := startDNWith(t, nn, Config{HeartbeatInterval: interval})
	for _, id := range []proto.BlockID{13, 14} {
		if _, err := streamWrite(t, dn.Addr(), id, []byte("to be deleted"), 1<<10, nil, false); err != nil {
			t.Fatalf("write %d: %v", id, err)
		}
		nn.queue(dn.ID(), proto.Command{Kind: proto.CmdDelete, Block: id})
	}
	reported := func() []deletion {
		nn.mu.Lock()
		defer nn.mu.Unlock()
		return append([]deletion(nil), nn.deletions...)
	}
	deadline := time.Now().Add(3 * interval)
	for len(reported()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("deletions never reported")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if dn.HasBlock(13) || dn.HasBlock(14) {
		t.Error("a deleted block is still stored")
	}
	first := reported()[0]
	if !slices.Equal(first.blocks, []proto.BlockID{13, 14}) {
		t.Errorf("first deletion report = %v, want the whole batch [13 14] in one report", first.blocks)
	}
	nn.mu.Lock()
	lag := first.at.Sub(nn.cmdsAt)
	nn.mu.Unlock()
	if lag >= interval/2 {
		t.Errorf("deletions reported %v after the commands went out, want well before the next tick (%v)", lag, interval)
	}
}

// Reads of corrupt replicas must fail fast even when the namenode has
// stopped answering: evicting a replica notes the deletion for the next
// report instead of waiting on the namenode for it. The reads run at
// once, so their evictions wake the heartbeat loop concurrently.
func TestCorruptReadWithStalledNameNode(t *testing.T) {
	nn := startFakeNN(t)
	stall := make(chan struct{})
	nn.mu.Lock()
	nn.stall = stall
	nn.mu.Unlock()
	dn := startDNWith(t, nn, Config{HeartbeatInterval: 20 * time.Millisecond, Timeout: 2 * time.Second})
	// Runs before dn.Close: free the stalled heartbeat so Close need
	// not wait out its timeout.
	t.Cleanup(func() { close(stall) })
	ids := []proto.BlockID{7, 8, 9, 10}
	for _, id := range ids {
		if err := dn.store.Put(id, []byte("soon corrupt")); err != nil {
			t.Fatalf("put %d: %v", id, err)
		}
		if err := dn.CorruptBlock(id); err != nil {
			t.Fatalf("corrupt %d: %v", id, err)
		}
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			_, err := streamRead(t, dn.Addr(), id, 1<<10, 0)
			if elapsed := time.Since(start); elapsed >= time.Second {
				t.Errorf("corrupt read of %d took %v with the namenode stalled, want under 1s", id, elapsed)
			}
			var re *proto.RemoteError
			if !errors.As(err, &re) || !strings.Contains(re.Msg, ErrCorrupt.Error()) {
				t.Errorf("corrupt read of %d err = %v, want the remote %q", id, err, ErrCorrupt)
			}
		}()
	}
	wg.Wait()
	for _, id := range ids {
		if dn.HasBlock(id) {
			t.Errorf("corrupt replica %d not evicted", id)
		}
	}
}

func TestUnknownBlockRead(t *testing.T) {
	nn := startFakeNN(t)
	dn := startDN(t, nn)
	if _, err := streamRead(t, dn.Addr(), 99, 1<<10, 0); err == nil {
		t.Error("read of unknown block succeeded")
	}
}

func TestDataNodeCloseIdempotent(t *testing.T) {
	nn := startFakeNN(t)
	dn := startDN(t, nn)
	if err := dn.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := dn.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close err = %v, want ErrClosed", err)
	}
}

// The nodes of one cluster tick at distinct, spread phases: for every
// cluster size n up to 200, the phases of ids 0..n−1 lie in
// (0, interval], and no two are closer than 0.4·interval/n or leave a
// gap (around the circle) wider than 2·interval/n. Node 0 keeps the
// phase every node had before: one whole interval.
func TestHeartbeatPhasesSpread(t *testing.T) {
	const interval = 200 * time.Millisecond
	if got := heartbeatPhase(0, interval); got != interval {
		t.Errorf("node 0 phase = %v, want %v", got, interval)
	}
	for n := 1; n <= 200; n++ {
		phases := make([]time.Duration, n)
		for id := range phases {
			p := heartbeatPhase(proto.NodeID(id), interval)
			if p <= 0 || p > interval {
				t.Fatalf("node %d phase %v outside (0, %v]", id, p, interval)
			}
			phases[id] = p
		}
		slices.Sort(phases)
		minGap, maxGap := interval, phases[0]+interval-phases[n-1] // the wrap-around gap
		for i := 1; i < n; i++ {
			gap := phases[i] - phases[i-1]
			minGap, maxGap = min(minGap, gap), max(maxGap, gap)
		}
		if n > 1 && minGap < interval*4/(10*time.Duration(n)) {
			t.Errorf("n=%d: two phases %v apart, want ≥ 0.4·interval/n", n, minGap)
		}
		if maxGap > 2*interval/time.Duration(n) {
			t.Errorf("n=%d: a %v gap between phases, want ≤ 2·interval/n", n, maxGap)
		}
	}
}
