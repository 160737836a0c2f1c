package datanode

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"aurora/internal/dfs/proto"
	"aurora/internal/retrypolicy"
)

// fakeNameNode accepts registrations and records received/deleted block
// reports, and can queue commands for the next heartbeat.
type fakeNameNode struct {
	srv *proto.Server

	mu        sync.Mutex
	nextID    proto.NodeID
	received  []proto.BlockID
	reporters []proto.NodeID // reporters[i] sent received[i]
	deleted   []proto.BlockID
	cmds      map[proto.NodeID][]proto.Command
	hbCount   int // full reports
	deltas    int // delta reports
	lastFull  []proto.BlockID
	deltaRecv []proto.BlockID
	deltaDel  []proto.BlockID
	askFull   bool // request a full-report resync on the next delta
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
		if req.FullReport {
			f.hbCount++
			f.lastFull = append([]proto.BlockID(nil), req.Received...)
			return resp, nil
		}
		f.deltas++
		f.deltaRecv = append(f.deltaRecv, req.Received...)
		f.deltaDel = append(f.deltaDel, req.Deleted...)
		if f.askFull {
			resp.FullReport = true
			f.askFull = false
		}
		return resp, nil
	case proto.MsgBlockReceived:
		f.received = append(f.received, req.Block)
		f.reporters = append(f.reporters, req.Node)
		return nil, nil
	case proto.MsgBlockDeleted:
		f.deleted = append(f.deleted, req.Block)
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

func (f *fakeNameNode) deletedBlocks() []proto.BlockID {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]proto.BlockID(nil), f.deleted...)
}

func startDN(t *testing.T, nn *fakeNameNode) *DataNode {
	t.Helper()
	dn, err := Start(Config{
		NameNodeAddr:      nn.srv.Addr(),
		Rack:              0,
		CapacityBlocks:    16,
		HeartbeatInterval: 20 * time.Millisecond,
	})
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

func TestDeleteCommandReports(t *testing.T) {
	nn := startFakeNN(t)
	dn := startDN(t, nn)
	data := []byte("to be deleted")
	if _, err := streamWrite(t, dn.Addr(), 13, data, 1<<10, nil, false); err != nil {
		t.Fatalf("write: %v", err)
	}
	nn.queue(dn.ID(), proto.Command{Kind: proto.CmdDelete, Block: 13})
	deadline := time.Now().Add(3 * time.Second)
	for dn.HasBlock(13) {
		if time.Now().After(deadline) {
			t.Fatal("delete command never executed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	deadline = time.Now().Add(time.Second)
	for len(nn.deletedBlocks()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("deletion never reported")
		}
		time.Sleep(10 * time.Millisecond)
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
