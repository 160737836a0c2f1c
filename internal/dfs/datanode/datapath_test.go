package datanode

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"aurora/internal/dfs/proto"
)

// streamChunks pushes data over an open write stream as size-byte
// chunks and returns the tail ack. trailer, when set, appends an
// explicit zero-length EOF chunk instead of flagging EOF on the last
// data chunk — the optional encoding the protocol allows when the
// block length is an exact multiple of the chunk size.
func streamChunks(t *testing.T, st proto.BlockStream, data []byte, size int, trailer bool) (*proto.Message, error) {
	t.Helper()
	seq := 0
	for off := 0; ; seq++ {
		end := off + size
		if end > len(data) {
			end = len(data)
		}
		part := data[off:end]
		eof := end == len(data) && !trailer
		msg := &proto.Message{
			Type: proto.MsgChunk, Seq: seq, Offset: off, Eof: eof,
			Checksum: proto.ChunkChecksum(part),
		}
		if err := st.Send(msg, part); err != nil {
			return nil, err
		}
		off = end
		if end == len(data) {
			break
		}
	}
	if trailer {
		if err := st.Send(&proto.Message{
			Type: proto.MsgChunk, Seq: seq + 1, Offset: len(data), Eof: true,
			Checksum: proto.ChunkChecksum(nil),
		}, nil); err != nil {
			return nil, err
		}
	}
	ack, _, err := st.Recv()
	return ack, err
}

// streamWrite drives one full streamed block write against addr.
func streamWrite(t *testing.T, addr string, id proto.BlockID, data []byte, size int, pipeline []string, trailer bool) (*proto.Message, error) {
	t.Helper()
	st, err := proto.OpenStream(addr, &proto.Message{
		Type: proto.MsgWriteBlockStream, Block: id, Pipeline: pipeline,
		Length: len(data), Checksum: Checksum(data), ChunkSize: size,
	}, time.Second)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return streamChunks(t, st, data, size, trailer)
}

// streamRead drains a streamed block read starting at off.
func streamRead(t *testing.T, addr string, id proto.BlockID, size, off int) ([]byte, error) {
	t.Helper()
	st, err := proto.OpenStream(addr, &proto.Message{
		Type: proto.MsgReadBlockStream, Block: id, ChunkSize: size, Offset: off,
	}, time.Second)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var got []byte
	for {
		msg, chunk, err := st.Recv()
		if err != nil {
			return got, err
		}
		if msg.Checksum != proto.ChunkChecksum(chunk) {
			return got, errors.New("chunk checksum mismatch")
		}
		got = append(got, chunk...)
		if msg.Eof {
			return got, nil
		}
	}
}

// A streamed write through a two-node pipeline must land the block on
// both nodes and ack only after the tail stored it.
func TestStreamWritePipeline(t *testing.T) {
	nn := startFakeNN(t)
	dn1 := startDN(t, nn)
	dn2 := startDN(t, nn)
	data := bytes.Repeat([]byte("streamed pipeline "), 100)
	ack, err := streamWrite(t, dn1.Addr(), 21, data, 256, []string{dn2.Addr()}, false)
	if err != nil {
		t.Fatalf("streamWrite: %v", err)
	}
	if ack.Type != proto.MsgStreamAck || ack.Offset != len(data) || ack.Checksum != Checksum(data) {
		t.Fatalf("ack = %+v, want MsgStreamAck for %d bytes", ack, len(data))
	}
	if !dn1.HasBlock(21) || !dn2.HasBlock(21) {
		t.Error("streamed pipeline did not deliver to both nodes")
	}
	got, err := streamRead(t, dn2.Addr(), 21, 256, 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("tail read mismatch: %v", err)
	}
}

// A block smaller than the chunk size rides in a single EOF chunk.
func TestStreamWriteSingleChunk(t *testing.T) {
	nn := startFakeNN(t)
	dn := startDN(t, nn)
	data := []byte("tiny")
	if _, err := streamWrite(t, dn.Addr(), 22, data, 1<<10, nil, false); err != nil {
		t.Fatalf("streamWrite: %v", err)
	}
	got, err := streamRead(t, dn.Addr(), 22, 1<<10, 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("read = %q, %v; want %q", got, err, data)
	}
}

// A writer may close the stream with an explicit zero-length EOF chunk
// (the natural encoding when the block length is an exact multiple of
// the chunk size); the receiver must accept it.
func TestStreamWriteZeroLengthFinalChunk(t *testing.T) {
	nn := startFakeNN(t)
	dn := startDN(t, nn)
	data := bytes.Repeat([]byte{0xAB}, 4*256) // exact multiple of the chunk size
	ack, err := streamWrite(t, dn.Addr(), 23, data, 256, nil, true)
	if err != nil {
		t.Fatalf("streamWrite with zero-length trailer: %v", err)
	}
	if ack.Offset != len(data) {
		t.Fatalf("ack offset = %d, want %d", ack.Offset, len(data))
	}
	got, err := streamRead(t, dn.Addr(), 23, 256, 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("read mismatch: %v", err)
	}
}

// A chunk corrupted in flight must be rejected at the receiving hop:
// error frame back, nothing stored, nothing reported.
func TestStreamWriteChunkChecksumCorruption(t *testing.T) {
	nn := startFakeNN(t)
	dn := startDN(t, nn)
	data := bytes.Repeat([]byte("x"), 600)
	st, err := proto.OpenStream(dn.Addr(), &proto.Message{
		Type: proto.MsgWriteBlockStream, Block: 24,
		Length: len(data), Checksum: Checksum(data), ChunkSize: 256,
	}, time.Second)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	defer st.Close()
	good := data[:256]
	if err := st.Send(&proto.Message{
		Type: proto.MsgChunk, Seq: 0, Offset: 0,
		Checksum: proto.ChunkChecksum(good),
	}, good); err != nil {
		t.Fatalf("Send chunk 0: %v", err)
	}
	// Chunk 1 carries a checksum that does not match its bytes — the
	// chunk-boundary corruption case.
	bad := data[256:512]
	if err := st.Send(&proto.Message{
		Type: proto.MsgChunk, Seq: 1, Offset: 256,
		Checksum: proto.ChunkChecksum(bad) + 1,
	}, bad); err != nil {
		t.Fatalf("Send chunk 1: %v", err)
	}
	_, _, err = st.Recv()
	var rerr *proto.RemoteError
	if !errors.As(err, &rerr) {
		t.Fatalf("Recv = %v, want *RemoteError for a corrupt chunk", err)
	}
	if dn.HasBlock(24) {
		t.Error("partially corrupt block stored anyway")
	}
	if len(nn.receivedBlocks()) != 0 {
		t.Error("corrupt block reported to namenode")
	}
}

// The opening frame's Length is peer-controlled. At the parent commit a
// negative or absurd value panicked the whole process ("makeslice: cap
// out of range" — handler panics are not recovered) and the chunk loop
// never compared what arrived against it. Each case must now end in an
// error frame with nothing stored or reported, and the node must live
// to serve the next write.
func TestStreamWriteRejectsBadAnnouncedLength(t *testing.T) {
	nn := startFakeNN(t)
	dn := startDN(t, nn)
	data := bytes.Repeat([]byte("y"), 600) // chunks of 256, 256, 88
	for _, tc := range []struct {
		name   string
		length int
		send   bool // false: the opening frame alone must be refused
	}{
		{"negative", -1, false},
		{"beyond the frame limit", proto.MaxPayloadBytes + 1, false},
		{"last chunk overruns", len(data) - 1, true},
		{"eof short of length", len(data) + 1, true},
	} {
		st, err := proto.OpenStream(dn.Addr(), &proto.Message{
			Type: proto.MsgWriteBlockStream, Block: 27,
			Length: tc.length, Checksum: Checksum(data), ChunkSize: 256,
		}, time.Second)
		if err != nil {
			t.Fatalf("%s: OpenStream: %v", tc.name, err)
		}
		if tc.send {
			_, err = streamChunks(t, st, data, 256, false)
		} else {
			_, _, err = st.Recv()
		}
		_ = st.Close()
		var rerr *proto.RemoteError
		if !errors.As(err, &rerr) {
			t.Errorf("%s: got %v, want *RemoteError", tc.name, err)
		}
		if dn.HasBlock(27) || len(nn.receivedBlocks()) != 0 {
			t.Errorf("%s: block stored or reported despite the bad length", tc.name)
		}
	}
	if _, err := streamWrite(t, dn.Addr(), 27, data, 256, nil, false); err != nil {
		t.Fatalf("clean write after the rejected ones: %v", err)
	}
}

// Pipeline failure keeps the head-durable contract: the writer sees an
// error, but the head node already stored and reported its replica.
func TestStreamWritePipelineFailureKeepsLocalCopy(t *testing.T) {
	nn := startFakeNN(t)
	dn := startDN(t, nn)
	data := bytes.Repeat([]byte("partial"), 100)
	ack, err := streamWrite(t, dn.Addr(), 25, data, 128, []string{"127.0.0.1:1"}, false)
	if err == nil {
		t.Fatalf("pipeline to dead node acked success: %+v", ack)
	}
	var rerr *proto.RemoteError
	if !errors.As(err, &rerr) {
		t.Fatalf("err = %v, want *RemoteError surfacing the pipeline failure", err)
	}
	if !dn.HasBlock(25) {
		t.Error("local copy dropped on streamed pipeline failure")
	}
	recv := nn.receivedBlocks()
	if len(recv) != 1 || recv[0] != 25 {
		t.Errorf("received reports = %v, want [25] (head reports before downstream outcome)", recv)
	}
}

// A streamed read resumes at an arbitrary offset — the primitive the
// client failover uses to continue a half-read block on the next
// replica without refetching bytes it already holds.
func TestStreamReadResumesAtOffset(t *testing.T) {
	nn := startFakeNN(t)
	dn := startDN(t, nn)
	data := bytes.Repeat([]byte("0123456789"), 70)
	if _, err := streamWrite(t, dn.Addr(), 26, data, 128, nil, false); err != nil {
		t.Fatalf("write: %v", err)
	}
	whole, err := streamRead(t, dn.Addr(), 26, 128, 0)
	if err != nil || !bytes.Equal(whole, data) {
		t.Fatalf("full streamed read: %v", err)
	}
	const resume = 333
	tail, err := streamRead(t, dn.Addr(), 26, 128, resume)
	if err != nil || !bytes.Equal(tail, data[resume:]) {
		t.Fatalf("resumed streamed read: %v", err)
	}
	if _, err := streamRead(t, dn.Addr(), 26, 128, len(data)+1); err == nil {
		t.Error("out-of-range resume offset accepted")
	}
}

// Steady-state heartbeats carry deltas, not full reports: after the
// boot-time full report, a written block shows up in a delta, and a
// namenode resync request escalates the next heartbeat back to a full
// report.
func TestHeartbeatDeltasAndResync(t *testing.T) {
	nn := startFakeNN(t)
	dn := startDN(t, nn)
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// Boot: exactly one full report, then deltas.
	waitFor("boot-time full report + first deltas", func() bool {
		nn.mu.Lock()
		defer nn.mu.Unlock()
		return nn.hbCount >= 1 && nn.deltas >= 2
	})
	nn.mu.Lock()
	if nn.hbCount != 1 {
		t.Errorf("full reports = %d, want exactly 1 at boot", nn.hbCount)
	}
	nn.mu.Unlock()

	data := []byte("delta me")
	if _, err := streamWrite(t, dn.Addr(), 30, data, 128, nil, false); err != nil {
		t.Fatalf("write: %v", err)
	}
	waitFor("block 30 in a delta report", func() bool {
		nn.mu.Lock()
		defer nn.mu.Unlock()
		for _, id := range nn.deltaRecv {
			if id == 30 {
				return true
			}
		}
		return false
	})

	// Resync request: the next delta's response asks for a full report.
	nn.mu.Lock()
	nn.askFull = true
	fullsBefore := nn.hbCount
	nn.mu.Unlock()
	waitFor("full report after resync request", func() bool {
		nn.mu.Lock()
		defer nn.mu.Unlock()
		return nn.hbCount > fullsBefore
	})
	nn.mu.Lock()
	defer nn.mu.Unlock()
	found := false
	for _, id := range nn.lastFull {
		if id == 30 {
			found = true
		}
	}
	if !found {
		t.Errorf("post-resync full report %v missing block 30", nn.lastFull)
	}
}
