//go:build !race

package datanode

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"aurora/internal/dfs/proto"
)

// discardStream is the client end of a read stream with the network
// taken out: it swallows every frame, so what a handler allocates while
// serving into it is the datanode's own share.
type discardStream struct{ chunks, bytes int }

func (s *discardStream) Send(msg *proto.Message, payload []byte) error {
	s.chunks++
	s.bytes += len(payload)
	return nil
}
func (s *discardStream) Recv() (*proto.Message, []byte, error) { return nil, nil, errors.New("eof") }
func (s *discardStream) RecvInto([]byte) (*proto.Message, []byte, error) {
	return s.Recv()
}
func (s *discardStream) Close() error { return nil }

// Serving a block borrows its buffer from the node's free list and
// returns it when the last chunk has left, so repeated reads of a block
// reuse one buffer instead of allocating (and zeroing, and collecting)
// a block's worth each. The budget of a quarter of one-buffer-per-read
// leaves room for the collector emptying the pool several times mid-test.
// (The file is built without -race only: under the race detector
// sync.Pool drops a quarter of all Puts on purpose.)
func TestReadStreamRecyclesBlockBuffers(t *testing.T) {
	const reads, size = 64, 256 << 10
	nn := startFakeNN(t)
	dn, err := Start(Config{
		NameNodeAddr: nn.srv.Addr(), CapacityBlocks: 4,
		HeartbeatInterval: time.Hour, DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = dn.Close() })
	data := bytes.Repeat([]byte("recycled "), size/9+1)[:size]
	if _, err := streamWrite(t, dn.Addr(), 3, data, 64<<10, nil, false); err != nil {
		t.Fatalf("write: %v", err)
	}
	open := &proto.Message{Type: proto.MsgReadBlockStream, Block: 3, ChunkSize: 64 << 10}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		var sink discardStream
		dn.handleReadStream(open, &sink)
		if sink.bytes != size {
			t.Fatalf("read %d served %d bytes in %d chunks, want %d", i, sink.bytes, sink.chunks, size)
		}
	}
	runtime.ReadMemStats(&after)
	if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(reads/4*size); got >= budget {
		t.Errorf("%d reads of a %d-byte block allocated %d bytes on the datanode, want < %d", reads, size, got, budget)
	}
}

// feedStream is the upstream end of a write stream with the network
// taken out: each receive hands over the next chunk of data as the
// socket read would, into the destination's spare capacity when it
// fits, and the handler's answer is kept.
type feedStream struct {
	data []byte
	size int
	off  int
	ack  *proto.Message
}

func (s *feedStream) Send(msg *proto.Message, _ []byte) error {
	s.ack = msg
	return nil
}
func (s *feedStream) Recv() (*proto.Message, []byte, error) { return s.RecvInto(nil) }
func (s *feedStream) RecvInto(buf []byte) (*proto.Message, []byte, error) {
	end := min(s.off+s.size, len(s.data))
	part := s.data[s.off:end]
	msg := &proto.Message{
		Type: proto.MsgChunk, Offset: s.off, Eof: end == len(s.data),
		Checksum: proto.ChunkChecksum(part),
	}
	s.off = end
	if cap(buf)-len(buf) >= len(part) {
		part = append(buf[len(buf):], part...)
	}
	return msg, part, nil
}
func (s *feedStream) Close() error { return nil }

// The write-side twin of TestReadStreamRecyclesBlockBuffers: a block
// written into a memory store is kept in the very buffer its chunks
// were received into, and deleting it hands that buffer back, so
// write-then-delete cycles reuse one buffer instead of allocating a
// block's worth per write. A short block written after a full-size
// buffer went back must not be stored in it: a replica pins no more
// memory than its length.
func TestWriteStreamRecyclesBlockBuffers(t *testing.T) {
	const writes, size = 64, 256 << 10
	nn := startFakeNN(t)
	dn, err := Start(Config{
		NameNodeAddr: nn.srv.Addr(), CapacityBlocks: 4,
		HeartbeatInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = dn.Close() })
	data := bytes.Repeat([]byte("recycled "), size/9+1)[:size]
	write := func(id proto.BlockID, data []byte) {
		t.Helper()
		feed := &feedStream{data: data, size: 64 << 10}
		dn.handleWriteStream(&proto.Message{
			Type: proto.MsgWriteBlockStream, Block: id,
			Length: len(data), Checksum: Checksum(data), ChunkSize: feed.size,
		}, feed)
		if feed.ack == nil || feed.ack.Type != proto.MsgStreamAck || feed.ack.Offset != len(data) {
			t.Fatalf("write of block %d answered %+v, want an ack at offset %d", id, feed.ack, len(data))
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < writes; i++ {
		write(3, data)
		if !dn.store.Delete(3) {
			t.Fatalf("write %d: block 3 not stored", i)
		}
	}
	runtime.ReadMemStats(&after)
	if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(writes/4*size); got >= budget {
		t.Errorf("%d write-delete cycles of a %d-byte block allocated %d bytes on the datanode, want < %d", writes, size, got, budget)
	}

	short := data[:size/3]
	write(4, short)
	ms := dn.store.(*memStore)
	ms.mu.RLock()
	kept := cap(ms.blocks[4])
	ms.mu.RUnlock()
	if kept != len(short) {
		t.Errorf("a %d-byte block is stored in a buffer of capacity %d", len(short), kept)
	}
	if got, err := dn.store.Get(4); err != nil || !bytes.Equal(got, short) {
		t.Errorf("Get(4) = %d bytes, %v; want the short block back", len(got), err)
	}
}
