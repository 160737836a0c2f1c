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
func (s *discardStream) Close() error                          { return nil }

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
