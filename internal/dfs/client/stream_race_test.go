package client

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aurora/internal/dfs/proto"
)

// TestStreamFailoverAccountingStress runs concurrent read-ahead streamed
// reads against a replica that tears every stream after one chunk.
// Beyond being -race clean, it pins the failover accounting: a torn
// stream resumes at the verified prefix, so every block read costs
// exactly chunksPerBlock data frames no matter which replica the
// pre-drawn permutation tries first — a client that re-fetched verified
// bytes after failover would inflate the served-chunk total.
func TestStreamFailoverAccountingStress(t *testing.T) {
	const (
		chunk          = 64
		chunksPerBlock = 4
		blockSize      = chunk * chunksPerBlock
		blocks         = 3
		readers        = 4
		itersPerReader = 25
	)
	data := make([][]byte, blocks)
	for i := range data {
		data[i] = bytes.Repeat([]byte{byte('a' + i)}, blockSize)
	}
	var want []byte
	for _, d := range data {
		want = append(want, d...)
	}

	var served atomic.Int64 // chunk frames delivered across both replicas
	var mu sync.Mutex
	offsets := map[proto.BlockID][]int{} // every open's resume offset
	serve := func(dieAfter int) proto.StreamHandler {
		return func(open *proto.Message, _ []byte, st proto.BlockStream) {
			mu.Lock()
			offsets[open.Block] = append(offsets[open.Block], open.Offset)
			mu.Unlock()
			d := data[int(open.Block)-1]
			sent := 0
			for seq, off := 0, open.Offset; ; seq++ {
				if dieAfter > 0 && sent >= dieAfter {
					return // torn stream: the client must fail over
				}
				end := off + open.ChunkSize
				if end > len(d) {
					end = len(d)
				}
				part := d[off:end]
				msg := &proto.Message{
					Type: proto.MsgChunk, Block: open.Block,
					Seq: seq, Offset: off, Eof: end == len(d),
					Length: len(d), Checksum: proto.ChunkChecksum(part),
				}
				// Counted before the send: the reader can be done with the
				// last frame before this goroutine runs again.
				served.Add(1)
				if st.Send(msg, part) != nil {
					return
				}
				sent++
				if msg.Eof {
					return
				}
				off = end
			}
		}
	}
	flaky := startStreamFake(t, serve(1)) // one verified chunk, then dies
	good := startStreamFake(t, serve(0))

	const path = "/stress/file"
	nn := func(_ string, req *proto.Message, _ []byte, _ time.Duration) (*proto.Message, []byte, error) {
		if req.Type != proto.MsgGetLocations {
			return proto.ErrorMessage(errors.New("unexpected namenode call " + string(req.Type))), nil, nil
		}
		locs := make([]proto.BlockLocation, blocks)
		for i := range locs {
			locs[i] = proto.BlockLocation{
				Block:     proto.BlockID(i + 1),
				Length:    blockSize,
				Addresses: []string{flaky, good},
			}
		}
		return &proto.Message{Type: proto.MsgOK, Path: path, Locations: locs}, nil, nil
	}

	c := New("nn:0", WithSeed(7), WithChunkSize(chunk), WithReadAhead(2),
		WithCall(nn), WithOpenStream(proto.OpenStream))

	var wg sync.WaitGroup
	errCh := make(chan error, readers*itersPerReader)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < itersPerReader; i++ {
				got, err := c.Read(path) // read-ahead fan-out path
				if err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(got, want) {
					errCh <- errors.New("read returned wrong bytes")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("stress read: %v", err)
	}

	// Every open must start either at 0 (first replica of an attempt)
	// or at exactly one chunk — the verified prefix the flaky replica
	// delivered before dying. Anything else re-fetches verified bytes
	// or skips unverified ones.
	failovers := 0
	mu.Lock()
	for b, offs := range offsets {
		for _, off := range offs {
			if off != 0 && off != chunk {
				t.Errorf("block %d: stream opened at offset %d, want 0 or %d", b, off, chunk)
			}
			if off == chunk {
				failovers++
			}
		}
	}
	mu.Unlock()
	if failovers == 0 {
		t.Fatal("no failover resume ever happened; the flaky replica was never tried first")
	}

	// The per-block cost is exact: a good-first attempt serves all
	// chunks from one replica; a flaky-first attempt serves 1 verified
	// chunk plus the remaining chunksPerBlock-1 from the failover
	// replica. Re-fetching the verified chunk would make this total
	// overshoot.
	wantChunks := int64(readers * itersPerReader * blocks * chunksPerBlock)
	if got := served.Load(); got != wantChunks {
		t.Fatalf("replicas served %d chunk frames, want exactly %d (verified bytes re-fetched after failover?)", got, wantChunks)
	}
}
