package client

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"aurora/internal/dfs/proto"
	"aurora/internal/metrics"
	"aurora/internal/retrypolicy"
)

// startStreamFake runs a proto server whose stream side is scripted and
// whose one-shot side rejects everything — the unit-test stand-in for a
// datanode's data path.
func startStreamFake(t *testing.T, h proto.StreamHandler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := proto.ServeStreams(ln, func(req *proto.Message, _ []byte) (*proto.Message, []byte) {
		return proto.ErrorMessage(errors.New("unexpected one-shot call")), nil
	}, h, time.Second)
	t.Cleanup(func() { _ = srv.Close() })
	return srv.Addr()
}

// serveChunks streams data[open.Offset:] back in open.ChunkSize chunks,
// stopping (connection drop) after dieAfter chunks when dieAfter > 0.
func serveChunks(data []byte, dieAfter int) proto.StreamHandler {
	return func(open *proto.Message, _ []byte, st proto.BlockStream) {
		sent := 0
		for seq, off := 0, open.Offset; ; seq++ {
			if dieAfter > 0 && sent >= dieAfter {
				return // server closes the conn; client sees a torn stream
			}
			end := off + open.ChunkSize
			if end > len(data) {
				end = len(data)
			}
			part := data[off:end]
			msg := &proto.Message{
				Type: proto.MsgChunk, Block: open.Block,
				Seq: seq, Offset: off, Eof: end == len(data),
				Length: len(data), Checksum: proto.ChunkChecksum(part),
			}
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

// acceptWrite is a pipeline-tail stand-in: it reassembles one write
// stream, checking every chunk, hands the block to stored and acks.
func acceptWrite(t *testing.T, stored func(open *proto.Message, data []byte)) proto.StreamHandler {
	return func(open *proto.Message, _ []byte, st proto.BlockStream) {
		if open.Type != proto.MsgWriteBlockStream {
			t.Errorf("opening frame %q, want write stream", open.Type)
			return
		}
		var buf []byte
		for {
			msg, chunk, err := st.Recv()
			if err != nil {
				return
			}
			if msg.Checksum != proto.ChunkChecksum(chunk) || msg.Offset != len(buf) {
				t.Errorf("bad chunk seq %d: offset %d at %d bytes", msg.Seq, msg.Offset, len(buf))
				return
			}
			buf = append(buf, chunk...)
			if msg.Eof {
				break
			}
		}
		if len(buf) != open.Length || proto.ChunkChecksum(buf) != open.Checksum {
			t.Errorf("block %d: %d bytes, opening frame announced %d (or whole-block checksum differs)", open.Block, len(buf), open.Length)
			return
		}
		stored(open, buf)
		_ = st.Send(&proto.Message{
			Type: proto.MsgStreamAck, Block: open.Block,
			Offset: len(buf), Checksum: proto.ChunkChecksum(buf),
		}, nil)
	}
}

// The write path delivers the block to the pipeline head in chunks and
// treats the tail ack as the commit signal.
func TestStreamedWriteDeliversAndCommits(t *testing.T) {
	var mu sync.Mutex
	stored := map[proto.BlockID][]byte{}
	var pipeline []string
	addr := startStreamFake(t, acceptWrite(t, func(open *proto.Message, data []byte) {
		mu.Lock()
		stored[open.Block], pipeline = data, open.Pipeline
		mu.Unlock()
	}))
	data := bytes.Repeat([]byte("streamed write "), 20)
	if err := proto.SendBlock(proto.OpenStream, addr, 7, []string{"next:1"}, data, 64, time.Second); err != nil {
		t.Fatalf("SendBlock: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(stored[7], data) {
		t.Errorf("stored %d bytes, want %d", len(stored[7]), len(data))
	}
	if len(pipeline) != 1 || pipeline[0] != "next:1" {
		t.Errorf("opening frame pipeline = %v, want [next:1]", pipeline)
	}
}

// A replica lost mid-stream must not cost the bytes already verified:
// the client resumes on the next replica at the first missing offset.
func TestStreamedReadResumesOnFailover(t *testing.T) {
	const chunk = 128
	data := bytes.Repeat([]byte("failover tail "), 40) // > 4 chunks
	flaky := startStreamFake(t, serveChunks(data, 2))  // dies after 2 chunks
	var mu sync.Mutex
	resumedAt := -1
	good := startStreamFake(t, func(open *proto.Message, p []byte, st proto.BlockStream) {
		mu.Lock()
		resumedAt = open.Offset
		mu.Unlock()
		serveChunks(data, 0)(open, p, st)
	})
	c := New("unused:0", WithSeed(1), WithChunkSize(chunk))
	loc := proto.BlockLocation{Block: 9, Length: len(data), Addresses: []string{flaky, good}}
	got, err := c.ReadBlockFrom(loc)
	if err != nil {
		t.Fatalf("ReadBlockFrom: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("reassembled %d bytes, want %d", len(got), len(data))
	}
	mu.Lock()
	defer mu.Unlock()
	if resumedAt != 2*chunk {
		t.Errorf("second replica opened at offset %d, want %d (chunk-granularity resume)", resumedAt, 2*chunk)
	}
}

// A corrupt chunk fails that replica, and the retained prefix still
// resumes cleanly on the next one.
func TestStreamedReadChecksumFailsOver(t *testing.T) {
	data := bytes.Repeat([]byte("x"), 512)
	corrupt := startStreamFake(t, func(open *proto.Message, _ []byte, st proto.BlockStream) {
		part := data[open.Offset : open.Offset+128]
		_ = st.Send(&proto.Message{
			Type: proto.MsgChunk, Offset: open.Offset, Length: len(data),
			Checksum: proto.ChunkChecksum(part) + 1, // lies about the bytes
		}, part)
	})
	good := startStreamFake(t, serveChunks(data, 0))
	c := New("unused:0", WithSeed(1), WithChunkSize(128))
	loc := proto.BlockLocation{Block: 4, Length: len(data), Addresses: []string{corrupt, good}}
	got, err := c.ReadBlockFrom(loc)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after corrupt replica: %v (%d bytes)", err, len(got))
	}
}

// A chunk's Length field is peer-controlled: an absurd announcement must
// not size the client's buffer (it once panicked with "makeslice: cap
// out of range"). The namenode's length sizes it; the announcement is
// not read at all.
func TestStreamedReadIgnoresAbsurdAnnouncedLength(t *testing.T) {
	data := []byte("short block")
	liar := startStreamFake(t, func(open *proto.Message, _ []byte, st proto.BlockStream) {
		_ = st.Send(&proto.Message{
			Type: proto.MsgChunk, Block: open.Block, Eof: true,
			Length: 1 << 50, Checksum: proto.ChunkChecksum(data),
		}, data)
	})
	c := New("unused:0", WithSeed(1))
	got, err := c.ReadBlockFrom(proto.BlockLocation{Block: 3, Length: len(data), Addresses: []string{liar}})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadBlockFrom = %q, %v; want %q", got, err, data)
	}
	if cap(got) != len(data) {
		t.Errorf("buffer capacity %d, want the namenode's length %d", cap(got), len(data))
	}
}

// locationsOf is a namenode stand-in that answers every call with one
// file's block locations.
func locationsOf(t *testing.T, locs ...proto.BlockLocation) string {
	t.Helper()
	return startFake(t, func(*proto.Message, []byte) (*proto.Message, []byte) {
		return &proto.Message{Type: proto.MsgOK, Locations: locs}, nil
	}).srv.Addr()
}

// A replica that disagrees with the namenode about a block's length —
// it ends early, or keeps going — is a bad replica: the read fails over
// from the last verified byte instead of returning a file whose length
// differs from Stat's. Both ways into a block read are held to it: a
// slot of Client.Read's file buffer, and ReadBlockFrom.
func TestReadHoldsReplicasToNamenodeLength(t *testing.T) {
	const chunk = 128
	data := bytes.Repeat([]byte("agreed length "), 40) // 560 bytes, > 4 chunks
	for _, tc := range []struct {
		name     string
		served   []byte // what the bad replica holds
		resumeAt int    // first byte the good replica is asked for
	}{
		{"short", data[:3*chunk+10], 3 * chunk},
		{"long", append(bytes.Clone(data), "and then some"...), 4 * chunk},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, via := range []struct {
				name string
				read func(*Client, proto.BlockLocation) ([]byte, error)
			}{
				{"slot", func(c *Client, loc proto.BlockLocation) ([]byte, error) {
					_, slots, err := fileBuffer([]proto.BlockLocation{loc})
					if err != nil {
						t.Fatalf("fileBuffer: %v", err)
					}
					return c.readBlockOrdered(loc, []int{0, 1}, slots[0])
				}},
				{"ReadBlockFrom", (*Client).ReadBlockFrom},
			} {
				t.Run(via.name, func(t *testing.T) {
					bad := startStreamFake(t, serveChunks(tc.served, 0))
					var mu sync.Mutex
					resumedAt := -1
					good := startStreamFake(t, func(open *proto.Message, p []byte, st proto.BlockStream) {
						mu.Lock()
						resumedAt = open.Offset
						mu.Unlock()
						serveChunks(data, 0)(open, p, st)
					})
					c := New("unused:0", WithSeed(1), WithChunkSize(chunk))
					loc := proto.BlockLocation{Block: 9, Length: len(data), Addresses: []string{bad, good}}
					failovers := metrics.Default.Counter("dfs.client.read_failover").Value()
					got, err := via.read(c, loc)
					if err != nil || !bytes.Equal(got, data) {
						t.Fatalf("read after a %s replica = %d bytes, %v; want the %d agreed bytes", tc.name, len(got), err, len(data))
					}
					if n := metrics.Default.Counter("dfs.client.read_failover").Value() - failovers; n != 1 {
						t.Errorf("%d failovers, want 1", n)
					}
					mu.Lock()
					defer mu.Unlock()
					if resumedAt != tc.resumeAt {
						t.Errorf("good replica opened at offset %d, want %d (the last verified byte)", resumedAt, tc.resumeAt)
					}
				})
			}
		})
	}

	// With no replica that agrees, the read fails; it never hands back
	// short data.
	short := startStreamFake(t, serveChunks(data[:200], 0))
	nn := locationsOf(t, proto.BlockLocation{Block: 9, Length: len(data), Addresses: []string{short, short}})
	c := New(nn, WithSeed(1), WithChunkSize(chunk), WithRetry(retrypolicy.Policy{}))
	if got, err := c.Read("/f"); !errors.Is(err, ErrNoReplica) || got != nil {
		t.Fatalf("Read with only short replicas = %d bytes, %v; want ErrNoReplica and no data", len(got), err)
	}
}

// The namenode's per-block lengths size the file buffer, so a length no
// block can have fails the read before anything is allocated or fetched.
func TestReadRejectsImpossibleBlockLength(t *testing.T) {
	for _, length := range []int{-1, proto.MaxPayloadBytes + 1} {
		opened := false
		c := New(locationsOf(t, proto.BlockLocation{Block: 1, Length: length, Addresses: []string{"dn:1"}}),
			WithSeed(1), WithOpenStream(func(string, *proto.Message, time.Duration) (proto.BlockStream, error) {
				opened = true
				return nil, errors.New("unreachable")
			}))
		if _, err := c.Read("/f"); err == nil || opened {
			t.Errorf("Read with block length %d: err = %v, stream opened = %t; want an error before any stream", length, err, opened)
		}
	}
}

// Read assembles the file in place: one buffer for the whole file, each
// chunk copied once into it. The budget is the file plus a quarter —
// room for one receive buffer per stream and the frame headers — where
// per-chunk, per-block and concatenation copies came to about 4x.
func TestReadAllocatesTheFileOnce(t *testing.T) {
	const blocks, blockSize = 4, 1 << 20
	file := make([]byte, blocks*blockSize)
	for i := range file {
		file[i] = byte(i>>8) ^ byte(i)
	}
	dn := startStreamFake(t, func(open *proto.Message, p []byte, st proto.BlockStream) {
		off := int(open.Block) * blockSize
		serveChunks(file[off:off+blockSize], 0)(open, p, st)
	})
	locs := make([]proto.BlockLocation, blocks)
	for i := range locs {
		locs[i] = proto.BlockLocation{Block: proto.BlockID(i), Length: blockSize, Addresses: []string{dn}}
	}
	c := New(locationsOf(t, locs...), WithSeed(1), WithChunkSize(64<<10), WithReadAhead(0))
	read := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := c.Read("/f")
		runtime.ReadMemStats(&after)
		if err != nil || !bytes.Equal(got, file) {
			t.Fatalf("Read = %d bytes, %v", len(got), err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	read() // first use of metrics series and the like
	if got, budget := read(), uint64(len(file)*5/4); got > budget {
		t.Errorf("reading a %d-byte file allocated %d bytes, budget %d", len(file), got, budget)
	}
}
