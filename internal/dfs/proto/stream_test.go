package proto

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"net"
	"runtime"
	"testing"
	"time"

	"aurora/internal/metrics"
)

// streamServer starts a ServeStreams server with the given handler and
// tears it down with the test.
func streamServer(t *testing.T, sh StreamHandler) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeStreams(ln, func(req *Message, payload []byte) (*Message, []byte) {
		return &Message{Type: MsgOK}, nil
	}, sh, time.Second)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// A read-style stream: the opening frame names a block, the server
// answers with sequenced chunks and an EOF marker, and the bytes
// reassemble exactly. The chunk counters must also move — the smoke
// gate in CI asserts on them.
func TestStreamReadRoundTrip(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789abcdef"), 100)
	const chunk = 300
	srv := streamServer(t, func(open *Message, payload []byte, st BlockStream) {
		if open.Type != MsgReadBlockStream {
			t.Errorf("opening frame type = %s, want %s", open.Type, MsgReadBlockStream)
			return
		}
		for seq, off := 0, 0; ; seq++ {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			msg := &Message{Type: MsgChunk, Seq: seq, Offset: off, Eof: end == len(data)}
			if err := st.Send(msg, data[off:end]); err != nil {
				t.Errorf("server Send: %v", err)
				return
			}
			if msg.Eof {
				return
			}
			off = end
		}
	})

	sent := metrics.Default.Counter("aurora_stream_chunks", metrics.L("dir", "send")).Value()
	recvd := metrics.Default.Counter("aurora_stream_chunks", metrics.L("dir", "recv")).Value()

	st, err := OpenStream(srv.Addr(), &Message{Type: MsgReadBlockStream, Block: 7}, time.Second)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	defer st.Close()
	var got []byte
	for seq := 0; ; seq++ {
		msg, payload, err := st.Recv()
		if err != nil {
			t.Fatalf("Recv chunk %d: %v", seq, err)
		}
		if msg.Seq != seq {
			t.Fatalf("chunk out of order: seq %d, want %d", msg.Seq, seq)
		}
		if msg.Offset != len(got) {
			t.Fatalf("chunk %d offset %d, want %d", seq, msg.Offset, len(got))
		}
		got = append(got, payload...)
		if msg.Eof {
			break
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("reassembled %d bytes != %d sent", len(got), len(data))
	}
	if v := metrics.Default.Counter("aurora_stream_chunks", metrics.L("dir", "send")).Value(); v <= sent {
		t.Error("send-side chunk counter did not grow")
	}
	if v := metrics.Default.Counter("aurora_stream_chunks", metrics.L("dir", "recv")).Value(); v <= recvd {
		t.Error("recv-side chunk counter did not grow")
	}
}

// A write-style stream: the client pushes chunks, the server verifies
// per-chunk checksums as they land and acks once at the end — the
// tail-ack shape the pipeline write path relays hop by hop.
func TestStreamWriteRoundTrip(t *testing.T) {
	data := bytes.Repeat([]byte("wxyz"), 500)
	done := make(chan []byte, 1)
	srv := streamServer(t, func(open *Message, payload []byte, st BlockStream) {
		var got []byte
		for {
			msg, chunk, err := st.Recv()
			if err != nil {
				t.Errorf("server Recv: %v", err)
				return
			}
			if msg.Checksum != ChunkChecksum(chunk) {
				//lint:ignore errcheck best effort; test fails via the channel
				_ = st.Send(ErrorMessage(errors.New("chunk checksum mismatch")), nil)
				return
			}
			got = append(got, chunk...)
			if msg.Eof {
				break
			}
		}
		if err := st.Send(&Message{Type: MsgStreamAck, Offset: len(got)}, nil); err != nil {
			t.Errorf("server ack: %v", err)
			return
		}
		done <- got
	})

	st, err := OpenStream(srv.Addr(), &Message{Type: MsgWriteBlockStream, Block: 3}, time.Second)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	defer st.Close()
	const chunk = 700
	for seq, off := 0, 0; off < len(data); seq++ {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		part := data[off:end]
		msg := &Message{
			Type:     MsgChunk,
			Seq:      seq,
			Offset:   off,
			Eof:      end == len(data),
			Checksum: ChunkChecksum(part),
		}
		if err := st.Send(msg, part); err != nil {
			t.Fatalf("Send chunk %d: %v", seq, err)
		}
		off = end
	}
	ack, _, err := st.Recv()
	if err != nil {
		t.Fatalf("Recv ack: %v", err)
	}
	if ack.Type != MsgStreamAck || ack.Offset != len(data) {
		t.Fatalf("ack = %+v, want MsgStreamAck for %d bytes", ack, len(data))
	}
	select {
	case got := <-done:
		if !bytes.Equal(got, data) {
			t.Fatalf("server stored %d bytes != %d sent", len(got), len(data))
		}
	case <-time.After(time.Second):
		t.Fatal("server handler did not finish")
	}
}

// A MsgError frame mid-stream surfaces as a *RemoteError from Recv,
// exactly like a one-shot Call — the client failover path keys on it.
func TestStreamErrorFrame(t *testing.T) {
	srv := streamServer(t, func(open *Message, payload []byte, st BlockStream) {
		//lint:ignore errcheck best effort; the client side asserts
		_ = st.Send(ErrorMessage(errors.New("replica corrupt")), nil)
	})
	st, err := OpenStream(srv.Addr(), &Message{Type: MsgReadBlockStream, Block: 1}, time.Second)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	defer st.Close()
	_, _, err = st.Recv()
	var rerr *RemoteError
	if !errors.As(err, &rerr) {
		t.Fatalf("Recv = %v, want *RemoteError", err)
	}
}

// A server without a stream handler must reject stream openings with an
// error frame rather than hanging the client.
func TestServeWithoutStreamHandlerRejects(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, func(req *Message, payload []byte) (*Message, []byte) {
		return &Message{Type: MsgOK}, nil
	}, time.Second)
	defer srv.Close()

	st, err := OpenStream(srv.Addr(), &Message{Type: MsgWriteBlockStream}, time.Second)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	defer st.Close()
	_, _, err = st.Recv()
	var rerr *RemoteError
	if !errors.As(err, &rerr) {
		t.Fatalf("Recv = %v, want *RemoteError from the handlerless server", err)
	}
}

// The xor-digest over a block set must be order-independent and support
// incremental maintenance: adding then removing a block restores the
// old digest, which is what lets the namenode and datanode agree on a
// digest without ever exchanging the full set.
func TestBlockSetDigest(t *testing.T) {
	a := []BlockID{1, 2, 3, 40, 500}
	b := []BlockID{500, 40, 3, 2, 1}
	if BlockSetDigest(a) != BlockSetDigest(b) {
		t.Fatal("digest depends on order")
	}
	d := BlockSetDigest(a)
	d ^= BlockDigest(999) // add
	if d == BlockSetDigest(a) {
		t.Fatal("adding a block did not change the digest")
	}
	d ^= BlockDigest(999) // remove
	if d != BlockSetDigest(a) {
		t.Fatal("add+remove did not restore the digest")
	}
	if BlockSetDigest(nil) != 0 {
		t.Fatal("empty set digest must be 0")
	}
	// Nearby IDs must not produce nearby digests — the whole point of
	// the splitmix64 finalizer is to make single-block divergence
	// detectable with overwhelming probability.
	if BlockDigest(1)^BlockDigest(2) == 3 {
		t.Fatal("digest looks like identity, not a mixer")
	}
}

// The Recv contract: a payload is good until the next Recv on the same
// stream, which may read into the same memory. A consumer that copies
// before calling Recv again gets every chunk intact, and a stream of
// equal-size chunks costs one payload buffer, not one per chunk.
func TestStreamRecvReusesPayloadBuffer(t *testing.T) {
	const chunks, size = 32, 64 << 10
	want := make([][]byte, chunks)
	for seq := range want {
		want[seq] = bytes.Repeat([]byte{byte(seq + 1)}, size)
	}
	srv := streamServer(t, func(open *Message, _ []byte, st BlockStream) {
		for seq := 0; seq < chunks; seq++ {
			if err := st.Send(&Message{Type: MsgChunk, Seq: seq, Eof: seq == chunks-1}, want[seq]); err != nil {
				t.Errorf("server Send: %v", err)
				return
			}
		}
	})
	st, err := OpenStream(srv.Addr(), &Message{Type: MsgReadBlockStream, Block: 1}, time.Second)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	defer st.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var first, kept []byte
	for seq := 0; seq < chunks; seq++ {
		_, payload, err := st.Recv()
		if err != nil {
			t.Fatalf("Recv chunk %d: %v", seq, err)
		}
		if !bytes.Equal(payload, want[seq]) {
			t.Fatalf("chunk %d arrived damaged", seq)
		}
		switch seq {
		case 0:
			first, kept = payload, bytes.Clone(payload)
		case 1:
			if &payload[0] != &first[0] {
				t.Error("second Recv got its own buffer; equal-size chunks should reuse the stream's")
			}
			if !bytes.Equal(kept, want[0]) {
				t.Error("a payload copied out before the next Recv did not survive it")
			}
		}
	}
	runtime.ReadMemStats(&after)
	// One 64 KiB buffer plus ~1 KiB of header decoding per frame on each
	// side; one buffer per chunk would be 32x the payload size.
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*size {
		t.Errorf("receiving %d chunks of %d bytes allocated %d bytes, want one payload buffer (<= %d)", chunks, size, got, 4*size)
	}
}

// ChecksumCombine is the CRC32C of a concatenation from the two sums
// alone, so a receiver can fold verified chunk sums into a block sum
// and a sender can stamp the block sum without a second pass. Random
// splits of random data, with empty halves and halves past 64 KiB.
func TestChecksumCombine(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	data := make([]byte, 300<<10)
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	check := func(a, b []byte) {
		t.Helper()
		if got, want := ChecksumCombine(ChunkChecksum(a), ChunkChecksum(b), len(b)), ChunkChecksum(append(a[:len(a):len(a)], b...)); got != want {
			t.Fatalf("ChecksumCombine over %d+%d bytes = %#x, want %#x", len(a), len(b), got, want)
		}
	}
	check(nil, nil)
	check(data[:0], data[:100<<10])
	check(data[:100<<10], data[:0])
	check(data[:200<<10], data[200<<10:])
	for range 2000 {
		n := rng.IntN(len(data) + 1)
		lo := rng.IntN(len(data) - n + 1)
		piece := data[lo : lo+n]
		cut := rng.IntN(n + 1)
		check(piece[:cut], piece[cut:])
	}
}

// RecvInto reads each payload that fits the destination's spare
// capacity straight into it, so a receiver that reslices its buffer
// over the returned region holds the block without copying a byte; a
// payload that does not fit comes back through the stream's own buffer
// with the destination untouched. SendBlock's opening frame carries the
// whole-block CRC it derived from its chunk sums.
func TestStreamRecvInto(t *testing.T) {
	data := make([]byte, 10_000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	type result struct {
		open    *Message
		got     []byte
		inPlace bool
	}
	done := make(chan result, 1)
	srv := streamServer(t, func(open *Message, _ []byte, st BlockStream) {
		res := result{open: open, inPlace: true}
		buf := make([]byte, 0, open.Length)
		for {
			msg, chunk, err := st.RecvInto(buf)
			if err != nil {
				t.Errorf("RecvInto: %v", err)
				break
			}
			if len(chunk) > 0 && &chunk[0] != &buf[:cap(buf)][len(buf)] {
				res.inPlace = false
			}
			buf = buf[:len(buf)+len(chunk)]
			if msg.Eof {
				break
			}
		}
		res.got = buf
		done <- res
		//lint:ignore errcheck the client checks the ack
		_ = st.Send(&Message{Type: MsgStreamAck, Offset: len(buf)}, nil)
	})
	if err := SendBlock(OpenStream, srv.Addr(), 9, nil, data, 3000, time.Second); err != nil {
		t.Fatalf("SendBlock: %v", err)
	}
	res := <-done
	if !bytes.Equal(res.got, data) || !res.inPlace {
		t.Errorf("received %d bytes (equal: %t), every chunk in place: %t", len(res.got), bytes.Equal(res.got, data), res.inPlace)
	}
	if res.open.Checksum != ChunkChecksum(data) {
		t.Errorf("opening frame Checksum = %#x, want the block's CRC32C %#x", res.open.Checksum, ChunkChecksum(data))
	}

	// A payload larger than the spare capacity falls back to Recv's path.
	want := bytes.Repeat([]byte{0x5a}, 64)
	srv = streamServer(t, func(_ *Message, _ []byte, st BlockStream) {
		//lint:ignore errcheck the client checks what arrives
		_ = st.Send(&Message{Type: MsgChunk, Eof: true}, want)
	})
	st, err := OpenStream(srv.Addr(), &Message{Type: MsgReadBlockStream, Block: 1}, time.Second)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	defer st.Close()
	small := make([]byte, 4, 16)
	_, payload, err := st.RecvInto(small)
	if err != nil || !bytes.Equal(payload, want) {
		t.Fatalf("RecvInto of an oversized payload = %d bytes, %v", len(payload), err)
	}
	if !bytes.Equal(small[:cap(small)], make([]byte, 16)) {
		t.Error("an oversized payload was written into the destination")
	}
}
