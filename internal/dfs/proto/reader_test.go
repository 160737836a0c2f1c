package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

// referenceReadFrame is the unbuffered frame reader the connection's
// frameReader replaced: one io.ReadFull each for the length prefix, the
// header and the payload, reading nothing past the frame. A payload
// that fits dst's spare capacity lands there.
func referenceReadFrame(r io.Reader, dst []byte) (*Message, []byte, error) {
	var lens [frameLensBytes]byte
	if _, err := io.ReadFull(r, lens[:]); err != nil {
		return nil, nil, err
	}
	headerLen := binary.BigEndian.Uint32(lens[0:4])
	payloadLen := int(binary.BigEndian.Uint32(lens[4:8]))
	if headerLen > MaxHeaderBytes || payloadLen > MaxPayloadBytes {
		return nil, nil, ErrFrameTooLarge
	}
	head := make([]byte, headerLen)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, nil, err
	}
	var msg Message
	if err := decodeHeader(head, &msg); err != nil {
		return nil, nil, err
	}
	var payload []byte
	if payloadLen > 0 {
		if cap(dst)-len(dst) >= payloadLen {
			payload = dst[len(dst) : len(dst)+payloadLen]
		} else {
			payload = make([]byte, payloadLen)
		}
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, nil, err
		}
	}
	return &msg, payload, nil
}

// fragReader hands out at most 1..max bytes per Read, at random: the
// worst a TCP connection can do to a frame.
type fragReader struct {
	r   io.Reader
	rng *rand.Rand
	max int
}

func (f *fragReader) Read(p []byte) (int, error) {
	if n := 1 + f.rng.Intn(f.max); n < len(p) {
		p = p[:n]
	}
	return f.r.Read(p)
}

// wireFrame is one frame of a generated connection and how its receiver
// reads it: greedily (a control frame, a stream's opening frame) or
// exactly (a stream frame), and into a destination or not. A write
// stream's opening frame leaves in the next frame's write (withNext).
type wireFrame struct {
	msg      *Message
	payload  []byte
	greedy   bool
	dst      bool
	withNext bool
}

// randomConversation is a random sequence of the exchanges one
// connection carries: control frames, a write stream whose opening frame
// leaves coalesced with its first chunk, and a read stream's pipelined
// chunk frames; payloads straddle the read buffer's size. It returns the
// frames and the bytes on the wire.
func randomConversation(t *testing.T, rng *rand.Rand) ([]wireFrame, []byte) {
	t.Helper()
	cases := codecCases()
	sizes := []int{0, 1, 7, 500, readBufBytes - 40, readBufBytes, readBufBytes + 9, 3 * readBufBytes, 64 << 10}
	var frames []wireFrame
	var wire bytes.Buffer
	chunks := func(n int, dst bool) {
		for seq := 0; seq < n; seq++ {
			payload := make([]byte, sizes[rng.Intn(len(sizes))])
			rng.Read(payload)
			msg := &Message{Type: MsgChunk, Block: 42, Seq: seq, Eof: seq == n-1, Checksum: ChunkChecksum(payload)}
			frames = append(frames, wireFrame{msg: msg, payload: payload, dst: dst})
		}
	}
	for len(frames) < 30 {
		start := len(frames)
		switch rng.Intn(3) {
		case 0:
			frames = append(frames, wireFrame{msg: cases[rng.Intn(len(cases))], greedy: true})
		case 1:
			frames = append(frames, wireFrame{msg: &Message{Type: MsgWriteBlockStream, Block: 42, Pipeline: []string{"dn1:2"}}, greedy: true, withNext: true})
			chunks(1+rng.Intn(4), true)
		default:
			chunks(1+rng.Intn(4), rng.Intn(2) == 0)
		}
		for i := start; i < len(frames); i++ {
			var pre []byte
			if frames[i].withNext {
				var err error
				if pre, err = appendFrameHead(nil, frames[i].msg, 0); err != nil {
					t.Fatal(err)
				}
				i++
			}
			if _, err := writeFrame(&wire, pre, frames[i].msg, frames[i].payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	return frames, wire.Bytes()
}

// Whatever sizes the bytes arrive in, the connection's frame reader
// yields the frames the unbuffered reader does, message for message and
// byte for byte, and a payload that fits the destination is read into
// it.
func TestFrameReaderFragmentation(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		frames, wire := randomConversation(t, rng)
		maxRead := []int{1, 3, 64, readBufBytes, 1 << 20}[trial%5]
		fr := newFrameReader(&fragReader{r: bytes.NewReader(wire), rng: rng, max: maxRead})
		ref := bytes.NewReader(wire)
		var scratch []byte
		for i, f := range frames {
			var dst []byte
			if f.dst {
				dst = make([]byte, 5, 5+len(f.payload))
			}
			want, wantPayload, err := referenceReadFrame(ref, nil)
			if err != nil {
				t.Fatalf("trial %d frame %d: reference reader: %v", trial, i, err)
			}
			got, gotPayload, n, err := fr.readFrame(f.greedy, dst, &scratch)
			if err != nil {
				t.Fatalf("trial %d frame %d (%s, greedy %t, reads ≤ %d bytes): %v", trial, i, f.msg.Type, f.greedy, maxRead, err)
			}
			if !reflect.DeepEqual(got, want) || !bytes.Equal(gotPayload, wantPayload) {
				t.Fatalf("trial %d frame %d: got %+v with %d payload bytes, want %+v with %d", trial, i, got, len(gotPayload), want, len(wantPayload))
			}
			if n < frameLensBytes+len(gotPayload) {
				t.Fatalf("trial %d frame %d: reported %d wire bytes for a %d-byte payload", trial, i, n, len(gotPayload))
			}
			if f.dst && len(gotPayload) > 0 && &gotPayload[0] != &dst[:cap(dst)][len(dst)] {
				t.Fatalf("trial %d frame %d: a %d-byte chunk that fits its destination was not read into it", trial, i, len(gotPayload))
			}
		}
		if fr.buffered() != 0 || ref.Len() != 0 {
			t.Fatalf("trial %d: %d bytes left buffered, %d unread by the reference", trial, fr.buffered(), ref.Len())
		}
		if _, _, _, err := fr.readFrame(true, nil, nil); !errors.Is(err, io.EOF) {
			t.Fatalf("trial %d: past the last frame got %v, want EOF", trial, err)
		}
	}
}

// countingConn counts the Reads made on a TCP connection and remembers
// which memory each one was given. It embeds *net.TCPConn so the
// checkout probe still reaches the raw socket.
type countingConn struct {
	*net.TCPConn
	mu    sync.Mutex
	reads []readCall
}

// readCall is one Read: the last byte of the backing array of the
// buffer it was given, which names the allocation the bytes went to,
// and how many bytes it returned.
type readCall struct {
	arrayEnd *byte
	n        int
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.TCPConn.Read(p)
	var end *byte
	if cap(p) > 0 {
		end = &p[:cap(p)][cap(p)-1]
	}
	c.mu.Lock()
	c.reads = append(c.reads, readCall{arrayEnd: end, n: n})
	c.mu.Unlock()
	return n, err
}

// take returns the Reads made since the last take.
func (c *countingConn) take() []readCall {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.reads
	c.reads = nil
	return r
}

// countingListener hands each accepted connection to accepted as a
// countingConn.
type countingListener struct {
	net.Listener
	accepted chan *countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &countingConn{TCPConn: conn.(*net.TCPConn)}
	l.accepted <- c
	return c, nil
}

// waitReads waits until conn has made want Reads since the last take
// and returns them; a Read still parked (the server waiting for the next
// request) is not counted until it returns.
func waitReads(t *testing.T, conn *countingConn, want int) []readCall {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn.mu.Lock()
		n := len(conn.reads)
		conn.mu.Unlock()
		if n >= want || time.Now().After(deadline) {
			time.Sleep(20 * time.Millisecond) // let an extra Read show
			return conn.take()
		}
		time.Sleep(time.Millisecond)
	}
}

// On a kept-alive loopback connection, a Call's response costs the
// client one read and its request costs the server one — the parked
// read that waits for it. A write stream's opening frame and a small
// first chunk cost the server one read together, and a chunk payload
// that fits RecvInto's destination is read straight into it.
func TestOneReadPerControlFrame(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner, accepted: make(chan *countingConn, 4)}
	const chunk = 48 << 10
	srv := ServeStreams(ln, echo, func(open *Message, _ []byte, st BlockStream) {
		switch open.Type {
		case MsgReadBlockStream:
			data := bytes.Repeat([]byte{0x5a}, chunk)
			//lint:ignore errcheck the client side asserts
			_ = st.Send(&Message{Type: MsgChunk, Block: open.Block, Eof: true, Checksum: ChunkChecksum(data)}, data)
		case MsgWriteBlockStream:
			msg, payload, err := st.Recv()
			if err != nil || !msg.Eof {
				return
			}
			//lint:ignore errcheck the client side asserts
			_ = st.Send(&Message{Type: MsgStreamAck, Block: open.Block, Offset: len(payload)}, nil)
		}
	}, time.Second)
	defer srv.Close()

	var clients []*countingConn
	orig := dialTimeout
	dialTimeout = func(network, addr string, d time.Duration) (net.Conn, error) {
		conn, err := orig(network, addr, d)
		if err != nil {
			return nil, err
		}
		c := &countingConn{TCPConn: conn.(*net.TCPConn)}
		clients = append(clients, c)
		return c, nil
	}
	defer func() { dialTimeout = orig }()

	for i := 0; i < 20; i++ {
		if err := callBlock(srv.Addr(), BlockID(i)); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if len(clients) != 1 {
			t.Fatalf("call %d dialed again; the kept-alive case is not exercised", i)
		}
		server := <-ln.accepted
		ln.accepted <- server
		if reads := waitReads(t, server, 1); len(reads) != 1 {
			t.Fatalf("call %d: the server read its request in %d reads, want 1", i, len(reads))
		}
		if reads := clients[0].take(); len(reads) != 1 {
			t.Fatalf("call %d: the client read its response in %d reads, want 1: %+v", i, len(reads), reads)
		}
	}
	server := <-ln.accepted

	// A 512-byte block: open and chunk leave in one write, and reach the
	// server in one read.
	if err := SendBlock(OpenStream, srv.Addr(), 7, nil, bytes.Repeat([]byte{7}, 512), 0, time.Second); err != nil {
		t.Fatalf("send block: %v", err)
	}
	if reads := waitReads(t, server, 1); len(reads) != 1 {
		t.Fatalf("the server read a write stream's opening frame and 512-byte chunk in %d reads, want 1", len(reads))
	}
	clients[0].take()

	st, err := OpenStream(srv.Addr(), &Message{Type: MsgReadBlockStream, Block: 9}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	dst := make([]byte, 100, 100+chunk)
	msg, payload, err := st.RecvInto(dst)
	if err != nil || !msg.Eof || len(payload) != chunk {
		t.Fatalf("RecvInto = %+v, %d bytes, %v; want the whole %d-byte chunk", msg, len(payload), err, chunk)
	}
	region := dst[len(dst):cap(dst)]
	if &payload[0] != &region[0] {
		t.Fatal("the chunk was not returned in its destination")
	}
	direct := 0
	for _, r := range clients[0].take() {
		if r.arrayEnd == &region[len(region)-1] {
			direct += r.n
		}
	}
	if direct != chunk {
		t.Fatalf("%d of the chunk's %d payload bytes were read straight into the destination, want all", direct, chunk)
	}
}

// A pooled connection holding bytes in its read buffer is out of step
// with its peer: checkout discards it as stale, and the call dials anew.
func TestPooledConnWithBufferedBytesIsStale(t *testing.T) {
	dials := countDials(t)
	srv := serveOn(t, "127.0.0.1:0")
	if err := callBlock(srv.Addr(), 1); err != nil {
		t.Fatal(err)
	}
	idlePool.mu.Lock()
	list := idlePool.idle[srv.Addr()]
	if len(list) != 1 {
		idlePool.mu.Unlock()
		t.Fatalf("%d pooled connections, want 1", len(list))
	}
	rd := list[0].conn.rd
	rd.end += copy(rd.buf[rd.end:], "stray")
	idlePool.mu.Unlock()

	stale := connEvents("stale")
	if err := callBlock(srv.Addr(), 2); err != nil {
		t.Fatalf("call after the stray bytes: %v", err)
	}
	if got := connEvents("stale") - stale; got != 1 {
		t.Errorf("%d connections discarded as stale, want 1", got)
	}
	if got := dials.Load(); got != 2 {
		t.Errorf("%d dials, want 2: the connection holding stray bytes is not reused", got)
	}
}
