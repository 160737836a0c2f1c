package proto

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aurora/internal/metrics"
)

// countDials routes the dialTimeout seam through a counter for the
// length of the test.
func countDials(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	orig := dialTimeout
	dialTimeout = func(network, addr string, d time.Duration) (net.Conn, error) {
		n.Add(1)
		return orig(network, addr, d)
	}
	t.Cleanup(func() { dialTimeout = orig })
	return &n
}

// idleCount is how many connections to addr sit in the pool.
func idleCount(addr string) int {
	idlePool.mu.Lock()
	defer idlePool.mu.Unlock()
	return len(idlePool.idle[addr])
}

func connEvents(event string) int64 {
	return metrics.Default.Counter("aurora_rpc_conns", metrics.L("event", event)).Value()
}

// blockData is the content every test server and client agree block id
// has, so a response that belongs to another request is recognisable.
func blockData(id BlockID) []byte {
	return bytes.Repeat([]byte{byte(id), byte(id >> 8), 0xA5}, 300+int(id%7)*100)
}

// echo answers a control request with its own block and that block's
// data.
func echo(req *Message, _ []byte) (*Message, []byte) {
	return &Message{Type: MsgOK, Block: req.Block}, blockData(req.Block)
}

// blockStreams is a stream handler shaped like the datanode's: a read
// stream serves blockData in 256-byte chunks, a write stream checks
// every chunk's checksum and offset and the announced length, answering
// a violation with an error frame and nothing more.
func blockStreams(t *testing.T) StreamHandler {
	return func(open *Message, _ []byte, st BlockStream) {
		if open.Type == MsgReadBlockStream {
			data := blockData(open.Block)
			for seq, off := 0, 0; ; seq++ {
				end := min(off+256, len(data))
				msg := &Message{Type: MsgChunk, Block: open.Block, Seq: seq, Offset: off, Eof: end == len(data), Checksum: ChunkChecksum(data[off:end])}
				if st.Send(msg, data[off:end]) != nil || msg.Eof {
					return
				}
				off = end
			}
		}
		refuse := func(why string) {
			//lint:ignore errcheck best effort; the client side asserts
			_ = st.Send(ErrorMessage(errors.New(why)), nil)
		}
		var got []byte
		for {
			msg, chunk, err := st.Recv()
			if err != nil {
				return
			}
			if msg.Checksum != ChunkChecksum(chunk) {
				refuse("chunk checksum mismatch")
				return
			}
			got = append(got, chunk...)
			if len(got) > open.Length || (msg.Eof && len(got) != open.Length) {
				refuse("announced length violated")
				return
			}
			if msg.Eof {
				break
			}
		}
		if !bytes.Equal(got, blockData(open.Block)) {
			t.Errorf("write stream for block %d stored another block's bytes", open.Block)
			refuse("cross-talk")
			return
		}
		//lint:ignore errcheck best effort; the client side asserts
		_ = st.Send(&Message{Type: MsgStreamAck, Block: open.Block, Offset: len(got)}, nil)
	}
}

// serveOn starts the echo + blockStreams server on addr ("127.0.0.1:0"
// for a fresh port).
func serveOn(t *testing.T, addr string) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeStreams(ln, echo, blockStreams(t), time.Second)
	t.Cleanup(func() { srv.Close() })
	return srv
}

func callBlock(addr string, id BlockID) error {
	resp, payload, err := Call(addr, &Message{Type: MsgStatFile, Block: id}, nil, time.Second)
	if err != nil {
		return err
	}
	if resp.Block != id || !bytes.Equal(payload, blockData(id)) {
		return fmt.Errorf("call for block %d answered with block %d (%d bytes)", id, resp.Block, len(payload))
	}
	return nil
}

func sendBlock(addr string, id BlockID) error {
	return SendBlock(OpenStream, addr, id, nil, blockData(id), 256, time.Second)
}

func readBlock(addr string, id BlockID) error {
	st, err := OpenStream(addr, &Message{Type: MsgReadBlockStream, Block: id}, time.Second)
	if err != nil {
		return err
	}
	defer st.Close()
	var got []byte
	for {
		msg, chunk, err := st.Recv()
		if err != nil {
			return err
		}
		if msg.Block != id {
			return fmt.Errorf("read of block %d got a chunk of block %d", id, msg.Block)
		}
		got = append(got, chunk...)
		if msg.Eof {
			break
		}
	}
	if !bytes.Equal(got, blockData(id)) {
		return fmt.Errorf("read of block %d returned other bytes", id)
	}
	return nil
}

// Steady traffic to one peer dials once: N control calls share one
// connection, N block writes share one, and a different kind of exchange
// to the same server picks up the connection the last one released.
func TestSequentialExchangesDialOnce(t *testing.T) {
	dials := countDials(t)
	const n = 20

	calls := serveOn(t, "127.0.0.1:0")
	for i := 0; i < n; i++ {
		if err := callBlock(calls.Addr(), BlockID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("%d sequential Calls dialed %d times, want 1", n, got)
	}

	writes := serveOn(t, "127.0.0.1:0")
	for i := 0; i < n; i++ {
		if err := sendBlock(writes.Addr(), BlockID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("%d sequential SendBlocks dialed %d times, want 1", n, got-1)
	}

	for i := 0; i < n; i++ {
		if err := readBlock(writes.Addr(), BlockID(i)); err != nil {
			t.Fatal(err)
		}
		if err := callBlock(writes.Addr(), BlockID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("reads and calls after writes to the same server dialed %d more times, want 0", got-2)
	}
}

// The address-recycling hazard (DESIGN.md §15.7): a server stops, a new
// one listens on the same address, and the pool still holds a
// connection to the old one under that key. Whatever the next exchange
// is, the checkout probe must discard it — a caller sees no error a
// fresh dial would not have produced. Without the probe SendBlock fails
// here with a broken pipe.
func TestServerRestartOnSameAddress(t *testing.T) {
	for _, c := range []struct {
		name string
		op   func(addr string, id BlockID) error
	}{{"Call", callBlock}, {"SendBlock", sendBlock}, {"ReadStream", readBlock}} {
		t.Run(c.name, func(t *testing.T) {
			old := serveOn(t, "127.0.0.1:0")
			addr := old.Addr()
			if err := c.op(addr, 1); err != nil {
				t.Fatal(err)
			}
			if idleCount(addr) != 1 {
				t.Fatalf("pool holds %d connections to %s after one exchange, want 1", idleCount(addr), addr)
			}
			if err := old.Close(); err != nil {
				t.Fatal(err)
			}
			serveOn(t, addr)
			stale := connEvents("stale")
			if err := c.op(addr, 2); err != nil {
				t.Fatalf("first exchange with the new server on %s: %v", addr, err)
			}
			if connEvents("stale") != stale+1 {
				t.Error("the old server's connection was not counted stale at checkout")
			}
			if err := c.op(addr, 3); err != nil {
				t.Fatalf("second exchange with the new server: %v", err)
			}
		})
	}
}

// A connection idle past the client expiry is not offered to a caller —
// the server may be about to time it out — and the exchange dials
// instead, without an error.
func TestIdleExpiryRedials(t *testing.T) {
	dials := countDials(t)
	srv := serveOn(t, "127.0.0.1:0")
	if err := callBlock(srv.Addr(), 1); err != nil {
		t.Fatal(err)
	}
	idlePool.mu.Lock()
	for i := range idlePool.idle[srv.Addr()] {
		idlePool.idle[srv.Addr()][i].since = time.Now().Add(-idleExpiry - time.Second)
	}
	idlePool.mu.Unlock()
	if err := callBlock(srv.Addr(), 2); err != nil {
		t.Fatal(err)
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("a call after the idle expiry made the dial count %d, want 2", got)
	}
	if serverIdleTimeout <= idleExpiry {
		t.Fatalf("server idle timeout %v must outlast the client idle expiry %v", serverIdleTimeout, idleExpiry)
	}
}

// The periodic sweep closes expired connections to addresses nobody
// calls again.
func TestSweepClosesExpired(t *testing.T) {
	abandoned := serveOn(t, "127.0.0.1:0")
	if err := callBlock(abandoned.Addr(), 1); err != nil {
		t.Fatal(err)
	}
	idlePool.mu.Lock()
	idlePool.idle[abandoned.Addr()][0].since = time.Now().Add(-idleExpiry - time.Second)
	idlePool.nextSweep = time.Time{}
	idlePool.mu.Unlock()
	other := serveOn(t, "127.0.0.1:0")
	if err := callBlock(other.Addr(), 2); err != nil {
		t.Fatal(err)
	}
	if n := idleCount(abandoned.Addr()); n != 0 {
		t.Fatalf("%d expired connections survived a sweep", n)
	}
}

// Every way a stream can end short of its protocol end must cost the
// connection: it is closed, not pooled, and the next request dials and
// succeeds.
func TestUncleanStreamEndIsNotReused(t *testing.T) {
	vanish := func(open *Message, _ []byte, st BlockStream) {
		//lint:ignore errcheck the point is the torn connection
		_ = st.Send(&Message{Type: MsgChunk, Block: open.Block}, []byte("partial"))
		st.Close()
	}
	for _, c := range []struct {
		name    string
		streams StreamHandler
		run     func(t *testing.T, addr string)
	}{
		{"client closes mid-read", nil, func(t *testing.T, addr string) {
			st, err := OpenStream(addr, &Message{Type: MsgReadBlockStream, Block: 6}, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := st.Recv(); err != nil {
				t.Fatal(err)
			}
			st.Close()
		}},
		{"error frame", func(_ *Message, _ []byte, st BlockStream) {
			//lint:ignore errcheck best effort; the client side asserts
			_ = st.Send(ErrorMessage(errors.New("replica corrupt")), nil)
		}, func(t *testing.T, addr string) {
			var rerr *RemoteError
			if err := readBlock(addr, 1); !errors.As(err, &rerr) {
				t.Fatalf("read = %v, want *RemoteError", err)
			}
		}},
		{"checksum-refused chunk", nil, func(t *testing.T, addr string) {
			st, err := OpenStream(addr, &Message{Type: MsgWriteBlockStream, Block: 1, Length: 8}, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := st.Send(&Message{Type: MsgChunk, Eof: true, Checksum: 12345}, []byte("8 bytes!")); err != nil {
				t.Fatal(err)
			}
			var rerr *RemoteError
			if _, _, err := st.Recv(); !errors.As(err, &rerr) {
				t.Fatalf("ack = %v, want the refusal", err)
			}
		}},
		{"announced-length violation", nil, func(t *testing.T, addr string) {
			data := blockData(1)
			st, err := OpenStream(addr, &Message{Type: MsgWriteBlockStream, Block: 1, Length: len(data) - 1}, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := st.Send(&Message{Type: MsgChunk, Eof: true, Checksum: ChunkChecksum(data)}, data); err != nil {
				t.Fatal(err)
			}
			var rerr *RemoteError
			if _, _, err := st.Recv(); !errors.As(err, &rerr) {
				t.Fatalf("ack = %v, want the refusal", err)
			}
		}},
		{"peer vanishes", vanish, func(t *testing.T, addr string) {
			if err := readBlock(addr, 1); err == nil {
				t.Fatal("read from a server that hung up mid-stream succeeded")
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dials := countDials(t)
			sh := c.streams
			if sh == nil {
				sh = blockStreams(t)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := ServeStreams(ln, echo, sh, time.Second)
			defer srv.Close()

			c.run(t, srv.Addr())
			if n := idleCount(srv.Addr()); n != 0 {
				t.Fatalf("%d connections pooled after an unclean stream end, want 0", n)
			}
			before := dials.Load()
			if err := callBlock(srv.Addr(), 9); err != nil {
				t.Fatalf("request after the unclean end: %v", err)
			}
			if dials.Load() != before+1 {
				t.Fatalf("request after the unclean end dialed %d times, want 1", dials.Load()-before)
			}
		})
	}
}

// Close releases a connection at most once however often and from
// however many goroutines it is called, and never while a Recv is still
// using the connection.
func TestStreamCloseReleasesAtMostOnce(t *testing.T) {
	srv := serveOn(t, "127.0.0.1:0")
	drain := func(t *testing.T) BlockStream {
		st, err := OpenStream(srv.Addr(), &Message{Type: MsgReadBlockStream, Block: 2}, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for {
			msg, _, err := st.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if msg.Eof {
				return st
			}
		}
	}

	t.Run("double close", func(t *testing.T) {
		st := drain(t)
		for i := 0; i < 2; i++ {
			if err := st.Close(); err != nil {
				t.Fatalf("Close #%d: %v", i+1, err)
			}
		}
		if n := idleCount(srv.Addr()); n != 1 {
			t.Fatalf("double Close left %d pooled connections, want 1", n)
		}
		if _, _, err := st.Recv(); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Recv after Close = %v, want net.ErrClosed: the stream must have dropped its connection", err)
		}
		if err := callBlock(srv.Addr(), 3); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("concurrent closes", func(t *testing.T) {
		before := idleCount(srv.Addr())
		st := drain(t) // takes the pooled connection out
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st.Close()
			}()
		}
		wg.Wait()
		if n := idleCount(srv.Addr()); n != before {
			t.Fatalf("4 concurrent Closes changed the pooled count from %d to %d", before, n)
		}
	})

	t.Run("close racing recv", func(t *testing.T) {
		// The extra Recv past the Eof chunk blocks (the server is waiting
		// for a request), so Close finds a call in flight: the
		// connection must be closed, not handed to the next caller with
		// a reader still on it.
		st := drain(t)
		if n := idleCount(srv.Addr()); n != 0 {
			t.Fatalf("%d connections pooled while the stream is open", n)
		}
		entered, done := make(chan struct{}), make(chan error, 1)
		go func() {
			close(entered)
			_, _, err := st.Recv()
			done <- err
		}()
		<-entered
		for st.(*Stream).inFlight() == 0 {
			time.Sleep(time.Millisecond)
		}
		st.Close()
		if err := <-done; err == nil {
			t.Fatal("Recv racing Close returned a frame")
		}
		if n := idleCount(srv.Addr()); n != 0 {
			t.Fatalf("Close released a connection a Recv was still reading: %d pooled", n)
		}
		if err := callBlock(srv.Addr(), 4); err != nil {
			t.Fatal(err)
		}
	})
}

// inFlight is the number of Send/Recv calls using the connection now.
func (s *Stream) inFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busy
}

// Server.Close must end the server's part in every connection it
// accepted: after it returns the handler is never entered again, and the
// connection a client still holds in its pool is found dead at checkout
// rather than handed to a caller.
func TestServerCloseClosesAcceptedConnections(t *testing.T) {
	var entered atomic.Int64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, func(req *Message, _ []byte) (*Message, []byte) {
		entered.Add(1)
		return &Message{Type: MsgOK}, nil
	}, time.Second)
	addr := srv.Addr()
	if _, _, err := Call(addr, &Message{Type: MsgListFiles}, nil, time.Second); err != nil {
		t.Fatal(err)
	}
	if idleCount(addr) != 1 {
		t.Fatalf("pool holds %d connections after one call, want 1", idleCount(addr))
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	stale := connEvents("stale")
	if conn := idlePool.get(addr, time.Now().Add(time.Second)); conn != nil {
		conn.raw.Close()
		t.Fatal("checkout handed out a connection to a closed server")
	}
	if connEvents("stale") != stale+1 {
		t.Error("the closed server's connection was not counted stale")
	}
	if _, _, err := Call(addr, &Message{Type: MsgListFiles}, nil, 200*time.Millisecond); err == nil {
		t.Fatal("call to a closed server succeeded")
	}
	if got := entered.Load(); got != 1 {
		t.Fatalf("handler entered %d times, want 1: a closed server kept serving", got)
	}
}

// aurora_rpc_server_inflight counts requests being handled, not
// connections open: a kept-alive connection idling between requests
// contributes nothing.
func TestServerInflightCountsRequests(t *testing.T) {
	inflight := metrics.Default.Gauge("aurora_rpc_server_inflight")
	waitFor := func(what string, want float64) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); inflight.Value() != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("aurora_rpc_server_inflight = %v %s, want %v", inflight.Value(), what, want)
			}
		}
	}
	waitFor("before the test's server exists", 0)
	handling, release := make(chan struct{}), make(chan struct{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, func(req *Message, _ []byte) (*Message, []byte) {
		handling <- struct{}{}
		<-release
		return &Message{Type: MsgOK}, nil
	}, time.Second)
	defer srv.Close()
	done := make(chan error, 1)
	go func() {
		_, _, err := Call(srv.Addr(), &Message{Type: MsgListFiles}, nil, time.Second)
		done <- err
	}()
	<-handling
	waitFor("with one handler running", 1)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if idleCount(srv.Addr()) != 1 {
		t.Fatal("the connection was not kept alive; the idle case is not exercised")
	}
	waitFor("with one idle kept-alive connection and no request", 0)
}

// scriptedServer accepts connections and hands each to serve, for peers
// that misbehave in ways a Server cannot.
func scriptedServer(t *testing.T, serve func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				serve(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// A reused connection that dies after the checkout probe looked at it —
// here the peer reads the request and hangs up — is retried once on a
// fresh dial, because that is the attempt a dial-per-call transport
// would have made. A freshly dialed connection failing the same way is
// the caller's error, as it always was.
func TestCallRedialsOnlyReusedConnections(t *testing.T) {
	dials := countDials(t)
	var conns atomic.Int64
	addr := scriptedServer(t, func(conn net.Conn) {
		first := conns.Add(1) == 1
		for served := 0; ; served++ {
			req, _, err := ReadFrame(conn)
			if err != nil {
				return
			}
			if first && served == 1 {
				return // hang up on the first connection's second request
			}
			if WriteFrame(conn, &Message{Type: MsgOK, Block: req.Block}, nil) != nil {
				return
			}
		}
	})
	for i := 0; i < 3; i++ {
		resp, _, err := Call(addr, &Message{Type: MsgStatFile, Block: BlockID(i)}, nil, time.Second)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if resp.Block != BlockID(i) {
			t.Fatalf("call %d answered for block %d", i, resp.Block)
		}
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("dialed %d times, want 2: one connection, one redial", got)
	}

	dials.Store(0)
	hangup := scriptedServer(t, func(conn net.Conn) {
		//lint:ignore errcheck reads the request, answers nothing
		_, _, _ = ReadFrame(conn)
	})
	if _, _, err := Call(hangup, &Message{Type: MsgStatFile}, nil, time.Second); !errors.Is(err, io.EOF) {
		t.Fatalf("call on a fresh connection the peer hung up on = %v, want EOF", err)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("a failed fresh connection was retried: %d dials, want 1", got)
	}
}

// flakyListener hands out connections that hang up after a random
// number of bytes — anywhere: idle, mid-request, mid-chunk — and counts
// the hang-ups.
type flakyListener struct {
	net.Listener
	mu      sync.Mutex
	rng     *rand.Rand
	dropped atomic.Int64
}

func (l *flakyListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	budget := 2000 + l.rng.Int63n(60000)
	l.mu.Unlock()
	c := &flakyConn{Conn: conn, l: l}
	c.budget.Store(budget)
	return c, nil
}

type flakyConn struct {
	net.Conn
	l      *flakyListener
	budget atomic.Int64
	once   sync.Once
}

func (c *flakyConn) spend(n int) bool {
	if c.budget.Add(-int64(n)) > 0 {
		return true
	}
	c.once.Do(func() {
		c.l.dropped.Add(1)
		c.Conn.Close()
	})
	return false
}

func (c *flakyConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if !c.spend(n) {
		return 0, net.ErrClosed
	}
	return n, err
}

func (c *flakyConn) Write(p []byte) (int, error) {
	if !c.spend(len(p)) {
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// Eight goroutines mix calls, block writes and block reads against a
// server whose connections keep hanging up. Every connection carries
// many exchanges before it dies, so a frame left unread or a connection
// released twice would surface as a response for the wrong block. Only
// the injected hang-ups may surface, each at most once: a hang-up on an
// idle connection must be absorbed by the checkout probe or Call's
// redial.
func TestPoolUnderConnectionDrops(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &flakyListener{Listener: inner, rng: rand.New(rand.NewSource(23))}
	srv := ServeStreams(ln, echo, blockStreams(t), time.Second)
	defer srv.Close()

	const workers, rounds = 8, 150
	var failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ops := []func(string, BlockID) error{callBlock, sendBlock, readBlock}
			for i := 0; i < rounds; i++ {
				id := BlockID(w*rounds + i)
				err := ops[(w+i)%len(ops)](srv.Addr(), id)
				if err == nil {
					continue
				}
				failed.Add(1)
				var nerr net.Error
				var rerr *RemoteError
				transport := errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &nerr)
				if !transport || errors.As(err, &rerr) {
					t.Errorf("worker %d block %d: %v (not a hang-up)", w, id, err)
				}
			}
		}(w)
	}
	wg.Wait()
	dropped := ln.dropped.Load()
	if dropped == 0 {
		t.Fatal("no connection was dropped; the test exercised nothing")
	}
	if failed.Load() > dropped {
		t.Fatalf("%d exchanges failed but only %d connections were dropped", failed.Load(), dropped)
	}
	t.Logf("%d exchanges, %d hang-ups injected, %d surfaced", workers*rounds, dropped, failed.Load())
}
