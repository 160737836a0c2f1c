package proto

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"aurora/internal/metrics"
)

// DefaultTimeout bounds a whole request/response exchange.
const DefaultTimeout = 10 * time.Second

// CallFunc is the signature of Call. Components take a CallFunc so the
// fault-injection harness can interpose on their RPC traffic; the zero
// value of any config falls back to Call.
type CallFunc func(addr string, req *Message, payload []byte, timeout time.Duration) (*Message, []byte, error)

// Call sends one request frame to addr and reads one response frame, on
// a pooled connection when a usable one exists and a fresh dial
// otherwise (DESIGN.md §15.7); a completed exchange returns the
// connection to the pool, a failed one closes it. A non-nil error is
// returned for transport failures and for MsgError responses (as
// *RemoteError). The timeout bounds the whole exchange, dial included.
// Every call records per-RPC-type latency and wire-size histograms and
// an in-flight gauge into metrics.Default. Wire sizes count the full
// frame (length prefix + header + payload), so header-heavy RPCs
// like block reports are measured honestly.
func Call(addr string, req *Message, payload []byte, timeout time.Duration) (*Message, []byte, error) {
	typ := metrics.L("type", string(req.Type))
	inflight := metrics.Default.Gauge("aurora_rpc_client_inflight")
	inflight.Inc()
	start := time.Now()
	resp, respPayload, wrote, read, err := callConn(addr, req, payload, timeout)
	metrics.Default.Histogram("aurora_rpc_latency_seconds", typ).Observe(time.Since(start).Seconds())
	inflight.Dec()
	if err != nil {
		metrics.Default.Counter("aurora_rpc_errors", typ).Inc()
		return resp, respPayload, err
	}
	metrics.Default.Histogram("aurora_rpc_request_bytes", typ).Observe(float64(wrote))
	metrics.Default.Histogram("aurora_rpc_response_bytes", typ).Observe(float64(read))
	return resp, respPayload, nil
}

// callConn is the uninstrumented transport; it also reports the wire
// bytes written and read. A single deadline computed up front bounds
// connect, write and read together: time spent connecting is charged
// against the same budget as the request/response round trip, so one
// call can never take ~2x its timeout (the bug the regression test in
// rpc_test.go pins).
//
// A reused connection can have been closed by its server after the
// checkout probe looked at it. When such a connection fails before one
// byte of a response has arrived, the request is sent once more on a
// fresh dial under the same deadline — the attempt a dial-per-call
// transport would have made in the first place. A freshly dialed
// connection is never retried, nor is a timeout (the budget is spent).
func callConn(addr string, req *Message, payload []byte, timeout time.Duration) (*Message, []byte, int, int, error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	deadline := time.Now().Add(timeout)
	conn, reused, err := connect(addr, deadline)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	resp, respPayload, wrote, read, err := exchange(conn, req, payload)
	var nerr net.Error
	if err != nil && reused && read == 0 && !(errors.As(err, &nerr) && nerr.Timeout()) {
		//lint:ignore errcheck the connection already failed; the redial's outcome is the one to report
		_ = conn.Close()
		if conn, err = dial(addr, deadline); err != nil {
			return nil, nil, 0, 0, err
		}
		resp, respPayload, wrote, read, err = exchange(conn, req, payload)
	}
	if err != nil {
		//lint:ignore errcheck already failing; the exchange error is the one to report
		_ = conn.Close()
		return nil, nil, wrote, read, err
	}
	// The response frame was read whole, so the connection sits at a
	// frame boundary whatever the response says.
	idlePool.put(addr, conn)
	if err := resp.AsError(); err != nil {
		return nil, nil, wrote, read, err
	}
	return resp, respPayload, wrote, read, nil
}

// exchange writes one request frame and reads one response frame on a
// connection whose deadline is already set. On failure, read is the
// number of response bytes that did arrive: zero means the peer never
// began to answer.
func exchange(conn net.Conn, req *Message, payload []byte) (resp *Message, respPayload []byte, wrote, read int, err error) {
	wrote, err = writeFrame(conn, req, payload)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	var lens [frameLensBytes]byte
	if n, err := io.ReadFull(conn, lens[:]); err != nil {
		return nil, nil, wrote, n, fmt.Errorf("proto: read frame lengths: %w", err)
	}
	resp, respPayload, read, err = readFrameBody(conn, lens, nil, nil)
	if err != nil {
		return nil, nil, wrote, frameLensBytes, err
	}
	return resp, respPayload, wrote, read, nil
}

// Handler processes one request and returns the response.
type Handler func(req *Message, payload []byte) (*Message, []byte)

// StreamHandler drives one chunked data-path exchange. It receives the
// opening frame (a type for which OpensStream reports true, plus any
// payload riding on it) and the live stream, and owns the conversation
// until it returns. The server then keeps the connection for the peer's
// next request if the exchange ran to its protocol end (DESIGN.md
// §15.7) and closes it otherwise.
type StreamHandler func(open *Message, payload []byte, st BlockStream)

// Server accepts connections and serves the requests that arrive on
// each, one after another, dispatching them to a Handler.
type Server struct {
	ln      net.Listener
	done    chan struct{}
	timeout time.Duration
	streams StreamHandler

	// mu guards the accepted connections still open, idle or
	// mid-request, and whether Close has begun.
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Serve starts accepting on ln. It owns the listener; Close stops it.
// Handler panics are not recovered: a handler bug should crash loudly in
// tests rather than silently drop connections.
func Serve(ln net.Listener, h Handler, timeout time.Duration) *Server {
	return ServeStreams(ln, h, nil, timeout)
}

// ServeStreams is Serve plus a StreamHandler: requests whose type opens
// a stream (OpensStream) are handed to sh with the connection given
// over to chunk frames; everything else takes the one-request,
// one-response path through h. A nil sh rejects stream openings with a
// MsgError response. The timeout bounds one request — reading it,
// handling it, writing the response — and each frame of a stream.
func ServeStreams(ln net.Listener, h Handler, sh StreamHandler, timeout time.Duration) *Server {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	s := &Server{
		ln: ln, done: make(chan struct{}), timeout: timeout, streams: sh,
		conns: make(map[net.Conn]struct{}),
	}
	go s.acceptLoop(h)
	return s
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener, closes every connection the server accepted
// — idle between requests or in the middle of one — and waits for the
// accept loop to exit. No request read after Close began is dispatched,
// so a stopped node cannot keep answering on a connection some client
// still holds in its pool; a handler already running finishes against a
// closed connection.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	err := s.ln.Close()
	for conn := range conns {
		//lint:ignore errcheck tearing the peer's connection down is the point; it may already be gone
		_ = conn.Close()
	}
	<-s.done
	return err
}

// track registers an accepted connection; false means Close has begun.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

// forget closes a connection and drops it from the set Close walks.
func (s *Server) forget(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	//lint:ignore errcheck the peer is gone, the exchange broke, or Close already closed it
	_ = conn.Close()
}

func (s *Server) closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) acceptLoop(h Handler) {
	defer close(s.done)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			//lint:ignore errcheck accepted while closing; never served
			_ = conn.Close()
			return
		}
		//lint:ignore goroleak connection-scoped: serveConn exits when the peer closes, when the connection idles past serverIdleTimeout or a request's deadline, and when Close closes every tracked connection
		go s.serveConn(conn, h)
	}
}

// serveConn serves the requests of one connection until the peer closes
// it, it idles too long, an exchange breaks, or the server closes. A
// peer that has just connected owes its first request within the
// request timeout; between requests the wait is serverIdleTimeout, which
// outlasts every client's idleExpiry.
func (s *Server) serveConn(conn net.Conn, h Handler) {
	defer s.forget(conn)
	wait := s.timeout
	for s.serveRequest(conn, h, wait) {
		wait = serverIdleTimeout
	}
}

// serveRequest waits up to wait for one request, serves it, and reports
// whether the connection is fit for another.
func (s *Server) serveRequest(conn net.Conn, h Handler, wait time.Duration) bool {
	if err := conn.SetDeadline(time.Now().Add(wait)); err != nil {
		return false
	}
	var lens [frameLensBytes]byte
	if _, err := io.ReadFull(conn, lens[:]); err != nil {
		return false // peer closed, vanished or went quiet; nothing to answer
	}
	if err := conn.SetDeadline(time.Now().Add(s.timeout)); err != nil {
		return false
	}
	req, payload, _, err := readFrameBody(conn, lens, nil, nil)
	if err != nil {
		return false // peer vanished or sent garbage; nothing to answer
	}
	if s.closing() {
		return false
	}
	inflight := metrics.Default.Gauge("aurora_rpc_server_inflight")
	inflight.Inc()
	defer inflight.Dec()
	start := time.Now()
	if req.Type.OpensStream() {
		if s.streams == nil {
			//lint:ignore errcheck best effort; peer may be gone
			_ = WriteFrame(conn, ErrorMessage(fmt.Errorf("proto: %s: no stream handler", req.Type)), nil)
			return false
		}
		st := newStream(conn, s.timeout, req.Type, false)
		s.streams(req, payload, st)
		metrics.Default.Histogram("aurora_rpc_server_seconds",
			metrics.L("type", string(req.Type))).Observe(time.Since(start).Seconds())
		taken, clean := st.detach()
		return taken != nil && clean
	}
	resp, respPayload := h(req, payload)
	metrics.Default.Histogram("aurora_rpc_server_seconds",
		metrics.L("type", string(req.Type))).Observe(time.Since(start).Seconds())
	if resp == nil {
		resp = &Message{Type: MsgOK}
	}
	return WriteFrame(conn, resp, respPayload) == nil
}
