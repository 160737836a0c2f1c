package proto

import (
	"fmt"
	"net"
	"time"

	"aurora/internal/metrics"
)

// DefaultTimeout bounds a whole request/response exchange.
const DefaultTimeout = 10 * time.Second

// CallFunc is the signature of Call. Components take a CallFunc so the
// fault-injection harness can interpose on their RPC traffic; the zero
// value of any config falls back to Call.
type CallFunc func(addr string, req *Message, payload []byte, timeout time.Duration) (*Message, []byte, error)

// dialTimeout is the connect primitive, a seam so the deadline-budget
// regression test can simulate a slow connect deterministically.
var dialTimeout = net.DialTimeout

// Call dials addr, sends one request frame and reads one response frame.
// A non-nil error is returned for transport failures and for MsgError
// responses (as *RemoteError). The timeout bounds the whole exchange,
// dial included. Every call records per-RPC-type latency and wire-size
// histograms and an in-flight gauge into metrics.Default. Wire sizes
// count the full frame (length prefix + JSON header + payload), so
// header-heavy RPCs like block reports are measured honestly.
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
// dial, write and read together: time spent connecting is charged
// against the same budget as the request/response round trip, so one
// call can never take ~2x its timeout (the bug the regression test in
// rpc_test.go pins).
func callConn(addr string, req *Message, payload []byte, timeout time.Duration) (*Message, []byte, int, int, error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	deadline := time.Now().Add(timeout)
	conn, err := dialTimeout("tcp", addr, time.Until(deadline))
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("proto: dial %s: %w", addr, err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("proto: set deadline: %w", err)
	}
	wrote, err := writeFrame(conn, req, payload)
	if err != nil {
		return nil, nil, wrote, 0, err
	}
	resp, respPayload, read, err := readFrameInto(conn, nil)
	if err != nil {
		return nil, nil, wrote, read, err
	}
	if err := resp.AsError(); err != nil {
		return nil, nil, wrote, read, err
	}
	return resp, respPayload, wrote, read, nil
}

// Handler processes one request and returns the response.
type Handler func(req *Message, payload []byte) (*Message, []byte)

// StreamHandler drives one chunked data-path exchange. It receives the
// opening frame (a type for which OpensStream reports true, plus any
// payload riding on it) and the live stream, and owns the conversation
// until it returns; the server closes the connection afterwards.
type StreamHandler func(open *Message, payload []byte, st BlockStream)

// Server accepts one-shot request/response connections and dispatches
// them to a Handler.
type Server struct {
	ln      net.Listener
	done    chan struct{}
	timeout time.Duration
	streams StreamHandler
}

// Serve starts accepting on ln. It owns the listener; Close stops it.
// Handler panics are not recovered: a handler bug should crash loudly in
// tests rather than silently drop connections.
func Serve(ln net.Listener, h Handler, timeout time.Duration) *Server {
	return ServeStreams(ln, h, nil, timeout)
}

// ServeStreams is Serve plus a StreamHandler: requests whose type opens
// a stream (OpensStream) are handed to sh with the connection kept
// alive for chunk frames; everything else takes the one-shot
// request/response path through h. A nil sh rejects stream openings
// with a MsgError response.
func ServeStreams(ln net.Listener, h Handler, sh StreamHandler, timeout time.Duration) *Server {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	s := &Server{ln: ln, done: make(chan struct{}), timeout: timeout, streams: sh}
	go s.acceptLoop(h)
	return s
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and waits for the accept loop to exit.
// In-flight connection goroutines finish on their own deadlines.
func (s *Server) Close() error {
	err := s.ln.Close()
	<-s.done
	return err
}

func (s *Server) acceptLoop(h Handler) {
	defer close(s.done)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		//lint:ignore goroleak connection-scoped: serveConn exits on the per-conn read deadline or EOF, and Close tears the listener (and thus all conns) down
		go s.serveConn(conn, h)
	}
}

func (s *Server) serveConn(conn net.Conn, h Handler) {
	defer conn.Close()
	inflight := metrics.Default.Gauge("aurora_rpc_server_inflight")
	inflight.Inc()
	defer inflight.Dec()
	if err := conn.SetDeadline(time.Now().Add(s.timeout)); err != nil {
		return
	}
	req, payload, err := ReadFrame(conn)
	if err != nil {
		return // peer vanished or sent garbage; nothing to answer
	}
	if req.Type.OpensStream() {
		if s.streams == nil {
			//lint:ignore errcheck best effort; peer may be gone
			_ = WriteFrame(conn, ErrorMessage(fmt.Errorf("proto: %s: no stream handler", req.Type)), nil)
			return
		}
		start := time.Now()
		s.streams(req, payload, NewStream(conn, s.timeout))
		metrics.Default.Histogram("aurora_rpc_server_seconds",
			metrics.L("type", string(req.Type))).Observe(time.Since(start).Seconds())
		return
	}
	start := time.Now()
	resp, respPayload := h(req, payload)
	metrics.Default.Histogram("aurora_rpc_server_seconds",
		metrics.L("type", string(req.Type))).Observe(time.Since(start).Seconds())
	if resp == nil {
		resp = &Message{Type: MsgOK}
	}
	//lint:ignore errcheck best effort; peer may be gone
	_ = WriteFrame(conn, resp, respPayload)
}
