package faultinject

import (
	"time"

	"aurora/internal/dfs/proto"
	"aurora/internal/metrics"
)

// StreamFrom returns the chunked data-path transport for the process
// with the given harness index (External for clients) — the stream-side
// twin of CallFrom. The opening handshake consults the same fault state
// as a one-shot RPC, and every subsequent frame re-checks it, so a node
// crashing mid-transfer tears the stream at the next frame boundary
// exactly as a machine dropping off the network would. Slow windows
// delay the open only; per-frame latency would multiply one fault by
// the chunk count and distort the schedule's timing.
func (inj *Injector) StreamFrom(caller int) proto.OpenStreamFunc {
	return func(addr string, open *proto.Message, timeout time.Duration) (proto.BlockStream, error) {
		if err := inj.admit(caller, addr, open.Type, "faultinject.blocked_stream"); err != nil {
			return nil, err
		}
		st, err := inj.baseOpen(addr, open, timeout)
		if err != nil {
			return nil, err
		}
		return &faultStream{inj: inj, caller: caller, addr: addr, typ: open.Type, st: st}, nil
	}
}

// faultStream wraps a live BlockStream with per-frame fault checks.
type faultStream struct {
	inj    *Injector
	caller int
	addr   string
	typ    proto.MsgType // the opening frame's type
	st     proto.BlockStream
}

// check returns the injected error if either endpoint is currently
// crashed, closing the underlying stream so the peer also observes a
// torn connection rather than a silent stall.
func (f *faultStream) check() error {
	blocked, _ := f.inj.fault(f.caller, f.addr, f.typ)
	if blocked != nil {
		metrics.Default.Counter("faultinject.blocked_frame").Inc()
		//lint:ignore errcheck teardown of an already-failed stream
		_ = f.st.Close()
		return blocked
	}
	return nil
}

// Send implements proto.BlockStream.
func (f *faultStream) Send(msg *proto.Message, payload []byte) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.st.Send(msg, payload)
}

// Recv implements proto.BlockStream.
func (f *faultStream) Recv() (*proto.Message, []byte, error) { return f.RecvInto(nil) }

// RecvInto implements proto.BlockStream.
func (f *faultStream) RecvInto(buf []byte) (*proto.Message, []byte, error) {
	if err := f.check(); err != nil {
		return nil, nil, err
	}
	return f.st.RecvInto(buf)
}

// Close implements proto.BlockStream.
func (f *faultStream) Close() error { return f.st.Close() }
