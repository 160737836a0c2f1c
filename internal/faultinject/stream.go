package faultinject

import (
	"time"

	"aurora/internal/dfs/proto"
	"aurora/internal/metrics"
)

// StreamFrom returns the chunked data-path transport for the process
// with the given harness index (External for clients) — the stream-side
// twin of CallFrom. The opening handshake consults the same fault state
// as a one-shot RPC, and every subsequent frame re-checks crash state,
// so a node crashing mid-transfer tears the stream at the next frame
// boundary exactly as a machine dropping off the network would. Slow
// windows delay the open only; per-frame latency would multiply one
// fault by the chunk count and distort the schedule's timing.
func (inj *Injector) StreamFrom(caller int) proto.OpenStreamFunc {
	return func(addr string, open *proto.Message, timeout time.Duration) (proto.BlockStream, error) {
		now := time.Now()
		inj.mu.Lock()
		var blocked *InjectedError
		var latency time.Duration
		if st := inj.nodes[caller]; st != nil {
			switch {
			case st.crashed:
				blocked = &InjectedError{Kind: Crash, Node: caller}
			case now.Before(st.slowUntil):
				latency = st.slowLatency
			}
		}
		target, hasTarget := inj.addrToNode[addr]
		if hasTarget && blocked == nil {
			if st := inj.nodes[target]; st != nil {
				switch {
				case st.crashed:
					blocked = &InjectedError{Kind: Crash, Node: target}
				case now.Before(st.slowUntil) && st.slowLatency > latency:
					latency = st.slowLatency
				}
			}
		}
		inj.mu.Unlock()
		if blocked != nil {
			metrics.Default.Counter("faultinject.blocked_stream").Inc()
			return nil, blocked
		}
		if latency > 0 {
			metrics.Default.Counter("faultinject.delayed_rpc").Inc()
			time.Sleep(latency)
		}
		st, err := inj.baseOpen(addr, open, timeout)
		if err != nil {
			return nil, err
		}
		return &faultStream{inj: inj, caller: caller, target: target, hasTarget: hasTarget, st: st}, nil
	}
}

// faultStream wraps a live BlockStream with per-frame crash checks.
type faultStream struct {
	inj       *Injector
	caller    int
	target    int
	hasTarget bool
	st        proto.BlockStream
}

// check returns the injected error if either endpoint is currently
// crashed, closing the underlying stream so the peer also observes a
// torn connection rather than a silent stall.
func (f *faultStream) check() error {
	f.inj.mu.Lock()
	var blocked *InjectedError
	if st := f.inj.nodes[f.caller]; st != nil && st.crashed {
		blocked = &InjectedError{Kind: Crash, Node: f.caller}
	}
	if blocked == nil && f.hasTarget {
		if st := f.inj.nodes[f.target]; st != nil && st.crashed {
			blocked = &InjectedError{Kind: Crash, Node: f.target}
		}
	}
	f.inj.mu.Unlock()
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
