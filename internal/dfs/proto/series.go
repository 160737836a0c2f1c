package proto

import (
	"sync/atomic"

	"aurora/internal/metrics"
)

// The transport's metric series, looked up in metrics.Default once —
// per message type for the per-type ones — and kept, instead of by name
// and label on every frame: a registry lookup renders a series key and
// takes the registry's mutex. Names and labels are those the lookups
// used (the telemetry endpoint and the benchmark read them). A series
// appears when it is first recorded into, except that the three Call
// histograms of a request type appear together on its first call.

// handle is one series, looked up on first use.
type handle[T any] struct {
	p      atomic.Pointer[T]
	lookup func() *T
}

func (h *handle[T]) get() *T {
	if v := h.p.Load(); v != nil {
		return v
	}
	v := h.lookup() // a racing first use looks up the same series
	h.p.Store(v)
	return v
}

func counter(name string, label metrics.Label) *handle[metrics.Counter] {
	return &handle[metrics.Counter]{lookup: func() *metrics.Counter { return metrics.Default.Counter(name, label) }}
}

func gauge(name string) *handle[metrics.Gauge] {
	return &handle[metrics.Gauge]{lookup: func() *metrics.Gauge { return metrics.Default.Gauge(name) }}
}

// perType is a set of series labeled type=<MsgType>, looked up on a
// type's first use and kept by its wire code. A type with no code is
// looked up every time.
type perType[T any] struct {
	byCode [len(msgTypes) + 1]atomic.Pointer[T]
	lookup func(typ metrics.Label) *T
}

func (p *perType[T]) of(typ MsgType) *T {
	code := codeOf(msgTypes[:], typ)
	if v := p.byCode[code].Load(); v != nil {
		return v
	}
	v := p.lookup(metrics.L("type", string(typ)))
	if code != 0 {
		p.byCode[code].Store(v)
	}
	return v
}

// callSeries is what Call records per request type. Its error counter
// is looked up on the error path only, so a type that never failed has
// no error series.
type callSeries struct {
	latency, requestBytes, responseBytes *metrics.LogHistogram
}

var (
	clientInflight = gauge("aurora_rpc_client_inflight")
	serverInflight = gauge("aurora_rpc_server_inflight")

	callSeriesOf = perType[callSeries]{lookup: func(typ metrics.Label) *callSeries {
		return &callSeries{
			latency:       metrics.Default.Histogram("aurora_rpc_latency_seconds", typ),
			requestBytes:  metrics.Default.Histogram("aurora_rpc_request_bytes", typ),
			responseBytes: metrics.Default.Histogram("aurora_rpc_response_bytes", typ),
		}
	}}
	serverSecondsOf = perType[metrics.LogHistogram]{lookup: func(typ metrics.Label) *metrics.LogHistogram {
		return metrics.Default.Histogram("aurora_rpc_server_seconds", typ)
	}}

	chunksSent = counter("aurora_stream_chunks", metrics.L("dir", "send"))
	bytesSent  = counter("aurora_stream_bytes", metrics.L("dir", "send"))
	chunksRecv = counter("aurora_stream_chunks", metrics.L("dir", "recv"))
	bytesRecv  = counter("aurora_stream_bytes", metrics.L("dir", "recv"))

	// Connection events: "dial" (a new connection), "reuse" (a pooled
	// one handed out) and "stale" (a pooled one discarded unused:
	// expired, closed by the peer, or holding bytes nobody asked for).
	connDials  = counter("aurora_rpc_conns", metrics.L("event", "dial"))
	connReuses = counter("aurora_rpc_conns", metrics.L("event", "reuse"))
	connStale  = counter("aurora_rpc_conns", metrics.L("event", "stale"))
)
