package metrics

import "sync/atomic"

// Counter is a monotonically increasing event count, safe for
// concurrent use. The DFS layer uses counters to expose fault and
// retry activity (injected faults, client retries, failovers,
// re-replication repairs) without threading bespoke stats structs
// through every call site.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
//
//lint:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored; counters never decrease).
//
//lint:hotpath
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Default is the process-wide registry the DFS layer and the telemetry
// endpoint report into. Legacy counter names are dot-separated, lowest
// component first, e.g. "dfs.client.retries" or "faultinject.crash";
// series added for the live telemetry subsystem use Prometheus-style
// names ("aurora_rpc_latency_seconds"). The exposition layer
// (internal/telemetry) sanitizes both into valid metric names.
//
// A process-global registry is the one deliberate ambient-state
// exception: observability has to be reachable from every layer without
// threading a handle through each constructor, and the registry is
// internally synchronized. Namenode sharding (ROADMAP #1) shards
// placement state, not metrics.
var Default = NewRegistry()
