// Package popularity implements Aurora's usage monitor: per-block access
// counting over a sliding time window W, plus the forecaster that turns
// one window into the next period's predicted popularity.
//
// Following Section V of the paper, block popularity is "the number of
// accesses of a block within a sliding time window W". The monitor tracks
// this with per-key circular bucket arrays: the window is divided into a
// fixed number of buckets; recording an access increments the bucket of
// the current time; querying sums the buckets inside the window. With
// hourly reconfiguration epochs and W = 2h, two one-hour buckets give the
// exact semantics from the paper at O(1) memory per key.
//
// Time is an opaque int64 tick so the monitor works for both the
// discrete-event simulator (logical ticks) and the real mini-DFS
// (nanoseconds).
package popularity

import (
	"errors"
	"fmt"
	"sync"
)

// Errors returned by monitor construction.
var (
	ErrBadBucketLen = errors.New("popularity: bucket length must be positive")
	ErrBadBuckets   = errors.New("popularity: bucket count must be positive")
)

// Monitor counts accesses per key over a sliding window of
// numBuckets*bucketLen ticks. It is safe for concurrent use.
type Monitor[K comparable] struct {
	bucketLen  int64
	numBuckets int

	mu    sync.Mutex
	cells map[K]*cell
}

// cell is the per-key circular bucket array.
type cell struct {
	counts []int64
	// last is the absolute bucket index that counts[last % len] refers
	// to. Buckets between observations are implicitly zeroed on advance.
	last int64
}

// NewMonitor creates a monitor whose sliding window spans
// numBuckets*bucketLen ticks.
func NewMonitor[K comparable](bucketLen int64, numBuckets int) (*Monitor[K], error) {
	if bucketLen <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrBadBucketLen, bucketLen)
	}
	if numBuckets <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrBadBuckets, numBuckets)
	}
	return &Monitor[K]{
		bucketLen:  bucketLen,
		numBuckets: numBuckets,
		cells:      make(map[K]*cell),
	}, nil
}

// Window reports the total window length in ticks.
func (m *Monitor[K]) Window() int64 { return m.bucketLen * int64(m.numBuckets) }

// Record registers one access of key at time now (in ticks). Accesses
// recorded out of order within the current window are attributed to their
// own bucket; accesses older than the whole window are dropped.
func (m *Monitor[K]) Record(key K, now int64) {
	m.RecordN(key, now, 1)
}

// RecordN registers n accesses of key at time now.
func (m *Monitor[K]) RecordN(key K, now int64, n int64) {
	if n <= 0 {
		return
	}
	bucket := m.bucketIndex(now)
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.cells[key]
	if !ok {
		c = &cell{counts: make([]int64, m.numBuckets), last: bucket}
		m.cells[key] = c
	}
	c.advance(bucket, m.numBuckets)
	if bucket <= c.last-int64(m.numBuckets) {
		return // too old, outside the window entirely
	}
	idx := bucket % int64(m.numBuckets)
	if idx < 0 {
		idx += int64(m.numBuckets)
	}
	c.counts[idx] += n
}

// Popularity returns the number of accesses of key within the window
// ending at now.
func (m *Monitor[K]) Popularity(key K, now int64) int64 {
	bucket := m.bucketIndex(now)
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.cells[key]
	if !ok {
		return 0
	}
	c.advance(bucket, m.numBuckets)
	var total int64
	for _, v := range c.counts {
		total += v
	}
	return total
}

// Snapshot returns the popularity of every key with a nonzero count in
// the window ending at now. Keys whose counts have fully expired are
// pruned from the monitor as a side effect, bounding memory to the
// working set. Because of that side effect Snapshot belongs on the
// *consuming* path (one call per optimization period); read-only
// observers — telemetry exporters, debug endpoints — must use Peek, or
// monitor state starts depending on scrape frequency.
func (m *Monitor[K]) Snapshot(now int64) map[K]int64 {
	bucket := m.bucketIndex(now)
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[K]int64, len(m.cells))
	for key, c := range m.cells {
		c.advance(bucket, m.numBuckets)
		var total int64
		for _, v := range c.counts {
			total += v
		}
		if total == 0 {
			delete(m.cells, key)
			continue
		}
		out[key] = total
	}
	return out
}

// Peek returns the same per-key window totals Snapshot would, but
// read-only: no cell advances, no pruning, no visible state change of
// any kind. Telemetry and observer paths use it so that repeated
// scrapes can never perturb what the optimizer later reads — Len() and
// the prune schedule are identical whether Peek ran zero times or a
// thousand.
func (m *Monitor[K]) Peek(now int64) map[K]int64 {
	bucket := m.bucketIndex(now)
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[K]int64, len(m.cells))
	for key, c := range m.cells {
		if total := c.sumAt(bucket, m.numBuckets); total != 0 {
			out[key] = total
		}
	}
	return out
}

// Forget removes all state for key (e.g. when the block is deleted).
func (m *Monitor[K]) Forget(key K) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.cells, key)
}

// Len reports the number of keys currently tracked (including keys whose
// counts may have expired but have not been pruned by a Snapshot yet).
func (m *Monitor[K]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cells)
}

func (m *Monitor[K]) bucketIndex(now int64) int64 {
	b := now / m.bucketLen
	if now < 0 && now%m.bucketLen != 0 {
		b-- // floor division for negative ticks
	}
	return b
}

// advance rolls the cell forward to absolute bucket index `to`, zeroing
// any buckets that scrolled out of the window. Moving backwards is a
// no-op (late records land in their historical bucket if still in range).
func (c *cell) advance(to int64, numBuckets int) {
	if to <= c.last {
		return
	}
	steps := to - c.last
	if steps >= int64(numBuckets) {
		for i := range c.counts {
			c.counts[i] = 0
		}
	} else {
		for b := c.last + 1; b <= to; b++ {
			idx := b % int64(numBuckets)
			if idx < 0 {
				idx += int64(numBuckets)
			}
			c.counts[idx] = 0
		}
	}
	c.last = to
}

// sumAt computes the window total as of absolute bucket `to` without
// mutating the cell. It mirrors advance-then-sum exactly: for a query
// in the cell's future, buckets that an advance to `to` would scroll
// out of the ring — those at or before to-numBuckets — are excluded;
// for a query at or before the cell's frontier the whole ring counts,
// matching advance's backwards no-op.
func (c *cell) sumAt(to int64, numBuckets int) int64 {
	var total int64
	if to <= c.last {
		for _, v := range c.counts {
			total += v
		}
		return total
	}
	if to-c.last >= int64(numBuckets) {
		return 0
	}
	// Live buckets after an advance to `to` would be (to-numBuckets,
	// c.last]; anything newer than c.last is still zero.
	for b := to - int64(numBuckets) + 1; b <= c.last; b++ {
		idx := b % int64(numBuckets)
		if idx < 0 {
			idx += int64(numBuckets)
		}
		total += c.counts[idx]
	}
	return total
}
