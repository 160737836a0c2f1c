package metrics

import (
	"math"
	"sync/atomic"
)

// Gauge is a float64 value that can go up and down, safe for concurrent
// use. The telemetry layer uses gauges for instantaneous state: in-flight
// RPC counts, per-machine load, the optimizer's last SOL.
//
// The value is stored as IEEE-754 bits in a uint64, so Set is a single
// atomic store and Add is a CAS loop — no locks on the record path.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the current value.
//
//lint:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (which may be negative) to the current value.
//
//lint:hotpath
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Inc adds one; Dec subtracts one. Together they track in-flight counts.
//
//lint:hotpath
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
//
//lint:hotpath
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }
