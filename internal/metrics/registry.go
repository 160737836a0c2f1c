package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name/value pair qualifying a metric series, e.g.
// {"type", "read_block"} on an RPC latency histogram.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// SeriesID renders the canonical identity of a series: the metric name,
// plus its labels sorted by key in {k="v",...} form when present. Two
// lookups with the same name and the same label set (in any order) yield
// the same series.
func SeriesID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels) == 1 {
		// The shape of nearly every hot-path lookup (type=, dir=,
		// event=): nothing to sort, and %q on a string is strconv's
		// quoting, appended here without fmt's detour.
		l := labels[0]
		b := make([]byte, 0, len(name)+len(l.Key)+len(l.Value)+len(`{=""}`))
		b = append(b, name...)
		b = append(b, '{')
		b = append(b, l.Key...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, l.Value)
		b = append(b, '}')
		return string(b)
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// series is the bookkeeping shared by every registered instrument.
type series struct {
	name   string
	labels []Label
}

// Registry unifies counters, gauges and histograms under labeled names.
// Lookups memoize: hot paths may call Counter/Gauge/Histogram per event
// or cache the returned pointer — recording itself never takes the
// registry lock. Snapshot is deterministic: series are ordered by their
// canonical SeriesID.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*LogHistogram
	meta     map[string]series
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*LogHistogram),
		meta:     make(map[string]series),
	}
}

func (r *Registry) remember(key, name string, labels []Label) {
	if _, ok := r.meta[key]; ok {
		return
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	r.meta[key] = series{name: name, labels: ls}
}

// Counter returns the counter series, creating it at zero on first use.
// A name must be used for a single instrument kind (the exposition
// format forbids a name that is both a counter and a gauge).
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	key := SeriesID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
		r.remember(key, name, labels)
	}
	return c
}

// Gauge returns the gauge series, creating it at zero on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	key := SeriesID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
		r.remember(key, name, labels)
	}
	return g
}

// Histogram returns the histogram series, creating it empty on first
// use. All histograms share the fixed log-width bucket geometry, so any
// two series are mergeable.
func (r *Registry) Histogram(name string, labels ...Label) *LogHistogram {
	key := SeriesID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[key]
	if !ok {
		h = &LogHistogram{}
		r.hists[key] = h
		r.remember(key, name, labels)
	}
	return h
}

// CounterPoint is one counter series in a snapshot.
type CounterPoint struct {
	Name   string
	Labels []Label
	Value  int64
}

// GaugePoint is one gauge series in a snapshot.
type GaugePoint struct {
	Name   string
	Labels []Label
	Value  float64
}

// HistogramPoint is one histogram series in a snapshot.
type HistogramPoint struct {
	Name   string
	Labels []Label
	Hist   HistogramSnapshot
}

// Snapshot is a deterministic point-in-time copy of a registry: each
// section is sorted by canonical SeriesID, so two snapshots of identical
// state render identically.
type Snapshot struct {
	Counters   []CounterPoint
	Gauges     []GaugePoint
	Histograms []HistogramPoint
}

// Snapshot copies every series' current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for _, key := range sortedKeys(r.counters) {
		m := r.meta[key]
		s.Counters = append(s.Counters, CounterPoint{Name: m.name, Labels: m.labels, Value: r.counters[key].Value()})
	}
	for _, key := range sortedKeys(r.gauges) {
		m := r.meta[key]
		s.Gauges = append(s.Gauges, GaugePoint{Name: m.name, Labels: m.labels, Value: r.gauges[key].Value()})
	}
	for _, key := range sortedKeys(r.hists) {
		m := r.meta[key]
		s.Histograms = append(s.Histograms, HistogramPoint{Name: m.name, Labels: m.labels, Hist: r.hists[key].Snapshot()})
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CounterValues returns the current value of every counter series keyed
// by SeriesID — the map the fault/retry tests assert against.
func (r *Registry) CounterValues() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for key, c := range r.counters {
		out[key] = c.Value()
	}
	return out
}

// Reset zeroes every series in place (tests isolate themselves with
// this). The instruments stay registered, so a pointer a hot path
// cached before Reset keeps recording into the series a later Snapshot
// reports.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// String renders the non-zero counters sorted by series, one per line —
// the format the testbed CLI prints after a chaos run.
func (r *Registry) String() string {
	snap := r.CounterValues()
	keys := make([]string, 0, len(snap))
	for key, v := range snap {
		if v != 0 {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, key := range keys {
		fmt.Fprintf(&b, "%-40s %d\n", key, snap[key])
	}
	return b.String()
}
