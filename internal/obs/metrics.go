package obs

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named counters, gauges and histograms. A nil
// *Registry is valid: its lookup methods return nil instruments whose
// update methods no-op, so instrumented code runs unchanged with
// observability off.
//
// Naming convention (DESIGN.md §9): dotted lowercase path,
// layer-first — "runner.retries", "par.task_ms", "trace.records.kept".
// Duration histograms end in "_ms" and observe milliseconds.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string // registry name → HELP text (OpenMetrics)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing int64. Nil receivers no-op.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64. Nil receivers no-op.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d (atomically, via CAS).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + d
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Max raises the gauge to v if v is larger than the current value
// (atomic max via CAS) and leaves it alone otherwise. This is the
// watermark primitive: lock-free, allocation-free, monotone under any
// interleaving of concurrent callers. Set still overwrites.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets: counts[i] tallies
// values <= bounds[i], with one overflow bucket beyond the last
// bound. Observe is lock-free. Nil receivers no-op.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64
	sum    Gauge // atomic float64 accumulator
	n      atomic.Int64
	// countName/sumName are the derived scalar sample names
	// ("<name>.count", "<name>.sum"), precomputed at registration so
	// SamplesInto stays allocation-free on the history scrape tick.
	countName, sumName string
}

// DurationBucketsMS is the default bucket layout for "_ms" duration
// histograms: roughly logarithmic from 0.1 ms to 30 s.
var DurationBucketsMS = []float64{0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 30000}

// Observe tallies v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds (ascending; nil selects DurationBucketsMS) on first
// use. Later calls ignore bounds — the first registration wins.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	if bounds == nil {
		bounds = DurationBucketsMS
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]atomic.Int64, len(bounds)+1),
			countName: name + ".count", sumName: name + ".sum"}
		r.hists[name] = h
	}
	return h
}

// Names returns every registered metric name, sorted — the set golden
// tests pin.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Sample is one scalar reading of an instrument, as enumerated by
// SamplesInto — the unit the monitor's metrics history records.
type Sample struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// SamplesInto appends one Sample per scalar series to buf and returns
// the extended slice, sorted by name: every counter (as a float),
// every gauge, and for each histogram its two scalar derivatives
// "<name>.count" and "<name>.sum" (per-bucket history is deliberately
// out of scope — the buckets are cumulative and reconstructible from
// /metrics). Passing a reused buf keeps the steady state
// allocation-free once capacity has grown to fit, which is what lets
// the monitor self-scrape on every tick without heap churn.
func (r *Registry) SamplesInto(buf []Sample) []Sample {
	if r == nil {
		return buf
	}
	r.mu.RLock()
	for n, c := range r.counters {
		buf = append(buf, Sample{Name: n, Value: float64(c.Value())})
	}
	for n, g := range r.gauges {
		buf = append(buf, Sample{Name: n, Value: g.Value()})
	}
	for _, h := range r.hists {
		buf = append(buf, Sample{Name: h.countName, Value: float64(h.Count())})
		buf = append(buf, Sample{Name: h.sumName, Value: h.Sum()})
	}
	r.mu.RUnlock()
	slices.SortFunc(buf, func(a, b Sample) int { return strings.Compare(a.Name, b.Name) })
	return buf
}

// histSnapshot is the JSON form of one histogram.
type histSnapshot struct {
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Buckets []bucketSnap `json:"buckets"`
}

type bucketSnap struct {
	LE string `json:"le"` // upper bound, "+Inf" for the overflow bucket
	N  int64  `json:"n"`
}

// JSON renders an expvar-style snapshot with deterministic ordering:
// metric kinds in fixed order, names sorted within each kind, bucket
// bounds in registration order. Only values vary between runs.
func (r *Registry) JSON() ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var b bytes.Buffer
	b.WriteString("{\n  \"counters\": {")
	writeSorted(&b, keys(r.counters), func(b *bytes.Buffer, n string) {
		fmt.Fprintf(b, "%q: %d", n, r.counters[n].Value())
	})
	b.WriteString("},\n  \"gauges\": {")
	writeSorted(&b, keys(r.gauges), func(b *bytes.Buffer, n string) {
		fmt.Fprintf(b, "%q: %s", n, formatFloat(r.gauges[n].Value()))
	})
	b.WriteString("},\n  \"histograms\": {")
	writeSorted(&b, keys(r.hists), func(b *bytes.Buffer, n string) {
		h := r.hists[n]
		fmt.Fprintf(b, "%q: {\"count\": %d, \"sum\": %s, \"buckets\": [",
			n, h.Count(), formatFloat(h.Sum()))
		for i := range h.counts {
			if i > 0 {
				b.WriteString(", ")
			}
			le := "\"+Inf\""
			if i < len(h.bounds) {
				le = formatFloat(h.bounds[i])
			}
			fmt.Fprintf(b, "{\"le\": %s, \"n\": %d}", le, h.counts[i].Load())
		}
		b.WriteString("]}")
	})
	b.WriteString("}\n}\n")
	return b.Bytes(), nil
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func writeSorted(b *bytes.Buffer, names []string, write func(*bytes.Buffer, string)) {
	for i, n := range names {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n    ")
		write(b, n)
	}
	if len(names) > 0 {
		b.WriteString("\n  ")
	}
}

// formatFloat renders a float for JSON: integral values without a
// fraction, everything else via %g. (Histogram sums of millisecond
// observations stay readable either way.)
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
