package stream

import (
	"fmt"
	"math"
	"sort"

	"wantraffic/internal/trace"
)

// Trace kinds a Sketch can summarize.
const (
	ConnSketch   = "conn"
	PacketSketch = "packet"
)

// Config parameterizes a sketch set. The zero value selects the
// defaults; every field is pinned into the serialized state, so a
// restored sketch never depends on the restoring process's config.
type Config struct {
	// Epsilon is the GK rank-error bound (DefaultEpsilon when unset).
	Epsilon float64
	// ReservoirSize is the per-dimension sample capacity
	// (DefaultReservoirSize when unset).
	ReservoirSize int
	// Seed drives the reservoir RNGs; each (shard, dimension) pair
	// derives its own sub-seed so shards sample independently.
	Seed int64
	// WindowWidth is the arrival-count window in seconds (1 s when
	// unset), the Appendix-A test interval.
	WindowWidth float64
	// AggBinWidth is the variance-time base bin in seconds (1 s for
	// connection sketches, 0.01 s for packet sketches when unset).
	AggBinWidth float64
	// Horizon, when positive, pins the variance-time bin vector to
	// the trace horizon (stats.CountProcess semantics).
	Horizon float64
}

// withDefaults fills unset Config fields for the given trace kind.
func (c Config) withDefaults(traceKind string) Config {
	if !(c.Epsilon > 0 && c.Epsilon < 1) {
		c.Epsilon = DefaultEpsilon
	}
	if c.ReservoirSize < 1 {
		c.ReservoirSize = DefaultReservoirSize
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if !(c.WindowWidth > 0) {
		c.WindowWidth = 1
	}
	if !(c.AggBinWidth > 0) {
		if traceKind == PacketSketch {
			c.AggBinWidth = 0.01
		} else {
			c.AggBinWidth = 1
		}
	}
	if c.Horizon < 0 {
		c.Horizon = 0
	}
	return c
}

// Dim bundles the standard per-dimension accumulators: exact moments,
// an ε-quantile summary, a log₂ histogram, and a seeded sample.
type Dim struct {
	Moments *Moments
	Quant   *GK
	Hist    *Log2Hist
	Sample  *Reservoir
}

// newDim builds a dimension sketch with a (shard, name)-derived
// reservoir seed.
func newDim(cfg Config, shard int, name string) *Dim {
	return &Dim{
		Moments: NewMoments(),
		Quant:   NewGK(cfg.Epsilon),
		Hist:    NewLog2Hist(),
		Sample:  NewReservoir(cfg.ReservoirSize, dimSeed(cfg.Seed, shard, name)),
	}
}

// dimSeed mixes the base seed, shard index and dimension name into a
// per-reservoir seed (FNV-1a).
func dimSeed(seed int64, shard int, name string) int64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) { h ^= v; h *= 1099511628211 }
	mix(uint64(seed))
	mix(uint64(int64(shard)))
	for i := 0; i < len(name); i++ {
		mix(uint64(name[i]))
	}
	s := int64(h & (1<<62 - 1))
	if s == 0 {
		s = 1
	}
	return s
}

// Observe folds one observation into every accumulator.
func (d *Dim) Observe(x float64) {
	d.Moments.Observe(x)
	d.Quant.Observe(x)
	d.Hist.Observe(x)
	d.Sample.Observe(x)
}

// ObserveMany folds a batch into every accumulator via the batch
// interface; the final state is byte-identical to an Observe loop.
func (d *Dim) ObserveMany(xs []float64) {
	d.Moments.ObserveMany(xs)
	d.Quant.ObserveMany(xs)
	d.Hist.ObserveMany(xs)
	d.Sample.ObserveMany(xs)
}

// Merge folds another dimension sketch in.
func (d *Dim) Merge(o *Dim) error {
	if err := d.Moments.Merge(o.Moments); err != nil {
		return err
	}
	if err := d.Quant.Merge(o.Quant); err != nil {
		return err
	}
	if err := d.Hist.Merge(o.Hist); err != nil {
		return err
	}
	return d.Sample.Merge(o.Sample)
}

// checkMerge is Merge's precondition: the quantile sketches' ε and the
// reservoirs' capacities match.
func (d *Dim) checkMerge(o *Dim) error {
	if err := d.Quant.checkMerge(o.Quant); err != nil {
		return err
	}
	return d.Sample.checkMerge(o.Sample)
}

// clone deep-copies the dimension, each accumulator as its Restore
// would rebuild it from State output.
func (d *Dim) clone() *Dim {
	m := *d.Moments
	return &Dim{Moments: &m, Quant: d.Quant.clone(), Hist: d.Hist.clone(), Sample: d.Sample.clone()}
}

var dimKeys = []string{"moments", "quantiles", "hist", "sample"}

func (d *Dim) write(w *stateWriter) {
	w.open('{')
	w.key("moments")
	d.Moments.write(w)
	w.key("quantiles")
	d.Quant.write(w)
	w.key("hist")
	d.Hist.write(w)
	w.key("sample")
	d.Sample.write(w)
	w.close('}')
}

func readDim(r *stateReader) *Dim {
	var d Dim
	seen := r.object(dimKeys, func(key string) {
		switch key {
		case "moments":
			d.Moments = readMoments(r)
		case "quantiles":
			d.Quant = readGK(r)
		case "hist":
			d.Hist = readLog2Hist(r)
		case "sample":
			d.Sample = readReservoir(r)
		}
	})
	if r.err == nil && seen != all(dimKeys) {
		r.failf("stream: dimension state lacks one of %v", dimKeys)
	}
	return &d
}

// Obs is one derived observation record, the per-record facts every
// estimator starts from. Source derives it from the raw trace records,
// which never reach the accumulators or the observatory themselves.
type Obs struct {
	// Time is the record's arrival time in seconds since trace start.
	Time float64
	// Value is the record's volume: total bytes for a connection,
	// payload bytes for a packet.
	Value float64
	// Duration is the connection duration (conn sketches only).
	Duration float64
	// Gap is the interarrival gap to the previous record; HasGap is
	// false for the first record of a stream.
	Gap    float64
	HasGap bool
	// Proto is the record's protocol. It sits in the padding after
	// HasGap, so Obs stays 40 bytes.
	Proto trace.Protocol
}

// Sketch is the composite streaming summary of one trace: a fixed set
// of named dimension sketches (bytes/duration/gap for connection
// traces, size/gap for packet traces) plus the arrival-count window
// and the variance-time accumulator. Each pipeline shard owns one
// Sketch; MergeSketches folds them canonically.
type Sketch struct {
	traceKind string
	shard     int
	records   int64
	dims      map[string]*Dim
	arrivals  *WindowCounter
	aggVar    *AggVar
	// scratch holds ObserveBatch's columnar views of the current
	// batch. Pure working memory: never serialized, never cloned.
	scratch *batchScratch
}

// batchScratch is the columnar decomposition of one observation batch,
// reused across batches so the hot path allocates nothing.
type batchScratch struct {
	vals, durs, gaps, times []float64
}

// NewSketch builds an empty sketch for the given trace kind
// (ConnSketch or PacketSketch) and shard index.
func NewSketch(traceKind string, shard int, cfg Config) (*Sketch, error) {
	names, ok := sketchDims[traceKind]
	if !ok {
		return nil, fmt.Errorf("stream: unknown trace kind %q", traceKind)
	}
	cfg = cfg.withDefaults(traceKind)
	s := &Sketch{
		traceKind: traceKind,
		shard:     shard,
		dims:      make(map[string]*Dim, len(names)),
		arrivals:  NewWindowCounter(cfg.WindowWidth),
		aggVar:    NewAggVar(cfg.AggBinWidth, cfg.Horizon),
	}
	for _, name := range names {
		s.dims[name] = newDim(cfg, shard, name)
	}
	return s, nil
}

// TraceKind returns ConnSketch or PacketSketch.
func (s *Sketch) TraceKind() string { return s.traceKind }

// Shard returns the shard index used for canonical merge ordering.
func (s *Sketch) Shard() int { return s.shard }

// Records returns the number of records folded in.
func (s *Sketch) Records() int64 { return s.records }

// DimNames returns the dimension names in canonical (sorted) order.
func (s *Sketch) DimNames() []string {
	names := make([]string, 0, len(s.dims))
	for name := range s.dims {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Dim returns the named dimension sketch, nil if absent.
func (s *Sketch) Dim(name string) *Dim { return s.dims[name] }

// Arrivals returns the windowed arrival counter.
func (s *Sketch) Arrivals() *WindowCounter { return s.arrivals }

// AggVar returns the variance-time accumulator.
func (s *Sketch) AggVar() *AggVar { return s.aggVar }

// valueDim names the volume dimension for the sketch's kind.
func (s *Sketch) valueDim() string {
	if s.traceKind == PacketSketch {
		return "size"
	}
	return "bytes"
}

// Observe folds one observation record in.
func (s *Sketch) Observe(o Obs) {
	s.records++
	s.dims[s.valueDim()].Observe(o.Value)
	if d, ok := s.dims["duration"]; ok {
		d.Observe(o.Duration)
	}
	if o.HasGap {
		s.dims["gap"].Observe(o.Gap)
	}
	s.arrivals.Observe(o.Time)
	s.aggVar.Observe(o.Time)
}

// ObserveBatch folds a batch of observation records in. It transposes
// the batch into per-dimension columns and feeds each accumulator
// through ObserveMany, which amortizes dispatch while preserving every
// accumulator's observation subsequence — so the resulting state is
// byte-identical to calling Observe on each record in order (each
// accumulator's state depends only on its own input sequence, and the
// columns keep those sequences intact).
func (s *Sketch) ObserveBatch(obs []Obs) {
	if len(obs) == 0 {
		return
	}
	if s.scratch == nil {
		s.scratch = &batchScratch{}
	}
	sc := s.scratch
	vals, times := sc.vals[:0], sc.times[:0]
	durs, gaps := sc.durs[:0], sc.gaps[:0]
	durDim := s.dims["duration"]
	for _, o := range obs {
		vals = append(vals, o.Value)
		times = append(times, o.Time)
		if durDim != nil {
			durs = append(durs, o.Duration)
		}
		if o.HasGap {
			gaps = append(gaps, o.Gap)
		}
	}
	sc.vals, sc.durs, sc.gaps, sc.times = vals, durs, gaps, times
	s.records += int64(len(obs))
	s.dims[s.valueDim()].ObserveMany(vals)
	if durDim != nil {
		durDim.ObserveMany(durs)
	}
	if len(gaps) > 0 {
		s.dims["gap"].ObserveMany(gaps)
	}
	s.arrivals.ObserveMany(times)
	s.aggVar.ObserveMany(times)
}

// CheckMerge returns the error Merge(o) would fail with, without
// merging: o is of another trace kind, or was built with other
// settings (GK ε, reservoir capacity, window width, aggregation bin
// width or horizon). Nil means Merge succeeds.
func (s *Sketch) CheckMerge(o *Sketch) error {
	if o.traceKind != s.traceKind {
		return fmt.Errorf("stream: cannot merge %s sketch into %s sketch", o.traceKind, s.traceKind)
	}
	for _, name := range s.DimNames() {
		od, ok := o.dims[name]
		if !ok {
			return fmt.Errorf("stream: merge source lacks dimension %q", name)
		}
		if err := s.dims[name].checkMerge(od); err != nil {
			return fmt.Errorf("stream: merging dimension %q: %w", name, err)
		}
	}
	if err := s.arrivals.checkMerge(o.arrivals); err != nil {
		return err
	}
	return s.aggVar.checkMerge(o.aggVar)
}

// Merge folds another sketch of the same trace kind in. Like every
// accumulator Merge it is pure but not bitwise associative; use
// MergeSketches for canonical cross-shard folds. A sketch CheckMerge
// refuses is refused before anything is folded.
func (s *Sketch) Merge(o *Sketch) error {
	if err := s.CheckMerge(o); err != nil {
		return err
	}
	for _, name := range s.DimNames() {
		if err := s.dims[name].Merge(o.dims[name]); err != nil {
			return fmt.Errorf("stream: merging dimension %q: %w", name, err)
		}
	}
	if err := s.arrivals.Merge(o.arrivals); err != nil {
		return err
	}
	if err := s.aggVar.Merge(o.aggVar); err != nil {
		return err
	}
	s.records += o.records
	return nil
}

var (
	sketchKeys = []string{"trace_kind", "shard", "records", "dims", "arrivals", "aggvar"}
	// dimNames lists every dimension a sketch state may carry, the keys
	// of its dims object; sketchDims says which each trace kind has.
	dimNames   = []string{"bytes", "duration", "gap", "size"}
	sketchDims = map[string][]string{
		ConnSketch:   {"bytes", "duration", "gap"},
		PacketSketch: {"size", "gap"},
	}
)

// State serializes the full sketch deterministically as JSON, its
// dimensions in sorted name order.
func (s *Sketch) State() ([]byte, error) {
	return encode(func(w *stateWriter) {
		w.open('{')
		w.str("trace_kind", s.traceKind)
		w.int("shard", int64(s.shard))
		w.int("records", s.records)
		w.key("dims")
		w.open('{')
		for _, name := range s.DimNames() {
			w.key(name)
			s.dims[name].write(w)
		}
		w.close('}')
		w.key("arrivals")
		s.arrivals.write(w)
		w.key("aggvar")
		s.aggVar.write(w)
		w.close('}')
	})
}

// RestoreSketch rebuilds a sketch from State output.
func RestoreSketch(data []byte) (*Sketch, error) {
	return decode(data, readSketch)
}

func readSketch(r *stateReader) *Sketch {
	s := &Sketch{dims: make(map[string]*Dim, 3)}
	var kind []byte
	r.object(sketchKeys, func(key string) {
		switch key {
		case "trace_kind":
			kind = r.rawString()
		case "shard":
			s.shard = r.intn()
		case "records":
			s.records = r.int()
		case "dims":
			r.object(dimNames, func(name string) {
				if s.dims[name] = readDim(r); r.err != nil {
					r.wrap("stream: restoring dimension %q", name)
				}
			})
		case "arrivals":
			s.arrivals = readWindow(r)
		case "aggvar":
			s.aggVar = readAggVar(r)
		}
	})
	if r.err != nil {
		return nil
	}
	want, ok := sketchDims[string(kind)]
	if !ok {
		r.failf("stream: unknown trace kind %q", kind)
		return nil
	}
	s.traceKind = string(kind)
	if s.records < 0 {
		r.failf("stream: sketch state claims %d records", s.records)
		return nil
	}
	if len(s.dims) != len(want) {
		r.failf("stream: %s sketch state has %d dimensions, want %d", s.traceKind, len(s.dims), len(want))
		return nil
	}
	for _, name := range want {
		if s.dims[name] == nil {
			r.failf("stream: sketch state lacks dimension %q", name)
			return nil
		}
	}
	if s.arrivals == nil || s.aggVar == nil {
		r.failf("stream: sketch state lacks its arrivals or aggvar state")
		return nil
	}
	return s
}

// Clone deep-copies a sketch. The copy equals RestoreSketch(s.State())
// without the round trip: each reservoir's RNG is left unbuilt, as
// Restore leaves it.
func (s *Sketch) Clone() (*Sketch, error) {
	c := &Sketch{
		traceKind: s.traceKind,
		shard:     s.shard,
		records:   s.records,
		dims:      make(map[string]*Dim, len(s.dims)),
		arrivals:  s.arrivals.clone(),
		aggVar:    s.aggVar.clone(),
	}
	for name, d := range s.dims {
		c.dims[name] = d.clone()
	}
	return c, nil
}

// MergeSketches folds shard sketches into one, in ascending shard
// index regardless of the order the slice arrives in — the canonical
// ordering that makes the merged state byte-identical across shard
// arrival permutations (floating-point Merge is pure but not bitwise
// associative, so the fold order must be pinned). The inputs are not
// modified.
func MergeSketches(shards []*Sketch) (*Sketch, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("stream: no sketches to merge")
	}
	ordered := append([]*Sketch(nil), shards...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].shard < ordered[j].shard })
	out, err := ordered[0].Clone()
	if err != nil {
		return nil, err
	}
	for _, sh := range ordered[1:] {
		if err := out.Merge(sh); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DimSummary is the JSON-friendly digest of one dimension.
type DimSummary struct {
	Count  int64   `json:"count"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
}

// Summary is the JSON-friendly digest of a whole sketch, the block
// wanstream prints.
type Summary struct {
	TraceKind  string                `json:"trace_kind"`
	Records    int64                 `json:"records"`
	Dims       map[string]DimSummary `json:"dims"`
	Windows    int                   `json:"windows"`
	Rate       float64               `json:"rate_per_sec"`
	Dispersion float64               `json:"dispersion"`
	Lag1       float64               `json:"lag1_autocorr"`
	VTSlope    float64               `json:"vt_slope"`
	HurstVT    float64               `json:"hurst_vt"`
}

// finite maps NaN/±Inf (empty-sketch artifacts) to 0 so the summary
// always marshals.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Summarize digests the sketch. The variance-time slope is fitted
// over aggregation levels 10–500 with 5 points per decade, the same
// parameters the batch Section VII experiments use; slope −1 is
// Poisson, and H = 1 + slope/2.
func (s *Sketch) Summarize() Summary {
	sum := Summary{
		TraceKind:  s.traceKind,
		Records:    s.records,
		Dims:       make(map[string]DimSummary, len(s.dims)),
		Windows:    s.arrivals.Windows(),
		Rate:       finite(s.arrivals.Rate()),
		Dispersion: finite(s.arrivals.Dispersion()),
		Lag1:       finite(s.arrivals.Lag1()),
	}
	for _, name := range s.DimNames() {
		d := s.dims[name]
		sum.Dims[name] = DimSummary{
			Count:  d.Moments.Count(),
			Mean:   finite(d.Moments.Mean()),
			StdDev: finite(d.Moments.StdDev()),
			Min:    finite(d.Moments.Min()),
			Max:    finite(d.Moments.Max()),
			P50:    finite(d.Quant.Quantile(0.5)),
			P90:    finite(d.Quant.Quantile(0.9)),
			P99:    finite(d.Quant.Quantile(0.99)),
		}
	}
	if s.aggVar.Bins() >= 20 {
		slope := s.aggVar.VTSlope(500, 5, 10, 500)
		sum.VTSlope = finite(slope)
		sum.HurstVT = finite(1 + slope/2)
	}
	return sum
}
