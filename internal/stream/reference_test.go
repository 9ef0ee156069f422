package stream

import (
	"encoding/json"
	"fmt"
	"math"
)

// The reference codec: the encoding/json implementation the state
// codec replaced, kept as the specification its tests compare
// against. refState writes what State wrote through the per-kind
// state structs; refRestore reads through them and applies the same
// checks Restore applied. Reservoirs come back with their RNG unbuilt,
// as the codec under test leaves them: the replay is not part of the
// wire format.

// envelope is the serialized form shared by every accumulator: the
// kind tag plus the kind-specific state.
type envelope struct {
	Kind  string          `json:"kind"`
	State json.RawMessage `json:"state"`
}

// marshalState wraps a kind-specific state in the envelope.
func marshalState(kind string, state any) ([]byte, error) {
	raw, err := json.Marshal(state)
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{Kind: kind, State: raw})
}

// unmarshalState unwraps an envelope, checking the kind tag.
func unmarshalState(kind string, data []byte, state any) error {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("stream: corrupt %s state: %w", kind, err)
	}
	if env.Kind != kind {
		return fmt.Errorf("stream: state kind %q, want %q", env.Kind, kind)
	}
	if err := json.Unmarshal(env.State, state); err != nil {
		return fmt.Errorf("stream: corrupt %s state: %w", kind, err)
	}
	return nil
}

// jsonF64 is a float64 that survives JSON round-trips of ±Inf and NaN
// (encoded as the strings "+Inf", "-Inf", "NaN").
type jsonF64 float64

// MarshalJSON implements json.Marshaler.
func (f jsonF64) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *jsonF64) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"+Inf"`:
		*f = jsonF64(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = jsonF64(math.Inf(-1))
		return nil
	case `"NaN"`:
		*f = jsonF64(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*f = jsonF64(v)
	return nil
}

func toJSONF64(vs []float64) []jsonF64 {
	out := make([]jsonF64, len(vs))
	for i, v := range vs {
		out[i] = jsonF64(v)
	}
	return out
}

func fromJSONF64(vs []jsonF64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = float64(v)
	}
	return out
}

type momentsState struct {
	N    int64   `json:"n"`
	Mean jsonF64 `json:"mean"`
	M2   jsonF64 `json:"m2"`
	Min  jsonF64 `json:"min"`
	Max  jsonF64 `json:"max"`
}

type refGKTuple struct {
	V     jsonF64 `json:"v"`
	G     int64   `json:"g"`
	Delta int64   `json:"d"`
}

type gkState struct {
	Eps    float64      `json:"eps"`
	N      int64        `json:"n"`
	Tuples []refGKTuple `json:"tuples"`
	Buf    []jsonF64    `json:"buf,omitempty"`
}

type log2State struct {
	NonPos  int64    `json:"non_positive"`
	Total   int64    `json:"total"`
	Buckets []Bucket `json:"buckets"`
}

type reservoirState struct {
	K      int       `json:"k"`
	Seed   int64     `json:"seed"`
	N      int64     `json:"n"`
	Sample []jsonF64 `json:"sample"`
}

type windowState struct {
	Width  float64 `json:"width"`
	Early  int64   `json:"early"`
	Late   int64   `json:"late"`
	Total  int64   `json:"total"`
	Counts []int64 `json:"counts"`
}

type aggVarState struct {
	Horizon float64 `json:"horizon"`
	Width   float64 `json:"width"`
	Early   int64   `json:"early"`
	Late    int64   `json:"late"`
	Total   int64   `json:"total"`
	Counts  []int64 `json:"counts"`
}

type rollingState struct {
	Width         float64 `json:"width"`
	Keep          int     `json:"keep"`
	Started       bool    `json:"started"`
	Base          int64   `json:"base"`
	Ring          []int64 `json:"ring"`
	EvictedWins   int64   `json:"evicted_windows"`
	EvictedEvents int64   `json:"evicted_events"`
	Stale         int64   `json:"stale"`
	Early         int64   `json:"early"`
	Total         int64   `json:"total"`
}

type tumblingState struct {
	Width  float64         `json:"width"`
	Cur    int64           `json:"window"`
	Open   bool            `json:"open"`
	Closed int64           `json:"closed"`
	Late   int64           `json:"late"`
	Total  int64           `json:"total"`
	Inner  json.RawMessage `json:"inner"`
}

type refDecayedBucket struct {
	Exp    int     `json:"exp"`
	Weight jsonF64 `json:"w"`
}

type decayedState struct {
	Width    float64            `json:"width"`
	HalfLife float64            `json:"half_life"`
	Cur      int64              `json:"window"`
	Open     bool               `json:"open"`
	Weight   jsonF64            `json:"weight"`
	Mean     jsonF64            `json:"mean"`
	M2       jsonF64            `json:"m2"`
	NonPos   jsonF64            `json:"non_positive"`
	Total    int64              `json:"total"`
	Late     int64              `json:"late"`
	Buckets  []refDecayedBucket `json:"buckets"`
}

type dimState struct {
	Moments json.RawMessage `json:"moments"`
	Quant   json.RawMessage `json:"quantiles"`
	Hist    json.RawMessage `json:"hist"`
	Sample  json.RawMessage `json:"sample"`
}

type sketchState struct {
	TraceKind string              `json:"trace_kind"`
	Shard     int                 `json:"shard"`
	Records   int64               `json:"records"`
	Dims      map[string]dimState `json:"dims"`
	Arrivals  json.RawMessage     `json:"arrivals"`
	AggVar    json.RawMessage     `json:"aggvar"`
}

// refState serializes any state-carrying value the reference way.
func refState(v any) ([]byte, error) {
	switch a := v.(type) {
	case *Moments:
		return marshalState(momentsKind, momentsState{
			N: a.n, Mean: jsonF64(a.mean), M2: jsonF64(a.m2), Min: jsonF64(a.min), Max: jsonF64(a.max),
		})
	case *GK:
		st := gkState{Eps: a.eps, N: a.n}
		if a.tuples != nil {
			st.Tuples = make([]refGKTuple, len(a.tuples))
			for i, t := range a.tuples {
				st.Tuples[i] = refGKTuple{V: jsonF64(t.V), G: t.G, Delta: t.Delta}
			}
		}
		if len(a.buf) > 0 {
			st.Buf = toJSONF64(a.buf)
		}
		return marshalState(gkKind, st)
	case *Log2Hist:
		return marshalState(log2Kind, log2State{NonPos: a.nonPos, Total: a.total, Buckets: a.Buckets()})
	case *Reservoir:
		return marshalState(reservoirKind, reservoirState{K: a.k, Seed: a.seed, N: a.n, Sample: toJSONF64(a.sample)})
	case *WindowCounter:
		return marshalState(windowKind, windowState{Width: a.width, Early: a.early, Late: a.late, Total: a.total, Counts: a.counts})
	case *AggVar:
		w := a.counts
		return marshalState(aggVarKind, aggVarState{
			Horizon: a.horizon, Width: w.width, Early: w.early, Late: w.late, Total: w.total, Counts: w.counts,
		})
	case *RollingCounter:
		return marshalState(rollingKind, rollingState{
			Width: a.width, Keep: a.keep, Started: a.started, Base: a.base, Ring: a.ring,
			EvictedWins: a.evictedWins, EvictedEvents: a.evictedEvents,
			Stale: a.stale, Early: a.early, Total: a.total,
		})
	case *Tumbling:
		inner, err := refState(a.inner)
		if err != nil {
			return nil, err
		}
		return marshalState(tumblingKind, tumblingState{
			Width: a.width, Cur: a.cur, Open: a.open, Closed: a.closed,
			Late: a.late, Total: a.total, Inner: inner,
		})
	case *Decayed:
		buckets := make([]refDecayedBucket, 0, len(a.buckets))
		for _, b := range a.Buckets() {
			buckets = append(buckets, refDecayedBucket{Exp: b.Exp, Weight: jsonF64(b.Weight)})
		}
		return marshalState(decayedKind, decayedState{
			Width: a.width, HalfLife: a.halfLife, Cur: a.cur, Open: a.open,
			Weight: jsonF64(a.weight), Mean: jsonF64(a.mean), M2: jsonF64(a.m2),
			NonPos: jsonF64(a.nonPos), Total: a.total, Late: a.late, Buckets: buckets,
		})
	case *Dim:
		st, err := refDimState(a)
		if err != nil {
			return nil, err
		}
		return json.Marshal(st)
	case *Sketch:
		st := sketchState{
			TraceKind: a.traceKind, Shard: a.shard, Records: a.records,
			Dims: make(map[string]dimState, len(a.dims)),
		}
		for name, d := range a.dims {
			ds, err := refDimState(d)
			if err != nil {
				return nil, err
			}
			st.Dims[name] = ds
		}
		var err error
		if st.Arrivals, err = refState(a.arrivals); err != nil {
			return nil, err
		}
		if st.AggVar, err = refState(a.aggVar); err != nil {
			return nil, err
		}
		return json.Marshal(st)
	}
	return nil, fmt.Errorf("refState: unsupported %T", v)
}

func refDimState(d *Dim) (dimState, error) {
	var st dimState
	var err error
	if st.Moments, err = refState(d.Moments); err != nil {
		return st, err
	}
	if st.Quant, err = refState(d.Quant); err != nil {
		return st, err
	}
	if st.Hist, err = refState(d.Hist); err != nil {
		return st, err
	}
	st.Sample, err = refState(d.Sample)
	return st, err
}

// refRestore replaces v's state from data the reference way; like
// Restore it leaves v untouched on error. Windowed kinds check the
// state's shape against v's.
func refRestore(v any, data []byte) error {
	switch a := v.(type) {
	case *Moments:
		var st momentsState
		if err := unmarshalState(momentsKind, data, &st); err != nil {
			return err
		}
		*a = Moments{n: st.N, mean: float64(st.Mean), m2: float64(st.M2), min: float64(st.Min), max: float64(st.Max)}
	case *GK:
		var st gkState
		if err := unmarshalState(gkKind, data, &st); err != nil {
			return err
		}
		if !(st.Eps > 0 && st.Eps < 1) {
			return fmt.Errorf("stream: gk state has invalid eps %g", st.Eps)
		}
		var total int64
		for _, t := range st.Tuples {
			if t.G < 0 || t.Delta < 0 {
				return fmt.Errorf("stream: gk state has negative rank span")
			}
			total += t.G
		}
		if total > st.N || st.N < 0 {
			return fmt.Errorf("stream: gk state covers %d ranks but claims n=%d", total, st.N)
		}
		fresh := NewGK(st.Eps)
		fresh.n = st.N
		if st.Tuples != nil {
			fresh.tuples = make([]gkTuple, len(st.Tuples))
			for i, t := range st.Tuples {
				fresh.tuples[i] = gkTuple{V: float64(t.V), G: t.G, Delta: t.Delta}
			}
		}
		if len(st.Buf) > 0 {
			fresh.buf = fromJSONF64(st.Buf)
		}
		*a = *fresh
	case *Log2Hist:
		var st log2State
		if err := unmarshalState(log2Kind, data, &st); err != nil {
			return err
		}
		counts := make(map[int]int64, len(st.Buckets))
		var sum int64
		for _, b := range st.Buckets {
			if b.Count < 0 {
				return fmt.Errorf("stream: log2hist bucket %d has negative count", b.Exp)
			}
			counts[b.Exp] += b.Count
			sum += b.Count
		}
		if st.NonPos < 0 || sum+st.NonPos != st.Total {
			return fmt.Errorf("stream: log2hist buckets sum to %d but total is %d", sum+st.NonPos, st.Total)
		}
		*a = Log2Hist{counts: counts, nonPos: st.NonPos, total: st.Total}
	case *Reservoir:
		var st reservoirState
		if err := unmarshalState(reservoirKind, data, &st); err != nil {
			return err
		}
		if st.K < 1 || st.N < 0 || len(st.Sample) > st.K {
			return fmt.Errorf("stream: reservoir state k=%d n=%d holds %d samples", st.K, st.N, len(st.Sample))
		}
		*a = Reservoir{k: st.K, seed: st.Seed, n: st.N, sample: fromJSONF64(st.Sample), replay: st.N}
	case *WindowCounter:
		var st windowState
		if err := unmarshalState(windowKind, data, &st); err != nil {
			return err
		}
		if !(st.Width > 0) {
			return fmt.Errorf("stream: window state has invalid width %g", st.Width)
		}
		if err := refCheckCounts(windowKind, st.Counts, st.Early, st.Late, st.Total); err != nil {
			return err
		}
		*a = WindowCounter{width: st.Width, counts: st.Counts, early: st.Early, late: st.Late, total: st.Total}
	case *AggVar:
		var st aggVarState
		if err := unmarshalState(aggVarKind, data, &st); err != nil {
			return err
		}
		if !(st.Width > 0) || st.Horizon < 0 {
			return fmt.Errorf("stream: aggvar state has invalid width %g or horizon %g", st.Width, st.Horizon)
		}
		if err := refCheckCounts(aggVarKind, st.Counts, st.Early, st.Late, st.Total); err != nil {
			return err
		}
		a.horizon = st.Horizon
		a.counts = &WindowCounter{width: st.Width, counts: st.Counts, early: st.Early, late: st.Late, total: st.Total}
	case *RollingCounter:
		var st rollingState
		if err := unmarshalState(rollingKind, data, &st); err != nil {
			return err
		}
		if st.Width != a.width || st.Keep != a.keep {
			return fmt.Errorf("stream: rolling state shape %gx%d does not match the counter's %gx%d",
				st.Width, st.Keep, a.width, a.keep)
		}
		if len(st.Ring) > st.Keep {
			return fmt.Errorf("stream: rolling state holds %d windows (keep %d)", len(st.Ring), st.Keep)
		}
		if err := checkWindow(rollingKind, st.Base); err != nil {
			return err
		}
		var binned int64
		for _, c := range st.Ring {
			if c < 0 {
				return fmt.Errorf("stream: rolling state has negative count")
			}
			binned += c
		}
		if st.EvictedEvents < 0 || st.Stale < 0 || st.Early < 0 ||
			binned+st.EvictedEvents+st.Stale+st.Early != st.Total {
			return fmt.Errorf("stream: rolling counts sum to %d but total is %d",
				binned+st.EvictedEvents+st.Stale+st.Early, st.Total)
		}
		*a = RollingCounter{
			width: st.Width, keep: st.Keep, started: st.Started, base: st.Base, ring: st.Ring,
			evictedWins: st.EvictedWins, evictedEvents: st.EvictedEvents,
			stale: st.Stale, early: st.Early, total: st.Total,
		}
	case *Tumbling:
		var st tumblingState
		if err := unmarshalState(tumblingKind, data, &st); err != nil {
			return err
		}
		if st.Width != a.width {
			return fmt.Errorf("stream: tumbling state width %g does not match the summary's %g", st.Width, a.width)
		}
		if err := checkWindow(tumblingKind, st.Cur); err != nil {
			return err
		}
		if st.Closed < 0 || st.Late < 0 || st.Total < 0 {
			return fmt.Errorf("stream: tumbling state has negative counters")
		}
		inner := NewGK(a.eps)
		if err := refRestore(inner, st.Inner); err != nil {
			return fmt.Errorf("stream: tumbling inner: %w", err)
		}
		a.cur, a.open, a.closed, a.late, a.total, a.inner =
			st.Cur, st.Open, st.Closed, st.Late, st.Total, inner
	case *Decayed:
		var st decayedState
		if err := unmarshalState(decayedKind, data, &st); err != nil {
			return err
		}
		if st.Width != a.width || st.HalfLife != a.halfLife {
			return fmt.Errorf("stream: decayed state shape %g/%g does not match the accumulator's %g/%g",
				st.Width, st.HalfLife, a.width, a.halfLife)
		}
		if err := checkWindow(decayedKind, st.Cur); err != nil {
			return err
		}
		if st.Total < 0 || st.Late < 0 || float64(st.Weight) < 0 || float64(st.NonPos) < 0 {
			return fmt.Errorf("stream: decayed state has negative mass")
		}
		buckets := make(map[int]float64, len(st.Buckets))
		for _, b := range st.Buckets {
			if float64(b.Weight) < 0 {
				return fmt.Errorf("stream: decayed bucket %d has negative weight", b.Exp)
			}
			buckets[b.Exp] += float64(b.Weight)
		}
		*a = Decayed{
			width: st.Width, halfLife: st.HalfLife, cur: st.Cur, open: st.Open,
			weight: float64(st.Weight), mean: float64(st.Mean), m2: float64(st.M2),
			nonPos: float64(st.NonPos), total: st.Total, late: st.Late, buckets: buckets,
		}
	default:
		return fmt.Errorf("refRestore: unsupported %T", v)
	}
	return nil
}

func refCheckCounts(kind string, counts []int64, early, late, total int64) error {
	unit := "windows"
	if kind == aggVarKind {
		unit = "bins"
	}
	if len(counts) > MaxWindows {
		return fmt.Errorf("stream: %s state spans %d %s (limit %d)", kind, len(counts), unit, MaxWindows)
	}
	var binned int64
	for _, c := range counts {
		if c < 0 {
			return fmt.Errorf("stream: %s state has negative count", kind)
		}
		binned += c
	}
	if early < 0 || late < 0 || binned+early+late != total {
		return fmt.Errorf("stream: %s counts sum to %d but total is %d", kind, binned+early+late, total)
	}
	return nil
}

func refRestoreDim(st dimState) (*Dim, error) {
	d := &Dim{Moments: NewMoments(), Quant: NewGK(DefaultEpsilon), Hist: NewLog2Hist(), Sample: NewReservoir(DefaultReservoirSize, 1)}
	if err := refRestore(d.Moments, st.Moments); err != nil {
		return nil, err
	}
	if err := refRestore(d.Quant, st.Quant); err != nil {
		return nil, err
	}
	if err := refRestore(d.Hist, st.Hist); err != nil {
		return nil, err
	}
	if err := refRestore(d.Sample, st.Sample); err != nil {
		return nil, err
	}
	return d, nil
}

// refRestoreSketch is RestoreSketch the reference way.
func refRestoreSketch(data []byte) (*Sketch, error) {
	var st sketchState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("stream: corrupt sketch state: %w", err)
	}
	fresh, err := NewSketch(st.TraceKind, st.Shard, Config{})
	if err != nil {
		return nil, err
	}
	if st.Records < 0 {
		return nil, fmt.Errorf("stream: sketch state claims %d records", st.Records)
	}
	if len(st.Dims) != len(fresh.dims) {
		return nil, fmt.Errorf("stream: %s sketch state has %d dimensions, want %d", st.TraceKind, len(st.Dims), len(fresh.dims))
	}
	for name := range fresh.dims {
		ds, ok := st.Dims[name]
		if !ok {
			return nil, fmt.Errorf("stream: sketch state lacks dimension %q", name)
		}
		if fresh.dims[name], err = refRestoreDim(ds); err != nil {
			return nil, fmt.Errorf("stream: restoring dimension %q: %w", name, err)
		}
	}
	if err := refRestore(fresh.arrivals, st.Arrivals); err != nil {
		return nil, err
	}
	if err := refRestore(fresh.aggVar, st.AggVar); err != nil {
		return nil, err
	}
	fresh.records = st.Records
	return fresh, nil
}
