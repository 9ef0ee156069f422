package stream

import (
	"fmt"
	"math"
	"sort"
)

const gkKind = "gk"

// DefaultEpsilon is the default rank-error bound for GK sketches:
// quantile estimates are within ±0.5% of the true rank.
const DefaultEpsilon = 0.005

// GK is a Greenwald–Khanna ε-approximate quantile summary: after n
// observations, Quantile(p) returns a value whose true rank is within
// εn of ⌈p·n⌉, using O((1/ε)·log(εn)) memory.
//
// Error bound under merging (property-tested, documented in DESIGN.md
// §10): a single-shard sketch guarantees rank error ≤ ε. Merging
// sorted-concatenates the tuple lists without re-compressing, so a
// merge of any number of ε-sketches (pairwise, in any tree shape)
// guarantees rank error ≤ 2ε — the documented end-to-end bound for
// the sharded pipeline, which with the default ε of 0.5% yields ≤1%
// rank error. New observations after a merge may re-compress and are
// covered by the same 2ε bound.
//
// Determinism: the summary is a pure function of the observation
// sequence; Merge is a pure function of the two states (canonical
// cross-shard ordering is the caller's job — see MergeSketches).
type GK struct {
	eps     float64
	n       int64
	tuples  []gkTuple
	buf     []float64 // insertion buffer, flushed in sorted order
	bufSize int
	// scratch is flush's spare tuple array: each flush builds into it
	// and retires the old tuples array as the next scratch, so the
	// steady-state hot path allocates nothing. Never serialized or
	// cloned — it carries no state, only capacity.
	scratch []gkTuple
}

// gkTuple is one summary entry: value v covering g ranks, with rank
// uncertainty delta. V is jsonF64 so a sketch fed Inf/NaN from a
// corrupted trace still serializes.
type gkTuple struct {
	V     jsonF64 `json:"v"`
	G     int64   `json:"g"`
	Delta int64   `json:"d"`
}

// NewGK returns an empty summary with rank-error bound eps
// (0 < eps < 1; out-of-range values select DefaultEpsilon).
func NewGK(eps float64) *GK {
	if !(eps > 0 && eps < 1) {
		eps = DefaultEpsilon
	}
	g := &GK{eps: eps}
	// Buffering amortizes insertion: flushing k sorted values into the
	// summary costs one merge pass instead of k binary searches.
	g.bufSize = int(1/eps) / 2
	if g.bufSize < 16 {
		g.bufSize = 16
	}
	return g
}

// Kind implements Accumulator.
func (g *GK) Kind() string { return gkKind }

// Count returns the number of observations.
func (g *GK) Count() int64 { return g.n + int64(len(g.buf)) }

// Observe folds one observation in.
func (g *GK) Observe(x float64) {
	g.buf = append(g.buf, x)
	if len(g.buf) >= g.bufSize {
		g.flush()
	}
}

// ObserveMany folds a batch in through the same flush boundaries the
// per-observation path hits: the buffer fills to exactly bufSize
// before each flush, so the buffered contents at every flush — and
// therefore the summary's state — are byte-identical to an Observe
// loop. Each flush is one sorted-batch insert (sort the buffer, one
// merge pass against the tuple list, compress).
func (g *GK) ObserveMany(xs []float64) {
	for len(xs) > 0 {
		room := g.bufSize - len(g.buf)
		if room <= 0 {
			g.flush()
			continue
		}
		if room > len(xs) {
			room = len(xs)
		}
		g.buf = append(g.buf, xs[:room]...)
		xs = xs[room:]
		if len(g.buf) >= g.bufSize {
			g.flush()
		}
	}
}

// flush drains the insertion buffer into the tuple list (one merge
// pass over both sorted sequences) and re-compresses. It builds into
// the scratch array and retires the old tuple array as the next
// scratch, so steady-state flushes allocate nothing.
func (g *GK) flush() {
	if len(g.buf) == 0 {
		return
	}
	sort.Float64s(g.buf)
	merged := g.scratch[:0]
	if cap(merged) < len(g.tuples)+len(g.buf) {
		merged = make([]gkTuple, 0, len(g.tuples)+len(g.buf))
	}
	maxDelta := int64(2 * g.eps * float64(g.n+int64(len(g.buf))))
	i, j := 0, 0
	for i < len(g.tuples) || j < len(g.buf) {
		if j >= len(g.buf) || (i < len(g.tuples) && float64(g.tuples[i].V) <= g.buf[j]) {
			merged = append(merged, g.tuples[i])
			i++
			continue
		}
		// A fresh value at the extremes must have delta 0 (it may BE
		// the min/max); interior insertions get the full uncertainty.
		delta := int64(0)
		if len(merged) > 0 && (i < len(g.tuples) || j < len(g.buf)-1) {
			delta = maxDelta
			if delta < 1 {
				delta = 0
			} else {
				delta--
			}
		}
		merged = append(merged, gkTuple{V: jsonF64(g.buf[j]), G: 1, Delta: delta})
		j++
	}
	g.n += int64(len(g.buf))
	g.buf = g.buf[:0]
	g.scratch = g.tuples[:0]
	g.tuples = merged
	g.compress()
}

// compress merges adjacent tuples whose combined span stays within
// the 2εn budget, keeping the summary at O((1/ε)·log(εn)) entries.
func (g *GK) compress() {
	if len(g.tuples) < 3 {
		return
	}
	budget := int64(2 * g.eps * float64(g.n))
	out := g.tuples[:0]
	out = append(out, g.tuples[0])
	for i := 1; i < len(g.tuples); i++ {
		t := g.tuples[i]
		last := &out[len(out)-1]
		// Never merge into the last tuple (it pins the maximum), and
		// keep the first tuple intact (it pins the minimum).
		if len(out) > 1 && i < len(g.tuples)-1 && last.G+t.G+t.Delta <= budget {
			t.G += last.G
			out[len(out)-1] = t
		} else {
			out = append(out, t)
		}
	}
	g.tuples = out
}

// Quantile returns a value whose rank is within ε·n (2ε·n after
// merges) of ⌈p·n⌉. It panics outside [0,1] and returns NaN when
// empty. Like State, it never mutates the summary: buffered
// observations are folded into a throwaway clone, so querying a
// sketch mid-stream cannot shift its flush boundaries (which would
// make the final bytes depend on when a monitor happened to look).
func (g *GK) Quantile(p float64) float64 {
	if !(p >= 0 && p <= 1) {
		panic("stream: quantile probability outside [0,1]")
	}
	if len(g.buf) > 0 {
		g = g.clone()
		g.flush()
	}
	if g.n == 0 || len(g.tuples) == 0 {
		return math.NaN()
	}
	target := int64(math.Ceil(p * float64(g.n)))
	if target < 1 {
		target = 1
	}
	bound := int64(g.eps * float64(g.n))
	var rmin int64
	for i, t := range g.tuples {
		rmin += t.G
		rmax := rmin + t.Delta
		if target-rmin <= bound && rmax-target <= bound {
			return float64(t.V)
		}
		if i == len(g.tuples)-1 {
			break
		}
	}
	return float64(g.tuples[len(g.tuples)-1].V)
}

// Merge combines another GK summary. The receiver's ε must equal the
// other's; the merged guarantee weakens to 2ε (see the type comment).
func (g *GK) Merge(other Accumulator) error {
	o, ok := other.(*GK)
	if !ok {
		return kindError(gkKind, other)
	}
	if o.eps != g.eps {
		return fmt.Errorf("stream: merging gk sketches with different eps (%g vs %g)", o.eps, g.eps)
	}
	// Self-merge must observe the state before mutation.
	if o == g {
		o = g.clone()
	}
	o2 := o.clone()
	o2.flush()
	if o2.n == 0 {
		// Folding an empty summary must leave the receiver's bytes
		// untouched — including its unflushed buffer.
		return nil
	}
	g.flush()
	if g.n == 0 {
		*g = *o2
		return nil
	}
	merged := make([]gkTuple, 0, len(g.tuples)+len(o2.tuples))
	i, j := 0, 0
	for i < len(g.tuples) || j < len(o2.tuples) {
		if j >= len(o2.tuples) || (i < len(g.tuples) && g.tuples[i].V <= o2.tuples[j].V) {
			merged = append(merged, g.tuples[i])
			i++
		} else {
			merged = append(merged, o2.tuples[j])
			j++
		}
	}
	g.tuples = merged
	g.n += o2.n
	// Deliberately NOT re-compressed: a sorted concatenation of two
	// ε-summaries is itself within the inputs' rank-error bound, while
	// compressing against the combined 2εn budget spends fresh error
	// on every fold level — across an N-shard fold that compounds past
	// 2ε (the property test on merged bounds catches exactly this).
	// The cost is summary size growing additively with the number of
	// merged shards, which is bounded by the pipeline's shard count.
	return nil
}

// clone copies the summary (buffer included; scratch stays behind —
// sharing it would let two summaries scribble on one array).
func (g *GK) clone() *GK {
	c := *g
	c.tuples = append([]gkTuple(nil), g.tuples...)
	c.buf = append([]float64(nil), g.buf...)
	c.scratch = nil
	return &c
}

// gkState is the serialized form. The insertion buffer is serialized
// as-is, NOT flushed: State must be an exact, non-mutating capture so
// that (a) serializing mid-stream — a worker's periodic upload, a
// checkpoint — cannot perturb the summary's later flush boundaries,
// and (b) a restored summary continues byte-identically to the
// uninterrupted original. Buf is empty for merged sketches (Merge
// flushes), so merged states keep their historical byte layout.
type gkState struct {
	Eps    float64   `json:"eps"`
	N      int64     `json:"n"`
	Tuples []gkTuple `json:"tuples"`
	Buf    []jsonF64 `json:"buf,omitempty"`
}

// State implements Accumulator. It does not modify the summary.
func (g *GK) State() ([]byte, error) {
	st := gkState{Eps: g.eps, N: g.n, Tuples: g.tuples}
	if len(g.buf) > 0 {
		st.Buf = make([]jsonF64, len(g.buf))
		for i, v := range g.buf {
			st.Buf[i] = jsonF64(v)
		}
	}
	return marshalState(gkKind, st)
}

// Restore implements Accumulator.
func (g *GK) Restore(data []byte) error {
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
	fresh.tuples = st.Tuples
	if len(st.Buf) > 0 {
		fresh.buf = make([]float64, len(st.Buf))
		for i, v := range st.Buf {
			fresh.buf[i] = float64(v)
		}
	}
	*g = *fresh
	return nil
}
