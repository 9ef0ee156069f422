package stream

import (
	"fmt"
	"math"
	"sort"
)

const log2Kind = "log2hist"

// Log2Hist bins positive observations into logarithmic buckets
// [2^k, 2^(k+1)) keyed by the integer exponent k — the streaming
// counterpart of the log-spaced stats.NewLogHistogram views behind
// Figs. 3 and 8, with buckets pinned to powers of two so shard merges
// are exact integer adds regardless of the data range each shard saw.
// Non-positive observations (interarrival ties, zero-byte records)
// land in a dedicated bucket rather than distorting the scale.
//
// Memory is O(distinct exponents) ≤ 2098 for float64, independent of
// stream length; counts are exact (property-tested against a direct
// batch binning).
type Log2Hist struct {
	counts map[int]int64
	nonPos int64
	total  int64
}

// NewLog2Hist returns an empty histogram.
func NewLog2Hist() *Log2Hist { return &Log2Hist{counts: make(map[int]int64)} }

// Kind implements Accumulator.
func (h *Log2Hist) Kind() string { return log2Kind }

// Count returns the number of observations, including non-positive
// ones.
func (h *Log2Hist) Count() int64 { return h.total }

// NonPositive returns the count of observations ≤ 0 (or NaN).
func (h *Log2Hist) NonPositive() int64 { return h.nonPos }

// Exponent returns the bucket key of a positive observation:
// k such that 2^k ≤ x < 2^(k+1).
func Exponent(x float64) int { return math.Ilogb(x) }

// Observe folds one observation in.
func (h *Log2Hist) Observe(x float64) {
	h.total++
	if !(x > 0) || math.IsInf(x, 1) {
		h.nonPos++
		return
	}
	h.counts[Exponent(x)]++
}

// ObserveMany folds a batch in — integer bucket adds, so the loop is
// trivially identical to repeated Observe.
func (h *Log2Hist) ObserveMany(xs []float64) {
	for _, x := range xs {
		h.total++
		if !(x > 0) || math.IsInf(x, 1) {
			h.nonPos++
			continue
		}
		h.counts[Exponent(x)]++
	}
}

// BucketCount returns the count of bucket [2^k, 2^(k+1)).
func (h *Log2Hist) BucketCount(k int) int64 { return h.counts[k] }

// Bucket is one populated histogram bucket.
type Bucket struct {
	Exp   int     `json:"exp"` // bucket is [2^exp, 2^(exp+1))
	Count int64   `json:"n"`
	Lo    float64 `json:"-"`
	Hi    float64 `json:"-"`
}

// Buckets returns the populated buckets in ascending exponent order
// with their edges materialized.
func (h *Log2Hist) Buckets() []Bucket {
	out := make([]Bucket, 0, len(h.counts))
	for k, n := range h.counts {
		out = append(out, Bucket{Exp: k, Count: n, Lo: math.Ldexp(1, k), Hi: math.Ldexp(1, k+1)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Exp < out[j].Exp })
	return out
}

// Merge adds another histogram's buckets — exact and commutative.
func (h *Log2Hist) Merge(other Accumulator) error {
	o, ok := other.(*Log2Hist)
	if !ok {
		return kindError(log2Kind, other)
	}
	if o == h {
		h.total *= 2
		h.nonPos *= 2
		for k := range h.counts {
			h.counts[k] *= 2
		}
		return nil
	}
	h.total += o.total
	h.nonPos += o.nonPos
	for k, n := range o.counts {
		h.counts[k] += n
	}
	return nil
}

// log2State is the serialized form: populated buckets in ascending
// exponent order, so equal histograms serialize identically.
type log2State struct {
	NonPos  int64    `json:"non_positive"`
	Total   int64    `json:"total"`
	Buckets []Bucket `json:"buckets"`
}

// State implements Accumulator.
func (h *Log2Hist) State() ([]byte, error) {
	return marshalState(log2Kind, log2State{NonPos: h.nonPos, Total: h.total, Buckets: h.Buckets()})
}

// Restore implements Accumulator.
func (h *Log2Hist) Restore(data []byte) error {
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
	*h = Log2Hist{counts: counts, nonPos: st.NonPos, total: st.Total}
	return nil
}
