package stream

import (
	"maps"
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

func (h *Log2Hist) clone() *Log2Hist {
	return &Log2Hist{counts: maps.Clone(h.counts), nonPos: h.nonPos, total: h.total}
}

var (
	log2Keys   = []string{"non_positive", "total", "buckets"}
	bucketKeys = []string{"exp", "n"}
)

// write appends the state: populated buckets in ascending exponent
// order, so equal histograms serialize identically.
func (h *Log2Hist) write(w *stateWriter) {
	w.envelope(log2Kind)
	w.int("non_positive", h.nonPos)
	w.int("total", h.total)
	w.key("buckets")
	w.open('[')
	for _, b := range h.Buckets() {
		w.open('{')
		w.int("exp", int64(b.Exp))
		w.int("n", b.Count)
		w.close('}')
	}
	w.close(']')
	w.closeEnvelope()
}

func readLog2Hist(r *stateReader) *Log2Hist {
	h := NewLog2Hist()
	var sum int64
	r.envelope(log2Kind, log2Keys, func(key string) {
		switch key {
		case "non_positive":
			h.nonPos = r.int()
		case "total":
			h.total = r.int()
		case "buckets":
			r.array(func() {
				var b Bucket
				r.object(bucketKeys, func(key string) {
					if key == "exp" {
						b.Exp = r.intn()
					} else {
						b.Count = r.int()
					}
				})
				if r.err == nil && b.Count < 0 {
					r.failf("stream: log2hist bucket %d has negative count", b.Exp)
				}
				h.counts[b.Exp] += b.Count
				sum += b.Count
			})
		}
	})
	if r.err != nil {
		return nil
	}
	if h.nonPos < 0 || sum+h.nonPos != h.total {
		r.failf("stream: log2hist buckets sum to %d but total is %d", sum+h.nonPos, h.total)
		return nil
	}
	return h
}

// State implements Accumulator.
func (h *Log2Hist) State() ([]byte, error) { return encode(h.write) }

// Restore implements Accumulator.
func (h *Log2Hist) Restore(data []byte) error { return restoreInto(h, data, readLog2Hist) }
