package stream

import "math"

const momentsKind = "moments"

// Moments tracks count, mean, variance, min and max of a stream in
// O(1) memory using Welford's online update, with Chan et al.'s
// pairwise combination for Merge.
//
// Accuracy contract (property-tested): Count, Min and Max are exact.
// Mean and Variance agree with the batch internal/stats results to
// ~1e-12 relative error — Welford is at least as accurate as the
// batch two-pass formulas, but reassociates the additions, so the
// low-order bits differ.
type Moments struct {
	n    int64
	mean float64
	m2   float64 // sum of squared deviations from the running mean
	min  float64
	max  float64
}

// NewMoments returns an empty moments accumulator.
func NewMoments() *Moments { return &Moments{min: math.Inf(1), max: math.Inf(-1)} }

// Kind implements Accumulator.
func (m *Moments) Kind() string { return momentsKind }

// Count returns the number of observations.
func (m *Moments) Count() int64 { return m.n }

// Observe folds one observation in (Welford's update).
func (m *Moments) Observe(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
	if x < m.min {
		m.min = x
	}
	if x > m.max {
		m.max = x
	}
}

// ObserveMany folds a batch in. The running state lives in locals for
// the duration of the loop; the arithmetic (and so the resulting
// bits) is exactly Observe's.
func (m *Moments) ObserveMany(xs []float64) {
	n, mean, m2, lo, hi := m.n, m.mean, m.m2, m.min, m.max
	for _, x := range xs {
		n++
		d := x - mean
		mean += d / float64(n)
		m2 += d * (x - mean)
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	m.n, m.mean, m.m2, m.min, m.max = n, mean, m2, lo, hi
}

// Merge combines another Moments using the parallel variance
// combination: with nA,nB observations, δ = meanB−meanA,
//
//	mean = meanA + δ·nB/n,  M2 = M2A + M2B + δ²·nA·nB/n.
func (m *Moments) Merge(other Accumulator) error {
	o, ok := other.(*Moments)
	if !ok {
		return kindError(momentsKind, other)
	}
	if o.n == 0 {
		return nil
	}
	if m.n == 0 {
		*m = *o
		return nil
	}
	nA, nB := float64(m.n), float64(o.n)
	n := nA + nB
	d := o.mean - m.mean
	m.mean += d * nB / n
	m.m2 += o.m2 + d*d*nA*nB/n
	m.n += o.n
	if o.min < m.min {
		m.min = o.min
	}
	if o.max > m.max {
		m.max = o.max
	}
	return nil
}

// Mean returns the running mean (0 when empty).
func (m *Moments) Mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.mean
}

// Variance returns the population variance (divisor n), matching
// stats.Variance.
func (m *Moments) Variance() float64 {
	if m.n == 0 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// SampleVariance returns the unbiased sample variance (divisor n−1),
// matching stats.SampleVariance.
func (m *Moments) SampleVariance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the square root of the population variance.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Min returns the smallest observation (+Inf when empty).
func (m *Moments) Min() float64 { return m.min }

// Max returns the largest observation (−Inf when empty).
func (m *Moments) Max() float64 { return m.max }

var momentsKeys = []string{"n", "mean", "m2", "min", "max"}

// write appends the state. The floats may be non-finite: the empty
// sketch's min/max are ±Inf, and a corrupted binary record can feed
// Inf/NaN observations into any moment.
func (m *Moments) write(w *stateWriter) {
	w.envelope(momentsKind)
	w.int("n", m.n)
	w.f64("mean", m.mean)
	w.f64("m2", m.m2)
	w.f64("min", m.min)
	w.f64("max", m.max)
	w.closeEnvelope()
}

func readMoments(r *stateReader) *Moments {
	var st Moments
	r.envelope(momentsKind, momentsKeys, func(key string) {
		switch key {
		case "n":
			st.n = r.int()
		case "mean":
			st.mean = r.f64()
		case "m2":
			st.m2 = r.f64()
		case "min":
			st.min = r.f64()
		case "max":
			st.max = r.f64()
		}
	})
	return &st
}

// State implements Accumulator.
func (m *Moments) State() ([]byte, error) { return encode(m.write) }

// Restore implements Accumulator.
func (m *Moments) Restore(data []byte) error { return restoreInto(m, data, readMoments) }
