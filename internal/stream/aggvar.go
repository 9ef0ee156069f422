package stream

import (
	"fmt"
	"math"

	"wantraffic/internal/stats"
)

const aggVarKind = "aggvar"

// AggVar is the aggregated-variance (variance-time) accumulator that
// feeds the Section VII self-similarity pipeline: it bins event times
// into a base count process at binWidth and, on demand, produces the
// variance-time curve (stats.VarianceTime) and its Hurst slope
// exactly as the batch pipeline would — because the per-bin counts
// are exact integers, the streaming curve is byte-identical to the
// batch one over the same events.
//
// Memory is O(bins) = horizon/binWidth, independent of the number of
// events; Merge adds count vectors element-wise, exactly.
type AggVar struct {
	counts *WindowCounter
	// horizon > 0 reproduces stats.CountProcess's fixed-horizon
	// semantics (events at/after it are dropped, the bin count is
	// ceil(horizon/binWidth)); 0 grows with the observed times.
	horizon float64
}

// NewAggVar returns an empty accumulator over a count process at
// binWidth-second bins (binWidth ≤ 0 selects 0.01 s, the paper's
// packet-trace default). A positive horizon pins the bin vector to
// ceil(horizon/binWidth) bins with stats.CountProcess's edge rules;
// horizon 0 lets it grow with the stream.
func NewAggVar(binWidth, horizon float64) *AggVar {
	if !(binWidth > 0) {
		binWidth = 0.01
	}
	a := &AggVar{counts: NewWindowCounter(binWidth), horizon: horizon}
	if horizon > 0 {
		n := int(math.Ceil(horizon / binWidth))
		if n > MaxWindows {
			n = MaxWindows
		}
		a.counts.counts = make([]int64, n)
	}
	return a
}

// Kind implements Accumulator.
func (a *AggVar) Kind() string { return aggVarKind }

// Count returns the number of events observed.
func (a *AggVar) Count() int64 { return a.counts.Count() }

// Bins returns the current number of base bins.
func (a *AggVar) Bins() int { return a.counts.Windows() }

// Observe records an event at time x. With a pinned horizon, events
// at or beyond it are dropped (stats.CountProcess semantics) except
// that the floating-point edge case exactly at the last bin boundary
// clamps into the final bin, also matching CountProcess.
func (a *AggVar) Observe(x float64) {
	if a.horizon > 0 {
		if x < 0 || x >= a.horizon || math.IsNaN(x) {
			a.counts.total++
			a.counts.early++
			return
		}
		i := int(x / a.counts.width)
		if i >= len(a.counts.counts) { // edge at the horizon
			i = len(a.counts.counts) - 1
		}
		a.counts.total++
		a.counts.counts[i]++
		return
	}
	a.counts.Observe(x)
}

// ObserveMany folds a batch of event times in — exact integer
// binning, identical to repeated Observe.
func (a *AggVar) ObserveMany(xs []float64) {
	for _, x := range xs {
		a.Observe(x)
	}
}

// Counts returns the base count process as float64s — exactly
// stats.CountProcess(times, binWidth, horizon) when the horizon is
// pinned.
func (a *AggVar) Counts() []float64 { return a.counts.Counts() }

// VariancePoints computes the variance-time curve for logarithmically
// spaced aggregation levels up to maxM with pointsPerDecade points per
// decade — the exact batch computation (stats.VarianceTime) over the
// streamed counts.
func (a *AggVar) VariancePoints(maxM, pointsPerDecade int) []stats.VTPoint {
	return stats.VarianceTime(a.Counts(), maxM, pointsPerDecade)
}

// VTSlope fits the variance-time slope over aggregation levels
// [loM, hiM]; slope −1 is Poisson, 2H−2 for self-similar processes.
func (a *AggVar) VTSlope(maxM, pointsPerDecade, loM, hiM int) float64 {
	return stats.VTSlope(a.VariancePoints(maxM, pointsPerDecade), loM, hiM)
}

// Merge adds another accumulator's count vector. Bin widths and
// horizons must match.
func (a *AggVar) Merge(other Accumulator) error {
	o, ok := other.(*AggVar)
	if !ok {
		return kindError(aggVarKind, other)
	}
	if err := a.checkMerge(o); err != nil {
		return err
	}
	return a.counts.Merge(o.counts)
}

// checkMerge is Merge's precondition: equal horizons and bin widths.
func (a *AggVar) checkMerge(o *AggVar) error {
	if o.horizon != a.horizon {
		return fmt.Errorf("stream: merging aggvar sketches with different horizons (%g vs %g)", o.horizon, a.horizon)
	}
	if o.counts.width != a.counts.width {
		return fmt.Errorf("stream: merging aggvar sketches with different bin widths (%g vs %g)", o.counts.width, a.counts.width)
	}
	return nil
}

func (a *AggVar) clone() *AggVar { return &AggVar{counts: a.counts.clone(), horizon: a.horizon} }

var aggVarKeys = []string{"horizon", "width", "early", "late", "total", "counts"}

// write appends the state: the window state's fields under the pinned
// horizon.
func (a *AggVar) write(w *stateWriter) {
	c := a.counts
	w.envelope(aggVarKind)
	w.num("horizon", a.horizon)
	w.num("width", c.width)
	w.int("early", c.early)
	w.int("late", c.late)
	w.int("total", c.total)
	w.ints("counts", c.counts)
	w.closeEnvelope()
}

func readAggVar(r *stateReader) *AggVar {
	a := &AggVar{counts: &WindowCounter{}}
	c := a.counts
	r.envelope(aggVarKind, aggVarKeys, func(key string) {
		switch key {
		case "horizon":
			a.horizon = r.num()
		case "width":
			c.width = r.num()
		case "early":
			c.early = r.int()
		case "late":
			c.late = r.int()
		case "total":
			c.total = r.int()
		case "counts":
			c.counts = r.ints()
		}
	})
	if r.err != nil {
		return nil
	}
	if !(c.width > 0) || a.horizon < 0 {
		r.failf("stream: aggvar state has invalid width %g or horizon %g", c.width, a.horizon)
		return nil
	}
	if err := c.checkCounts(aggVarKind, "bins"); err != nil {
		r.fail(err)
		return nil
	}
	return a
}

// State implements Accumulator.
func (a *AggVar) State() ([]byte, error) { return encode(a.write) }

// Restore implements Accumulator.
func (a *AggVar) Restore(data []byte) error { return restoreInto(a, data, readAggVar) }
