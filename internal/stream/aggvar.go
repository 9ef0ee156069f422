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
	if o.horizon != a.horizon {
		return fmt.Errorf("stream: merging aggvar sketches with different horizons (%g vs %g)", o.horizon, a.horizon)
	}
	return a.counts.Merge(o.counts)
}

// aggVarState is the serialized form: the window state nested under
// the pinned horizon.
type aggVarState struct {
	Horizon float64 `json:"horizon"`
	Width   float64 `json:"width"`
	Early   int64   `json:"early"`
	Late    int64   `json:"late"`
	Total   int64   `json:"total"`
	Counts  []int64 `json:"counts"`
}

// State implements Accumulator.
func (a *AggVar) State() ([]byte, error) {
	w := a.counts
	return marshalState(aggVarKind, aggVarState{
		Horizon: a.horizon, Width: w.width, Early: w.early, Late: w.late, Total: w.total, Counts: w.counts,
	})
}

// Restore implements Accumulator.
func (a *AggVar) Restore(data []byte) error {
	var st aggVarState
	if err := unmarshalState(aggVarKind, data, &st); err != nil {
		return err
	}
	if !(st.Width > 0) || st.Horizon < 0 {
		return fmt.Errorf("stream: aggvar state has invalid width %g or horizon %g", st.Width, st.Horizon)
	}
	if len(st.Counts) > MaxWindows {
		return fmt.Errorf("stream: aggvar state spans %d bins (limit %d)", len(st.Counts), MaxWindows)
	}
	var binned int64
	for _, c := range st.Counts {
		if c < 0 {
			return fmt.Errorf("stream: aggvar state has negative count")
		}
		binned += c
	}
	if st.Early < 0 || st.Late < 0 || binned+st.Early+st.Late != st.Total {
		return fmt.Errorf("stream: aggvar counts sum to %d but total is %d", binned+st.Early+st.Late, st.Total)
	}
	a.horizon = st.Horizon
	a.counts = &WindowCounter{width: st.Width, counts: st.Counts, early: st.Early, late: st.Late, total: st.Total}
	return nil
}
