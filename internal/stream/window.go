package stream

import (
	"fmt"
	"math"
)

const windowKind = "window"

// WindowCounter bins event times into fixed-width windows and keeps
// the full count vector — the streaming form of the count processes
// behind the paper's Poisson tests: the Appendix A methodology tests
// arrival counts per fixed interval for the index of dispersion and
// serial independence a Poisson process would show.
//
// Memory is O(observed windows) = horizon/width — independent of the
// number of events, which is what matters for a packet stream
// (millions of arrivals, thousands of windows). Counts are exact
// int64s, so Merge (element-wise add) is exact and commutative.
type WindowCounter struct {
	width  float64
	counts []int64
	early  int64 // events before t=0
	late   int64 // events beyond MaxWindows
	total  int64
}

// MaxWindows caps the count vector so a corrupted timestamp (a
// fault-injected trace can claim an arrival at t=1e300) cannot force
// unbounded allocation; events beyond the cap are tallied in an
// overflow counter instead of binned. 2^22 windows of 8 bytes is a
// 32 MB ceiling — a month-long trace at 1 s windows uses 0.06% of it.
const MaxWindows = 1 << 22

// NewWindowCounter returns an empty counter with the given window
// width in seconds (width ≤ 0 selects 1 s).
func NewWindowCounter(width float64) *WindowCounter {
	if !(width > 0) {
		width = 1
	}
	return &WindowCounter{width: width}
}

// Kind implements Accumulator.
func (w *WindowCounter) Kind() string { return windowKind }

// Count returns the number of events observed.
func (w *WindowCounter) Count() int64 { return w.total }

// Windows returns the number of windows spanned so far.
func (w *WindowCounter) Windows() int { return len(w.counts) }

// Observe records an event at time x (seconds since trace start).
// Events before t=0 are tallied separately, never binned.
func (w *WindowCounter) Observe(x float64) {
	w.total++
	if x < 0 || math.IsNaN(x) {
		w.early++
		return
	}
	win := x / w.width
	if win >= MaxWindows {
		w.late++
		return
	}
	i := int(win)
	for i >= len(w.counts) {
		w.counts = append(w.counts, 0)
	}
	w.counts[i]++
}

// ObserveMany folds a batch of event times in — exact integer binning,
// identical to repeated Observe.
func (w *WindowCounter) ObserveMany(xs []float64) {
	for _, x := range xs {
		w.Observe(x)
	}
}

// Overflow returns the count of events beyond the MaxWindows cap.
func (w *WindowCounter) Overflow() int64 { return w.late }

// Counts returns the per-window counts as float64s, the form the
// batch statistics (stats.Mean, stats.Variance, stats.Autocorrelation)
// consume. The result matches stats.CountProcess over the same events
// exactly, for a horizon of Windows()·Width().
func (w *WindowCounter) Counts() []float64 {
	out := make([]float64, len(w.counts))
	for i, c := range w.counts {
		out[i] = float64(c)
	}
	return out
}

// Rate returns the mean event rate per second over the spanned
// windows.
func (w *WindowCounter) Rate() float64 {
	if len(w.counts) == 0 {
		return 0
	}
	return float64(w.total-w.early-w.late) / (float64(len(w.counts)) * w.width)
}

// Dispersion returns the index of dispersion (variance/mean) of the
// per-window counts — 1 for a Poisson process, greater under the
// burstiness the paper documents.
func (w *WindowCounter) Dispersion() float64 {
	n := len(w.counts)
	if n == 0 {
		return 0
	}
	var sum int64
	for _, c := range w.counts {
		sum += c
	}
	mean := float64(sum) / float64(n)
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, c := range w.counts {
		d := float64(c) - mean
		ss += d * d
	}
	return ss / float64(n) / mean
}

// Lag1 returns the lag-1 autocorrelation of the per-window counts,
// the serial-independence side of the Appendix A test.
func (w *WindowCounter) Lag1() float64 {
	n := len(w.counts)
	if n < 3 {
		return 0
	}
	var sum int64
	for _, c := range w.counts {
		sum += c
	}
	mean := float64(sum) / float64(n)
	var num, den float64
	for i, c := range w.counts {
		d := float64(c) - mean
		den += d * d
		if i+1 < n {
			num += d * (float64(w.counts[i+1]) - mean)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Merge adds another counter's windows element-wise. Widths must
// match.
func (w *WindowCounter) Merge(other Accumulator) error {
	o, ok := other.(*WindowCounter)
	if !ok {
		return kindError(windowKind, other)
	}
	if o.width != w.width {
		return fmt.Errorf("stream: merging window counters with different widths (%g vs %g)", o.width, w.width)
	}
	ocounts := o.counts
	if o == w {
		ocounts = append([]int64(nil), w.counts...)
	}
	for len(w.counts) < len(ocounts) {
		w.counts = append(w.counts, 0)
	}
	for i, c := range ocounts {
		w.counts[i] += c
	}
	w.early += o.early
	w.late += o.late
	w.total += o.total
	return nil
}

// windowState is the serialized form.
type windowState struct {
	Width  float64 `json:"width"`
	Early  int64   `json:"early"`
	Late   int64   `json:"late"`
	Total  int64   `json:"total"`
	Counts []int64 `json:"counts"`
}

// State implements Accumulator.
func (w *WindowCounter) State() ([]byte, error) {
	return marshalState(windowKind, windowState{Width: w.width, Early: w.early, Late: w.late, Total: w.total, Counts: w.counts})
}

// Restore implements Accumulator.
func (w *WindowCounter) Restore(data []byte) error {
	var st windowState
	if err := unmarshalState(windowKind, data, &st); err != nil {
		return err
	}
	if !(st.Width > 0) {
		return fmt.Errorf("stream: window state has invalid width %g", st.Width)
	}
	if len(st.Counts) > MaxWindows {
		return fmt.Errorf("stream: window state spans %d windows (limit %d)", len(st.Counts), MaxWindows)
	}
	var binned int64
	for _, c := range st.Counts {
		if c < 0 {
			return fmt.Errorf("stream: window state has negative count")
		}
		binned += c
	}
	if st.Early < 0 || st.Late < 0 || binned+st.Early+st.Late != st.Total {
		return fmt.Errorf("stream: window counts sum to %d but total is %d", binned+st.Early+st.Late, st.Total)
	}
	*w = WindowCounter{width: st.Width, counts: st.Counts, early: st.Early, late: st.Late, total: st.Total}
	return nil
}
