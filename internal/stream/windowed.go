package stream

import (
	"fmt"
	"math"
	"sort"
)

// Windowed accumulators: the always-on observatory's memory model.
//
// The base accumulators summarize a whole stream from t=0; a
// monitoring process instead needs "the recent past" — Paxson &
// Floyd's burstiness is a statement about every time scale, and Clegg
// et al. (PAPERS.md) show that averaging a non-stationary stream into
// one cumulative estimate silently launders regime changes into fake
// long-range dependence. Three windowed forms cover the observatory's
// needs:
//
//   - RollingCounter: a WindowCounter that retains only the last K
//     windows exactly (evicted windows collapse into exact totals), so
//     rate / dispersion / lag-1 / variance-time answer "now", in O(K)
//     memory over an unbounded stream.
//   - Tumbling: GK's windowed form. Observations fold into the current
//     time window's quantile summary, which is handed to an OnClose
//     hook and replaced when the window rolls — deletion is impossible
//     in a GK summary, restarting is exact.
//   - Decayed: exponentially time-decayed moments plus a decayed log₂
//     histogram (the tail sample behind the rolling Hill estimator).
//     Decay is quantized to window boundaries — the weight multiplier
//     is always 2^(-windows·width/halfLife) for an integer window step
//     — so the state is a pure function of the observation sequence,
//     never of arrival wall time.
//
// All three keep the base state contract (DESIGN.md §10, §14): State
// is a deterministic byte-exact capture, Restore(State()) into a
// sketch built with the same shape is an exact round-trip, and
// observe(a);State/Restore;observe(b) ≡ observe(a+b) byte-for-byte.
// Windows are indexed by *event time* through WindowIndex, not wall
// time, so a time-dilated replay produces the same windows — and
// therefore the same estimator and verdict sequence — at any dilation
// factor.

const (
	rollingKind  = "rollwin"
	tumblingKind = "tumbling"
	decayedKind  = "decayed"
)

// MaxWindow is the largest index WindowIndex yields. Restore rejects
// window positions outside [0, MaxWindow], so a corrupted state
// cannot overflow the window arithmetic.
const MaxWindow = math.MaxInt64 / 2

// WindowIndex maps an event time (seconds since stream start) to the
// index of its window of the given width, clamped to [0, MaxWindow]:
// negative and NaN times land in window 0, and a corrupted far-future
// timestamp cannot force an astronomic fast-forward.
func WindowIndex(t, width float64) int64 {
	w := t / width
	switch {
	case !(w > 0):
		return 0
	case w >= MaxWindow:
		return MaxWindow
	}
	return int64(w)
}

// checkWindow rejects a restored window position WindowIndex cannot
// produce.
func checkWindow(kind string, w int64) error {
	if w < 0 || w > MaxWindow {
		return fmt.Errorf("stream: %s state has window %d outside [0, %d]", kind, w, int64(MaxWindow))
	}
	return nil
}

// RollingCounter is the rolling extension of WindowCounter: it bins
// event times into fixed-width windows but retains only the most
// recent Keep windows exactly; older windows are evicted into exact
// scalar totals. Rate, Dispersion and Lag1 therefore answer over the
// retained horizon — "the last Keep·width seconds" — while Count and
// EvictedEvents stay exact over the whole stream.
type RollingCounter struct {
	width   float64
	keep    int
	base    int64   // index of the first retained window
	ring    []int64 // counts for windows [base, base+len(ring))
	started bool    // false until the first in-range observation/advance

	evictedWins   int64 // windows evicted so far
	evictedEvents int64 // events inside evicted windows
	stale         int64 // events older than the retained horizon on arrival
	early         int64 // events before t=0 (or NaN)
	total         int64
}

// NewRollingCounter returns an empty rolling counter retaining keep
// windows of the given width (width ≤ 0 selects 1 s, keep < 1 selects
// 64).
func NewRollingCounter(width float64, keep int) *RollingCounter {
	if !(width > 0) {
		width = 1
	}
	if keep < 1 {
		keep = 64
	}
	return &RollingCounter{width: width, keep: keep}
}

// Count returns the exact number of events observed, retained or not.
func (r *RollingCounter) Count() int64 { return r.total }

// Base returns the index of the oldest retained window.
func (r *RollingCounter) Base() int64 { return r.base }

// Retained returns the number of windows currently held.
func (r *RollingCounter) Retained() int { return len(r.ring) }

// EvictedEvents returns the events that have aged out of the ring.
func (r *RollingCounter) EvictedEvents() int64 { return r.evictedEvents }

// Stale returns the events that arrived already older than the
// retained horizon (counted, never binned).
func (r *RollingCounter) Stale() int64 { return r.stale }

// advance rolls the ring forward so window w is representable,
// evicting windows that fall off the back.
func (r *RollingCounter) advance(w int64) {
	if !r.started {
		// The ring starts at the first observed window, so a stream
		// beginning mid-day does not drag a day of empty windows.
		r.base = w
		r.started = true
	}
	top := r.base + int64(len(r.ring)) - 1
	if w <= top {
		return
	}
	// Grow up to capacity first, then slide.
	for w > top && len(r.ring) < r.keep {
		r.ring = append(r.ring, 0)
		top++
	}
	if w > top {
		shift := w - top
		if shift >= int64(len(r.ring)) {
			// Fast-forward past the whole ring: evict everything.
			for _, c := range r.ring {
				r.evictedEvents += c
			}
			r.evictedWins += shift
			for i := range r.ring {
				r.ring[i] = 0
			}
			r.base = w - int64(len(r.ring)) + 1
			return
		}
		for i := int64(0); i < shift; i++ {
			r.evictedEvents += r.ring[i]
		}
		copy(r.ring, r.ring[shift:])
		for i := int64(len(r.ring)) - shift; i < int64(len(r.ring)); i++ {
			r.ring[i] = 0
		}
		r.base += shift
		r.evictedWins += shift
	}
}

// ObserveAt folds one event at event time t; x is ignored (the
// statistic is the count process itself).
func (r *RollingCounter) ObserveAt(t, _ float64) {
	r.total++
	if t < 0 || math.IsNaN(t) {
		r.early++
		return
	}
	w := WindowIndex(t, r.width)
	if r.started && w < r.base {
		r.stale++
		return
	}
	r.advance(w)
	r.ring[w-r.base]++
}

// AdvanceTo rolls windows forward to contain time t without recording
// an event: windows strictly before t's window stay retained, older
// ones are evicted.
func (r *RollingCounter) AdvanceTo(t float64) {
	if t < 0 || math.IsNaN(t) {
		return
	}
	r.advance(WindowIndex(t, r.width))
}

// Counts returns the retained per-window counts as float64s, oldest
// first — the vector Dispersion/Lag1 and the variance-time slope
// consume.
func (r *RollingCounter) Counts() []float64 {
	out := make([]float64, len(r.ring))
	for i, c := range r.ring {
		out[i] = float64(c)
	}
	return out
}

// Rate returns the mean event rate per second over the retained
// windows.
func (r *RollingCounter) Rate() float64 {
	if len(r.ring) == 0 {
		return 0
	}
	var sum int64
	for _, c := range r.ring {
		sum += c
	}
	return float64(sum) / (float64(len(r.ring)) * r.width)
}

// Dispersion returns the index of dispersion (variance/mean) of the
// retained per-window counts — 1 for Poisson, larger under the
// paper's burstiness.
func (r *RollingCounter) Dispersion() float64 {
	return (&WindowCounter{width: r.width, counts: r.ring}).Dispersion()
}

// Lag1 returns the lag-1 autocorrelation of the retained counts.
func (r *RollingCounter) Lag1() float64 {
	return (&WindowCounter{width: r.width, counts: r.ring}).Lag1()
}

var rollingKeys = []string{"width", "keep", "started", "base", "ring",
	"evicted_windows", "evicted_events", "stale", "early", "total"}

func (r *RollingCounter) write(w *stateWriter) {
	w.envelope(rollingKind)
	w.num("width", r.width)
	w.int("keep", int64(r.keep))
	w.bool("started", r.started)
	w.int("base", r.base)
	w.ints("ring", r.ring)
	w.int("evicted_windows", r.evictedWins)
	w.int("evicted_events", r.evictedEvents)
	w.int("stale", r.stale)
	w.int("early", r.early)
	w.int("total", r.total)
	w.closeEnvelope()
}

// State serializes the counter deterministically as JSON.
func (r *RollingCounter) State() ([]byte, error) { return encode(r.write) }

// Restore replaces the counter's state from State output; the state
// must carry the receiver's width and keep.
func (r *RollingCounter) Restore(data []byte) error { return restoreInto(r, data, r.read) }

func (r *RollingCounter) read(sr *stateReader) *RollingCounter {
	var st RollingCounter
	sr.envelope(rollingKind, rollingKeys, func(key string) {
		switch key {
		case "width":
			st.width = sr.num()
		case "keep":
			st.keep = sr.intn()
		case "started":
			st.started = sr.bool()
		case "base":
			st.base = sr.int()
		case "ring":
			st.ring = sr.ints()
		case "evicted_windows":
			st.evictedWins = sr.int()
		case "evicted_events":
			st.evictedEvents = sr.int()
		case "stale":
			st.stale = sr.int()
		case "early":
			st.early = sr.int()
		case "total":
			st.total = sr.int()
		}
	})
	if sr.err != nil {
		return nil
	}
	if st.width != r.width || st.keep != r.keep {
		sr.failf("stream: rolling state shape %gx%d does not match the counter's %gx%d",
			st.width, st.keep, r.width, r.keep)
		return nil
	}
	if len(st.ring) > st.keep {
		sr.failf("stream: rolling state holds %d windows (keep %d)", len(st.ring), st.keep)
		return nil
	}
	if err := checkWindow(rollingKind, st.base); err != nil {
		sr.fail(err)
		return nil
	}
	var binned int64
	for _, c := range st.ring {
		if c < 0 {
			sr.failf("stream: rolling state has negative count")
			return nil
		}
		binned += c
	}
	if st.evictedEvents < 0 || st.stale < 0 || st.early < 0 ||
		binned+st.evictedEvents+st.stale+st.early != st.total {
		sr.failf("stream: rolling counts sum to %d but total is %d",
			binned+st.evictedEvents+st.stale+st.early, st.total)
		return nil
	}
	return &st
}

// Tumbling is GK's windowed form: observations fold into the quantile
// summary of the window their event time falls in; when time crosses
// a boundary, the closed window's summary is handed to OnClose
// (windows skipped entirely produce no call) and replaced with a
// fresh one.
type Tumbling struct {
	width  float64
	eps    float64 // rank-error bound of each window's summary
	cur    int64   // current window index
	open   bool    // false until the first in-range observation
	inner  *GK
	closed int64 // windows closed so far (only ones that saw data or a roll)
	late   int64 // observations older than the open window (folded anyway)
	total  int64

	// OnClose, when set, receives each closed window's summary before
	// it is replaced. The callee may keep the value; it is never
	// touched again. Not serialized.
	OnClose func(window int64, g *GK)
}

// NewTumbling returns a tumbling GK summary with the given window
// width in seconds (≤ 0 selects 1 s) and per-window rank error eps
// (as NewGK).
func NewTumbling(width, eps float64) *Tumbling {
	if !(width > 0) {
		width = 1
	}
	return &Tumbling{width: width, eps: eps, inner: NewGK(eps)}
}

// Count returns the observations ever folded in, across all windows.
func (u *Tumbling) Count() int64 { return u.total }

// Closed returns the number of windows closed so far.
func (u *Tumbling) Closed() int64 { return u.closed }

// Inner returns the open window's summary (live — callers must not
// mutate it).
func (u *Tumbling) Inner() *GK { return u.inner }

// Late returns the observations that arrived for an already-closed
// window; they fold into the open window with this accounting.
func (u *Tumbling) Late() int64 { return u.late }

// closeOpen hands the open window's summary to OnClose and starts a
// fresh one.
func (u *Tumbling) closeOpen() {
	if u.OnClose != nil {
		u.OnClose(u.cur, u.inner)
	}
	u.inner = NewGK(u.eps)
	u.closed++
}

// roll closes windows up to (but not including) w.
func (u *Tumbling) roll(w int64) {
	if !u.open {
		u.cur = w
		u.open = true
		return
	}
	if w <= u.cur {
		return
	}
	u.closeOpen()
	u.cur = w
}

// ObserveAt folds value x at event time t.
func (u *Tumbling) ObserveAt(t, x float64) {
	u.total++
	w := WindowIndex(t, u.width)
	if u.open && w < u.cur {
		u.late++
	} else {
		u.roll(w)
	}
	u.inner.Observe(x)
}

// AdvanceTo closes the open window when t has moved past it.
func (u *Tumbling) AdvanceTo(t float64) {
	if w := WindowIndex(t, u.width); u.open && w > u.cur {
		u.roll(w)
	}
}

// Flush closes the open window unconditionally (stream end). The next
// observation reopens at its own window.
func (u *Tumbling) Flush() {
	if !u.open {
		return
	}
	u.closeOpen()
	u.open = false
}

var tumblingKeys = []string{"width", "window", "open", "closed", "late", "total", "inner"}

// write appends the state; the inner summary's state rides along
// whole, its envelope carrying its kind.
func (u *Tumbling) write(w *stateWriter) {
	w.envelope(tumblingKind)
	w.num("width", u.width)
	w.int("window", u.cur)
	w.bool("open", u.open)
	w.int("closed", u.closed)
	w.int("late", u.late)
	w.int("total", u.total)
	w.key("inner")
	u.inner.write(w)
	w.closeEnvelope()
}

// State serializes the summary deterministically as JSON.
func (u *Tumbling) State() ([]byte, error) { return encode(u.write) }

// Restore replaces the summary's state from State output; the state
// must carry the receiver's width.
func (u *Tumbling) Restore(data []byte) error { return restoreInto(u, data, u.read) }

func (u *Tumbling) read(r *stateReader) *Tumbling {
	var st Tumbling
	r.envelope(tumblingKind, tumblingKeys, func(key string) {
		switch key {
		case "width":
			st.width = r.num()
		case "window":
			st.cur = r.int()
		case "open":
			st.open = r.bool()
		case "closed":
			st.closed = r.int()
		case "late":
			st.late = r.int()
		case "total":
			st.total = r.int()
		case "inner":
			if st.inner = readGK(r); r.err != nil {
				r.wrap("stream: tumbling inner")
			}
		}
	})
	if r.err != nil {
		return nil
	}
	if st.width != u.width {
		r.failf("stream: tumbling state width %g does not match the summary's %g", st.width, u.width)
		return nil
	}
	if err := checkWindow(tumblingKind, st.cur); err != nil {
		r.fail(err)
		return nil
	}
	if st.closed < 0 || st.late < 0 || st.total < 0 {
		r.failf("stream: tumbling state has negative counters")
		return nil
	}
	if st.inner == nil {
		r.failf("stream: tumbling inner: %s state lacks its inner summary", tumblingKind)
		return nil
	}
	st.eps, st.OnClose = u.eps, u.OnClose
	return &st
}

// Decayed tracks exponentially time-decayed weighted moments and a
// decayed log₂ histogram: an observation's weight is 1 at its own
// window and halves every halfLife seconds of subsequent stream time.
// Decay is quantized to window boundaries — on a roll of k windows
// every retained weight is multiplied by 2^(-k·width/halfLife) — so
// the state depends only on the observation sequence (the wall clock
// never enters), which keeps replays at any dilation byte-identical.
//
// The decayed histogram doubles as the observatory's tail sample: the
// binned Hill estimator (internal/observe) reads the decayed bucket
// weights directly, so the tail index answers over the same
// exponentially-weighted recent past as the moments.
type Decayed struct {
	width    float64
	halfLife float64
	cur      int64
	open     bool

	weight float64 // decayed observation count
	mean   float64 // decayed weighted mean
	m2     float64 // decayed weighted sum of squared deviations

	buckets map[int]float64 // decayed log₂ bucket weights (positive x)
	nonPos  float64         // decayed weight of x ≤ 0 / NaN
	total   int64           // exact raw count
	late    int64
}

// decayedFloor drops bucket weights below this after decay, bounding
// the map at the buckets that still carry measurable mass. The
// threshold is a pure function of the observation sequence, so
// dropping preserves determinism.
const decayedFloor = 1e-9

// NewDecayed returns an empty decayed accumulator with the given
// window width and half-life in seconds (width ≤ 0 selects 1 s,
// halfLife ≤ 0 selects 60 s).
func NewDecayed(width, halfLife float64) *Decayed {
	if !(width > 0) {
		width = 1
	}
	if !(halfLife > 0) {
		halfLife = 60
	}
	return &Decayed{width: width, halfLife: halfLife, buckets: make(map[int]float64)}
}

// Count returns the exact raw observation count (undecayed).
func (d *Decayed) Count() int64 { return d.total }

// Weight returns the decayed observation count — the effective sample
// size of the recent past.
func (d *Decayed) Weight() float64 { return d.weight + d.nonPos }

// Mean returns the decayed weighted mean (0 when empty).
func (d *Decayed) Mean() float64 {
	if d.weight+d.nonPos <= 0 {
		return 0
	}
	return d.mean
}

// decayBy applies k window steps of decay to every retained weight.
func (d *Decayed) decayBy(k int64) {
	if k <= 0 {
		return
	}
	g := math.Exp2(-float64(k) * d.width / d.halfLife)
	d.weight *= g
	d.nonPos *= g
	d.m2 *= g
	for e, w := range d.buckets {
		w *= g
		if w < decayedFloor {
			delete(d.buckets, e)
			continue
		}
		d.buckets[e] = w
	}
}

// roll advances the decay window to w.
func (d *Decayed) roll(w int64) {
	if !d.open {
		d.cur, d.open = w, true
		return
	}
	if w > d.cur {
		d.decayBy(w - d.cur)
		d.cur = w
	}
}

// ObserveAt folds value x at event time t: weighted Welford with unit
// weight for the incoming observation.
func (d *Decayed) ObserveAt(t, x float64) {
	d.total++
	w := WindowIndex(t, d.width)
	if d.open && w < d.cur {
		d.late++
	} else {
		d.roll(w)
	}
	if x > 0 && !math.IsInf(x, 1) && !math.IsNaN(x) {
		d.buckets[Exponent(x)]++
		d.weight++
	} else {
		d.nonPos++
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return // the weight above still counts; moments stay finite
	}
	total := d.weight + d.nonPos
	delta := x - d.mean
	d.mean += delta / total
	d.m2 += delta * (x - d.mean)
}

// AdvanceTo decays forward to t's window without recording an
// observation.
func (d *Decayed) AdvanceTo(t float64) {
	if w := WindowIndex(t, d.width); d.open && w > d.cur {
		d.roll(w)
	}
}

// Buckets returns the decayed log₂ buckets in ascending exponent
// order (weights, not counts).
func (d *Decayed) Buckets() []DecayedBucket {
	out := make([]DecayedBucket, 0, len(d.buckets))
	for e, w := range d.buckets {
		out = append(out, DecayedBucket{Exp: e, Weight: w})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Exp < out[j].Exp })
	return out
}

// DecayedBucket is one decayed histogram bucket [2^exp, 2^(exp+1)).
type DecayedBucket struct {
	Exp    int     `json:"exp"`
	Weight float64 `json:"w"`
}

var (
	decayedKeys       = []string{"width", "half_life", "window", "open", "weight", "mean", "m2", "non_positive", "total", "late", "buckets"}
	decayedBucketKeys = []string{"exp", "w"}
)

// write appends the state. The float aggregates may be non-finite
// after corrupted-trace infinities; buckets are sorted so equal states
// are byte-identical.
func (d *Decayed) write(w *stateWriter) {
	w.envelope(decayedKind)
	w.num("width", d.width)
	w.num("half_life", d.halfLife)
	w.int("window", d.cur)
	w.bool("open", d.open)
	w.f64("weight", d.weight)
	w.f64("mean", d.mean)
	w.f64("m2", d.m2)
	w.f64("non_positive", d.nonPos)
	w.int("total", d.total)
	w.int("late", d.late)
	w.key("buckets")
	w.open('[')
	for _, b := range d.Buckets() {
		w.open('{')
		w.int("exp", int64(b.Exp))
		w.f64("w", b.Weight)
		w.close('}')
	}
	w.close(']')
	w.closeEnvelope()
}

// State serializes the accumulator deterministically as JSON.
func (d *Decayed) State() ([]byte, error) { return encode(d.write) }

// Restore replaces the accumulator's state from State output; the
// state must carry the receiver's width and half-life.
func (d *Decayed) Restore(data []byte) error { return restoreInto(d, data, d.read) }

func (d *Decayed) read(r *stateReader) *Decayed {
	st := Decayed{buckets: make(map[int]float64)}
	r.envelope(decayedKind, decayedKeys, func(key string) {
		switch key {
		case "width":
			st.width = r.num()
		case "half_life":
			st.halfLife = r.num()
		case "window":
			st.cur = r.int()
		case "open":
			st.open = r.bool()
		case "weight":
			st.weight = r.f64()
		case "mean":
			st.mean = r.f64()
		case "m2":
			st.m2 = r.f64()
		case "non_positive":
			st.nonPos = r.f64()
		case "total":
			st.total = r.int()
		case "late":
			st.late = r.int()
		case "buckets":
			r.array(func() {
				var b DecayedBucket
				r.object(decayedBucketKeys, func(key string) {
					if key == "exp" {
						b.Exp = r.intn()
					} else {
						b.Weight = r.f64()
					}
				})
				if r.err == nil && b.Weight < 0 {
					r.failf("stream: decayed bucket %d has negative weight", b.Exp)
				}
				st.buckets[b.Exp] += b.Weight
			})
		}
	})
	if r.err != nil {
		return nil
	}
	if st.width != d.width || st.halfLife != d.halfLife {
		r.failf("stream: decayed state shape %g/%g does not match the accumulator's %g/%g",
			st.width, st.halfLife, d.width, d.halfLife)
		return nil
	}
	if err := checkWindow(decayedKind, st.cur); err != nil {
		r.fail(err)
		return nil
	}
	if st.total < 0 || st.late < 0 || st.weight < 0 || st.nonPos < 0 {
		r.failf("stream: decayed state has negative mass")
		return nil
	}
	return &st
}
