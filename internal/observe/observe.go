package observe

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"

	"wantraffic/internal/obs"
	"wantraffic/internal/stats"
	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

// Observatory consumes a live record stream (connections or packets)
// and, at every estimator-window close, recomputes the rolling
// statistics the paper says distinguish real wide-area traffic from
// Poisson — rate, index of dispersion, lag-1 autocorrelation,
// variance-time Hurst slope, Hill tail index, per-protocol rates —
// renders them into a verdict ("poisson" / "bursty" / "warming"), and
// runs Page–Hinkley detectors over the estimator series to flag
// regime changes as classified change-point events.
//
// Every output path — the synchronous OnEvent callback, the obs.Bus,
// the metrics gauges, the structured log — carries values computed
// purely from the record sequence. The wall clock never enters, so a
// dilated replay is byte-identical to a full-speed one.
//
// Observatory is not goroutine-safe: it sits behind a single ingest
// loop (the replayer or a future wanload socket reader), matching the
// per-shard accumulator contract in internal/stream.
type Observatory struct {
	opt     Options
	baseBin float64 // fine bin width = Window / binsPerWindow

	cur     int64 // current estimator window index
	started bool

	arrivals *stream.RollingCounter // Window-sized counts: rate/dispersion/lag1
	bins     *stream.RollingCounter // fine-grained counts: variance-time slope
	sizes    *stream.Decayed        // decayed size moments + log₂ tail sample
	quant    *stream.Tumbling       // per-window GK quantiles of sizes

	records    int64 // records ever observed
	winRecords int64 // records in the open window
	skipped    int64 // windows fast-forwarded past without an estimate
	closed     int64 // windows closed (estimates emitted)
	changes    int64 // change-point events emitted

	protoWin   [nproto]int64 // records per protocol, open window
	protoTotal [nproto]int64

	lastP50, lastP95 float64 // captured by the tumbling OnClose

	detRate *PageHinkley
	detDisp *PageHinkley
	detTail *PageHinkley

	closeWM *obs.Watermark // window_close stamp, resolved once in New

	lastEst Estimate
}

// nproto covers every trace.Protocol value (Other..WWW).
const nproto = 9

// binsPerWindow subdivides each estimator window for the
// variance-time curve: the Hurst slope needs counts at time scales
// *below* the estimator window to see short-range structure.
const binsPerWindow = 8

// Estimator constants (DESIGN.md §14).
const (
	// tailFrac is the fraction of decayed mass the Hill estimator
	// treats as the tail.
	tailFrac = 0.1
	// quantEps is the GK rank error of the per-window p50/p95.
	quantEps = stream.DefaultEpsilon
	// phDelta and phLambda are the Page–Hinkley drift and threshold as
	// fractions of each signal's calibrated scale, sized so Poisson
	// counting noise at moderate rates stays under the drift allowance
	// while a 2x step alarms within a few windows.
	phDelta, phLambda = 0.1, 3.0
	// phCooldown is the quiet period in windows after a change-point
	// before the (re-warming) detector may fire again.
	phCooldown = 4
)

// Options configures an Observatory. The zero value selects the
// defaults noted on each field.
type Options struct {
	// Window is the estimator window in seconds (default 5): every
	// Window of event time the estimators update and a verdict is
	// emitted.
	Window float64
	// KeepWindows is the rolling horizon in windows for rate,
	// dispersion and lag-1 (default 60 — five minutes at the default
	// Window).
	KeepWindows int
	// HalfLife is the exponential-decay half-life in seconds for the
	// size moments and the Hill tail sample (default 10·Window).
	HalfLife float64
	// Warmup is the number of closed windows before verdicts leave
	// "warming" and detectors calibrate (default 8, minimum 2).
	Warmup int

	// OnEvent, when set, receives every verdict and change-point
	// event synchronously in emission order — the deterministic
	// capture path (golden experiment, -follow stdout lines).
	OnEvent func(Event)
	// Bus, when set, receives the same events as non-blocking
	// StreamEvents (SSE /events). A nil bus no-ops.
	Bus *obs.Bus
	// Metrics, when set, carries the observe.* gauges the monitor
	// server exports. A nil registry no-ops.
	Metrics *obs.Registry
	// Marks, when set, stamps the window_close watermark with each
	// sealed window's end time, so freshness lag covers the estimator
	// stage too. A nil set no-ops.
	Marks *obs.Watermarks
	// Logger, when set, logs one structured record per event; the
	// Context's span stamps trace/span IDs.
	Logger  *slog.Logger
	Context context.Context
}

func (o Options) withDefaults() Options {
	if !(o.Window > 0) {
		o.Window = 5
	}
	if o.KeepWindows < 2 {
		o.KeepWindows = 60
	}
	if !(o.HalfLife > 0) {
		o.HalfLife = 10 * o.Window
	}
	if o.Warmup < 2 {
		o.Warmup = 8
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	return o
}

// Estimate is one window close's rolling statistics. Zero stands for
// "unavailable" on Hurst, TailAlpha, P50 and P95; every field is
// finite, so the JSON encoding is exact.
type Estimate struct {
	Window     int64              `json:"window"`      // closed window index
	TEnd       float64            `json:"t_end"`       // window end, seconds of event time
	Records    int64              `json:"records"`     // records inside the closed window
	Total      int64              `json:"total"`       // records since start
	Rate       float64            `json:"rate"`        // events/s over the rolling horizon
	Dispersion float64            `json:"dispersion"`  // var/mean of per-window counts (1 = Poisson)
	Lag1       float64            `json:"lag1"`        // lag-1 autocorrelation of counts
	Hurst      float64            `json:"hurst"`       // variance-time Hurst proxy (0.5 = Poisson)
	TailAlpha  float64            `json:"tail_alpha"`  // Hill tail index over the decayed sample
	TailWeight float64            `json:"tail_weight"` // decayed mass behind TailAlpha
	P50        float64            `json:"p50"`         // window median size
	P95        float64            `json:"p95"`         // window p95 size
	MeanSize   float64            `json:"mean_size"`   // decayed mean size
	Weight     float64            `json:"weight"`      // decayed sample weight
	ProtoRate  map[string]float64 `json:"proto_rate,omitempty"`
	Verdict    string             `json:"verdict"`
}

// Event is one observatory emission: a per-window verdict, or a
// change-point alarm. JSON field order is fixed and all floats are
// finite, so equal event sequences are byte-identical.
type Event struct {
	Kind   string  `json:"kind"` // obs.EventVerdict or obs.EventChangePoint
	Window int64   `json:"window"`
	TEnd   float64 `json:"t_end"`
	// Name is the verdict ("warming"/"poisson"/"bursty") or the
	// change-point class ("rate-step"/"dispersion-shift"/"tail-shift").
	Name string `json:"name"`
	// Change-point fields (empty/zero on verdicts).
	Signal    string  `json:"signal,omitempty"` // rate | dispersion | tail_alpha
	Direction string  `json:"direction,omitempty"`
	Value     float64 `json:"value,omitempty"`
	Baseline  float64 `json:"baseline,omitempty"`
	Score     float64 `json:"score,omitempty"`
	// Estimate rides along on verdict events.
	Estimate *Estimate `json:"estimate,omitempty"`
}

// New returns an Observatory with the given options.
func New(opt Options) *Observatory {
	opt = opt.withDefaults()
	o := &Observatory{
		opt:      opt,
		baseBin:  opt.Window / binsPerWindow,
		arrivals: stream.NewRollingCounter(opt.Window, opt.KeepWindows),
		bins:     stream.NewRollingCounter(opt.Window/binsPerWindow, opt.KeepWindows*binsPerWindow),
		sizes:    stream.NewDecayed(opt.Window, opt.HalfLife),
		quant:    stream.NewTumbling(opt.Window, quantEps),
		detRate:  NewPageHinkley(phDelta, phLambda, opt.Warmup, phCooldown),
		detDisp:  NewPageHinkley(phDelta, phLambda, opt.Warmup, phCooldown),
		detTail:  NewPageHinkley(phDelta, phLambda, opt.Warmup, phCooldown),
		closeWM:  opt.Marks.Stage(obs.StageWindowClose),
	}
	o.quant.OnClose = func(_ int64, g *stream.GK) {
		o.lastP50, o.lastP95 = 0, 0
		if g.Count() > 0 {
			o.lastP50 = finite(g.Quantile(0.50))
			o.lastP95 = finite(g.Quantile(0.95))
		}
	}
	return o
}

// Options returns the effective (defaulted) options.
func (o *Observatory) Options() Options { return o.opt }

// Records returns the total records observed.
func (o *Observatory) Records() int64 { return o.records }

// Windows returns the number of estimator windows closed.
func (o *Observatory) Windows() int64 { return o.closed }

// ChangePoints returns the number of change-point events emitted.
func (o *Observatory) ChangePoints() int64 { return o.changes }

// Last returns the most recent estimate (zero before the first
// window close).
func (o *Observatory) Last() Estimate { return o.lastEst }

// ObserveConn folds one connection record: its start time drives the
// windows, its total byte volume feeds the size estimators.
func (o *Observatory) ObserveConn(c trace.Conn) {
	o.observe(c.Start, float64(c.BytesOrig+c.BytesResp), c.Proto)
}

// ObservePacket folds one packet record.
func (o *Observatory) ObservePacket(p trace.Packet) {
	o.observe(p.Time, float64(p.Size), p.Proto)
}

func (o *Observatory) observe(t, x float64, p trace.Protocol) {
	if t < 0 || math.IsNaN(t) {
		t = 0
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		x = 0
	}
	w := stream.WindowIndex(t, o.opt.Window)
	if !o.started {
		o.cur, o.started = w, true
	} else if w > o.cur {
		o.closeThrough(w)
	}
	o.records++
	o.winRecords++
	pi := int(p)
	if pi >= nproto {
		pi = 0
	}
	o.protoWin[pi]++
	o.protoTotal[pi]++
	o.arrivals.ObserveAt(t, 0)
	o.bins.ObserveAt(t, 0)
	o.sizes.ObserveAt(t, x)
	o.quant.ObserveAt(t, x)
}

// Flush closes the currently open (partial) window so a finite trace
// ends with a final estimate. The next observation opens a fresh
// window.
func (o *Observatory) Flush() {
	if !o.started {
		return
	}
	o.closeThrough(o.cur + 1)
}

// closeThrough closes every window in [cur, w) in order. A
// fast-forward farther than the rolling horizon (a trace gap, a
// corrupted timestamp) skips the intermediate estimates — they would
// all read an all-zero horizon anyway — and emits only the last one,
// with the skip accounted.
func (o *Observatory) closeThrough(w int64) {
	if gap := w - o.cur; gap > int64(o.opt.KeepWindows) {
		skip := gap - 1
		o.skipped += skip
		o.cur = w - 1
		o.winRecords = 0
		o.protoWin = [nproto]int64{}
	}
	for o.cur < w {
		o.closeWindow(o.cur)
		o.cur++
		o.winRecords = 0
		o.protoWin = [nproto]int64{}
	}
}

// closeWindow advances every windowed sketch to the end of window wc,
// recomputes the estimators, emits the verdict event and feeds the
// detectors.
func (o *Observatory) closeWindow(wc int64) {
	wd := o.opt.Window
	mid := (float64(wc) + 0.5) * wd
	o.arrivals.AdvanceTo(mid)
	o.bins.AdvanceTo(float64(wc+1)*wd - 0.5*o.baseBin)
	o.sizes.AdvanceTo(mid)
	o.quant.AdvanceTo((float64(wc) + 1.5) * wd) // closes wc → OnClose captures p50/p95

	est := o.estimate(wc)
	o.closed++
	o.lastEst = est
	o.closeWM.Stamp(est.TEnd)
	o.emit(Event{
		Kind: obs.EventVerdict, Window: wc, TEnd: est.TEnd,
		Name: est.Verdict, Estimate: &est,
	})
	o.detect(est)
}

func (o *Observatory) estimate(wc int64) Estimate {
	est := Estimate{
		Window:     wc,
		TEnd:       float64(wc+1) * o.opt.Window,
		Records:    o.winRecords,
		Total:      o.records,
		Rate:       finite(o.arrivals.Rate()),
		Dispersion: finite(o.arrivals.Dispersion()),
		Lag1:       finite(o.arrivals.Lag1()),
		P50:        o.lastP50,
		P95:        o.lastP95,
		MeanSize:   finite(o.sizes.Mean()),
		Weight:     finite(o.sizes.Weight()),
	}
	est.TailAlpha, est.TailWeight = HillBinned(o.sizes.Buckets(), tailFrac)
	est.TailAlpha, est.TailWeight = finite(est.TailAlpha), finite(est.TailWeight)
	est.Hurst = o.hurst()
	for pi, n := range o.protoWin {
		if n == 0 {
			continue
		}
		if est.ProtoRate == nil {
			est.ProtoRate = make(map[string]float64, 4)
		}
		est.ProtoRate[trace.Protocol(pi).String()] = float64(n) / o.opt.Window
	}
	est.Verdict = o.verdict(est)
	return est
}

// hurst fits the variance-time slope over the fine-bin counts and
// maps it to H = 1 + slope/2 (slope −1 ⇒ H = 0.5 ⇒ Poisson;
// DESIGN.md §9). It returns 0 until the retained horizon carries
// enough occupied bins to aggregate meaningfully.
func (o *Observatory) hurst() float64 {
	counts := o.bins.Counts()
	if len(counts) < 4*binsPerWindow {
		return 0
	}
	var nonzero int
	for _, c := range counts {
		if c > 0 {
			nonzero++
		}
	}
	if nonzero < 2*binsPerWindow {
		return 0
	}
	maxM := len(counts) / 4
	pts := stats.VarianceTime(counts, maxM, 5)
	slope := stats.VTSlope(pts, 2, maxM)
	h := 1 + slope/2
	if math.IsNaN(h) || math.IsInf(h, 0) {
		return 0
	}
	// Clamp to the meaningful range: estimation noise outside (0, 1.5)
	// carries no signal the verdict could use.
	return math.Min(math.Max(h, 0.01), 1.5)
}

// verdict classifies the window. "warming" until Warmup windows have
// closed AND the rolling horizon has filled once — dispersion and
// lag-1 over a partially-filled ring are biased low, and classifying
// off them would brand steady Poisson traffic bursty during start-up.
// Then "poisson" only when every available estimator agrees with a
// homogeneous Poisson process — dispersion near 1 (the variance of a
// Poisson count equals its mean), negligible lag-1 correlation, and a
// Hurst proxy near 0.5 — else "bursty", the paper's verdict for every
// wide-area trace it examined.
func (o *Observatory) verdict(est Estimate) string {
	warm := int64(o.opt.Warmup)
	if kw := int64(o.opt.KeepWindows); kw > warm {
		warm = kw
	}
	if o.closed+1 <= warm {
		return "warming"
	}
	// Tolerances scale with the estimators' own sampling noise over a
	// k-window horizon: for iid Poisson counts the dispersion estimate
	// has sd ≈ √(2/(k−1)) and lag-1 has sd ≈ 1/√k, so each band is the
	// larger of a fixed floor and ~2σ — "bursty" means the deviation
	// is significant at this horizon, not that the estimator is noisy.
	k := float64(o.opt.KeepWindows)
	dispTol := math.Max(0.33, 2*math.Sqrt(2/(k-1)))
	lagTol := math.Max(0.2, 2/math.Sqrt(k))
	hurstTol := math.Max(0.15, 1.2/math.Sqrt(k))
	poisson := math.Abs(est.Dispersion-1) <= dispTol &&
		math.Abs(est.Lag1) <= lagTol
	if est.Hurst > 0 && math.Abs(est.Hurst-0.5) > hurstTol {
		poisson = false
	}
	if poisson {
		return "poisson"
	}
	return "bursty"
}

// detect feeds the estimator series into the per-signal detectors and
// emits a classified change-point event per alarm.
//
// Page–Hinkley assumes roughly independent samples, so each signal is
// fed at its own decorrelation scale: the rate detector sees the
// *per-window* rate (window counts are independent under any renewal
// arrival process), while the dispersion and tail detectors — whose
// estimators are smoothed over the rolling horizon / decay half-life
// and therefore strongly autocorrelated window to window — are
// subsampled at a stride of a fraction of their smoothing length.
// Feeding a rolling estimate every window would let ordinary
// estimator noise, persisting across the shared horizon, accumulate
// into false alarms. Nothing samples the wall clock: strides key off
// the closed-window count, so the schedule is deterministic.
func (o *Observatory) detect(est Estimate) {
	if o.closed <= int64(o.opt.Warmup) {
		// The first windows read a degenerate horizon (dispersion of
		// one count is 0); keep the detectors out of them entirely.
		return
	}
	type probe struct {
		det    *PageHinkley
		signal string
		class  string
		value  float64
		ok     bool
	}
	winRate := float64(est.Records) / o.opt.Window
	probes := []probe{
		{o.detRate, "rate", "rate-step", winRate, true},
		{o.detDisp, "dispersion", "dispersion-shift", est.Dispersion,
			o.closed%int64(o.dispStride()) == 0},
		// The tail detector additionally waits out the decayed
		// sample's fill transient: until a few half-lives have
		// passed, the effective sample size — and with it Hill's
		// implicit threshold — is still growing, which reads as a
		// sustained α̂ ramp no drift allowance should have to absorb.
		{o.detTail, "tail_alpha", "tail-shift", est.TailAlpha,
			est.TailAlpha > 0 && o.closed > o.tailGate() &&
				o.closed%int64(o.tailStride()) == 0},
	}
	for _, pr := range probes {
		if !pr.ok {
			continue
		}
		sh, fired := pr.det.Update(pr.value)
		if !fired {
			continue
		}
		o.changes++
		o.emit(Event{
			Kind: obs.EventChangePoint, Window: est.Window, TEnd: est.TEnd,
			Name: pr.class, Signal: pr.signal, Direction: sh.Direction,
			Value: sh.Value, Baseline: sh.Baseline, Score: sh.Score,
		})
	}
}

// dispStride is the dispersion detector's subsampling interval: a
// quarter of the rolling horizon, so consecutive samples share only
// ~75% of their windows.
func (o *Observatory) dispStride() int {
	if s := o.opt.KeepWindows / 4; s > 1 {
		return s
	}
	return 1
}

// tailStride subsamples the tail index at half the decay half-life
// (in windows), the scale over which consecutive Hill estimates
// decorrelate.
func (o *Observatory) tailStride() int {
	if s := int(o.opt.HalfLife / o.opt.Window / 2); s > 2 {
		return s
	}
	return 2
}

// tailGate is the closed-window count before the tail detector takes
// its first sample: warmup plus four half-lives, by which point the
// decayed sample's effective size has reached ~94% of saturation.
func (o *Observatory) tailGate() int64 {
	return int64(o.opt.Warmup) + 4*int64(o.opt.HalfLife/o.opt.Window)
}

// emit delivers one event to every configured output path.
func (o *Observatory) emit(ev Event) {
	if o.opt.OnEvent != nil {
		o.opt.OnEvent(ev)
	}
	if o.opt.Bus != nil {
		o.opt.Bus.Publish(ev.Kind, ev.Name, ev.busAttrs())
	}
	o.gauges(ev)
	o.log(ev)
}

// busAttrs renders the event for the SSE bus: string attrs, floats at
// six significant digits (display precision; the exact values live on
// the OnEvent path).
func (ev Event) busAttrs() map[string]string {
	a := map[string]string{
		"window": fmt.Sprintf("%d", ev.Window),
		"t_end":  fmt.Sprintf("%.6g", ev.TEnd),
	}
	if ev.Kind == obs.EventChangePoint {
		a["signal"] = ev.Signal
		a["direction"] = ev.Direction
		a["value"] = fmt.Sprintf("%.6g", ev.Value)
		a["baseline"] = fmt.Sprintf("%.6g", ev.Baseline)
		a["score"] = fmt.Sprintf("%.6g", ev.Score)
		return a
	}
	if est := ev.Estimate; est != nil {
		a["records"] = fmt.Sprintf("%d", est.Records)
		a["rate"] = fmt.Sprintf("%.6g", est.Rate)
		a["dispersion"] = fmt.Sprintf("%.6g", est.Dispersion)
		a["lag1"] = fmt.Sprintf("%.6g", est.Lag1)
		a["hurst"] = fmt.Sprintf("%.6g", est.Hurst)
		a["tail_alpha"] = fmt.Sprintf("%.6g", est.TailAlpha)
		a["p95"] = fmt.Sprintf("%.6g", est.P95)
	}
	return a
}

// verdictCode maps verdicts onto the observe.verdict gauge:
// 0 warming, 1 poisson, 2 bursty.
func verdictCode(v string) float64 {
	switch v {
	case "poisson":
		return 1
	case "bursty":
		return 2
	}
	return 0
}

func (o *Observatory) gauges(ev Event) {
	m := o.opt.Metrics
	if m == nil {
		return
	}
	if ev.Kind == obs.EventChangePoint {
		m.Counter("observe.changepoints").Inc()
		return
	}
	est := ev.Estimate
	if est == nil {
		return
	}
	m.Gauge("observe.windows").Set(float64(o.closed))
	m.Gauge("observe.rate").Set(est.Rate)
	m.Gauge("observe.dispersion").Set(est.Dispersion)
	m.Gauge("observe.lag1").Set(est.Lag1)
	m.Gauge("observe.hurst_vt").Set(est.Hurst)
	m.Gauge("observe.tail_alpha").Set(est.TailAlpha)
	m.Gauge("observe.p95").Set(est.P95)
	m.Gauge("observe.verdict").Set(verdictCode(est.Verdict))
	for name, rate := range est.ProtoRate {
		m.Gauge("observe.rate.proto." + name).Set(rate)
	}
}

func (o *Observatory) log(ev Event) {
	lg := o.opt.Logger
	if lg == nil {
		return
	}
	if ev.Kind == obs.EventChangePoint {
		lg.LogAttrs(o.opt.Context, slog.LevelWarn, "changepoint",
			slog.String("class", ev.Name),
			slog.String("signal", ev.Signal),
			slog.String("direction", ev.Direction),
			slog.Int64("window", ev.Window),
			slog.Float64("value", ev.Value),
			slog.Float64("baseline", ev.Baseline),
		)
		return
	}
	est := ev.Estimate
	if est == nil {
		return
	}
	lg.LogAttrs(o.opt.Context, slog.LevelInfo, "verdict",
		slog.String("verdict", est.Verdict),
		slog.Int64("window", ev.Window),
		slog.Float64("rate", est.Rate),
		slog.Float64("dispersion", est.Dispersion),
		slog.Float64("hurst", est.Hurst),
		slog.Float64("tail_alpha", est.TailAlpha),
	)
}

// finite maps NaN/±Inf to 0, the Estimate's "unavailable" marker.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// obsState is the observatory's serialized form (DESIGN.md §14): the
// windowed sketch states ride along whole, detector states inline.
type obsState struct {
	V          int             `json:"v"`
	Window     float64         `json:"window"`
	Cur        int64           `json:"cur"`
	Started    bool            `json:"started"`
	Closed     int64           `json:"closed"`
	Records    int64           `json:"records"`
	WinRecords int64           `json:"win_records"`
	Skipped    int64           `json:"skipped"`
	Changes    int64           `json:"changes"`
	ProtoWin   [nproto]int64   `json:"proto_win"`
	ProtoTotal [nproto]int64   `json:"proto_total"`
	LastP50    float64         `json:"last_p50"`
	LastP95    float64         `json:"last_p95"`
	Arrivals   json.RawMessage `json:"arrivals"`
	Bins       json.RawMessage `json:"bins"`
	Sizes      json.RawMessage `json:"sizes"`
	Quant      json.RawMessage `json:"quant"`
	DetRate    PHState         `json:"det_rate"`
	DetDisp    PHState         `json:"det_disp"`
	DetTail    PHState         `json:"det_tail"`
	LastEst    Estimate        `json:"last_est"`
}

// State serializes the observatory deterministically. Restoring into
// a fresh Observatory built with the same Options and continuing the
// stream reproduces the uninterrupted run's event sequence exactly.
func (o *Observatory) State() ([]byte, error) {
	st := obsState{
		V: 1, Window: o.opt.Window, Cur: o.cur, Started: o.started,
		Closed: o.closed, Records: o.records, WinRecords: o.winRecords,
		Skipped: o.skipped, Changes: o.changes,
		ProtoWin: o.protoWin, ProtoTotal: o.protoTotal,
		LastP50: o.lastP50, LastP95: o.lastP95,
		DetRate: o.detRate.State(), DetDisp: o.detDisp.State(), DetTail: o.detTail.State(),
		LastEst: o.lastEst,
	}
	var err error
	if st.Arrivals, err = o.arrivals.State(); err != nil {
		return nil, err
	}
	if st.Bins, err = o.bins.State(); err != nil {
		return nil, err
	}
	if st.Sizes, err = o.sizes.State(); err != nil {
		return nil, err
	}
	if st.Quant, err = o.quant.State(); err != nil {
		return nil, err
	}
	return json.Marshal(st)
}

// Restore replaces the observatory's analytical state from State
// output. The receiver must have been built with the same Options the
// serialized observatory ran under — the nested sketch states must
// carry its window, horizon and half-life — and output wiring
// (OnEvent, Bus, Metrics, Logger) is the receiver's own. A rejected
// state may leave the receiver partially restored.
func (o *Observatory) Restore(data []byte) error {
	var st obsState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("observe: decoding state: %w", err)
	}
	if st.V != 1 {
		return fmt.Errorf("observe: unsupported state version %d", st.V)
	}
	if st.Window != o.opt.Window {
		return fmt.Errorf("observe: state window %g does not match options window %g", st.Window, o.opt.Window)
	}
	// Flush leaves the cursor one past the last window it closed.
	if st.Cur < 0 || st.Cur > stream.MaxWindow+1 {
		return fmt.Errorf("observe: state window cursor %d out of range", st.Cur)
	}
	if st.Records < 0 || st.Closed < 0 || st.WinRecords < 0 {
		return fmt.Errorf("observe: state has negative counters")
	}
	if err := o.arrivals.Restore(st.Arrivals); err != nil {
		return fmt.Errorf("observe: arrivals: %w", err)
	}
	if err := o.bins.Restore(st.Bins); err != nil {
		return fmt.Errorf("observe: bins: %w", err)
	}
	if err := o.sizes.Restore(st.Sizes); err != nil {
		return fmt.Errorf("observe: sizes: %w", err)
	}
	if err := o.quant.Restore(st.Quant); err != nil {
		return fmt.Errorf("observe: quantiles: %w", err)
	}
	if err := o.detRate.Restore(st.DetRate); err != nil {
		return err
	}
	if err := o.detDisp.Restore(st.DetDisp); err != nil {
		return err
	}
	if err := o.detTail.Restore(st.DetTail); err != nil {
		return err
	}
	o.cur, o.started = st.Cur, st.Started
	o.closed, o.records, o.winRecords = st.Closed, st.Records, st.WinRecords
	o.skipped, o.changes = st.Skipped, st.Changes
	o.protoWin, o.protoTotal = st.ProtoWin, st.ProtoTotal
	o.lastP50, o.lastP95 = st.LastP50, st.LastP95
	o.lastEst = st.LastEst
	return nil
}
