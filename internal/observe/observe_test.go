package observe

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wantraffic/internal/trace"
)

// testOptions keeps the horizon short so tests cross warmup quickly.
func testOptions(sink *[]Event) Options {
	return Options{
		Window:      5,
		KeepWindows: 24,
		HalfLife:    30,
		Warmup:      6,
		OnEvent: func(ev Event) {
			*sink = append(*sink, ev)
		},
	}
}

// regimeSwapConns builds the canonical two-regime synthetic stream:
// ~Poisson Telnet traffic for the first half, then clustered FTPDATA
// bursts with Pareto sizes at three times the rate. Deterministic for
// a given seed.
func regimeSwapConns(seed int64, swapAt, horizon float64) []trace.Conn {
	rng := rand.New(rand.NewSource(seed))
	var out []trace.Conn
	t := 0.0
	for t < swapAt {
		t += rng.ExpFloat64() / 8 // Poisson arrivals, 8/s
		if t >= swapAt {
			break
		}
		out = append(out, trace.Conn{
			Start: t, Duration: rng.ExpFloat64() * 10, Proto: trace.Telnet,
			BytesOrig: 1 + int64(rng.ExpFloat64()*200), BytesResp: 1 + int64(rng.ExpFloat64()*800),
		})
	}
	t = swapAt
	for t < horizon {
		// Burst: a cluster of connections at millisecond spacing, then
		// a long silence — the paper's clustered FTPDATA shape.
		n := 8 + rng.Intn(24)
		for i := 0; i < n && t < horizon; i++ {
			t += rng.ExpFloat64() * 0.01
			size := int64(math.Pow(rng.Float64(), -1/1.1) * 300) // Pareto α=1.1
			out = append(out, trace.Conn{
				Start: t, Duration: rng.ExpFloat64(), Proto: trace.FTPData,
				BytesOrig: 64, BytesResp: size,
			})
		}
		t += rng.ExpFloat64() * 0.6
	}
	return out
}

func eventJSON(t *testing.T, evs []Event) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, ev := range evs {
		j, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(j)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestObservatoryDeterministicEvents(t *testing.T) {
	conns := regimeSwapConns(41, 300, 600)
	run := func() ([]Event, []byte) {
		var evs []Event
		o := New(testOptions(&evs))
		for _, c := range conns {
			o.ObserveConn(c)
		}
		o.Flush()
		st, err := o.State()
		if err != nil {
			t.Fatal(err)
		}
		return evs, st
	}
	evs1, st1 := run()
	evs2, st2 := run()
	if !bytes.Equal(eventJSON(t, evs1), eventJSON(t, evs2)) {
		t.Fatal("identical runs emitted different event sequences")
	}
	if !bytes.Equal(st1, st2) {
		t.Fatal("identical runs ended in different states")
	}
	// The stream crosses a genuine regime change: the detector must
	// say so, and the verdict must flip to bursty after the swap.
	var changepoints, burstyAfterSwap int
	for _, ev := range evs1 {
		if ev.Kind == "changepoint" {
			changepoints++
			if ev.TEnd <= 300 {
				t.Fatalf("changepoint fired at t=%g, before the swap", ev.TEnd)
			}
		}
		if ev.Kind == "verdict" && ev.TEnd > 400 && ev.Name == "bursty" {
			burstyAfterSwap++
		}
	}
	if changepoints == 0 {
		t.Fatal("no changepoint event across a 3x rate step + tail shift")
	}
	if burstyAfterSwap == 0 {
		t.Fatal("no bursty verdict after the swap to clustered Pareto traffic")
	}
	// And before the swap, past warmup, the Poisson phase must
	// actually read as poisson at least once.
	var poissonBefore int
	for _, ev := range evs1 {
		if ev.Kind == "verdict" && ev.Name == "poisson" && ev.TEnd <= 300 {
			poissonBefore++
		}
	}
	if poissonBefore == 0 {
		t.Fatal("no poisson verdict during the Poisson phase")
	}
}

// TestObservatoryStateRestoreMidStream is the acceptance criterion:
// cutting the stream at an arbitrary record, serializing, restoring
// into a fresh observatory and continuing must reproduce the
// uninterrupted run's post-cut events and final state byte-for-byte.
func TestObservatoryStateRestoreMidStream(t *testing.T) {
	conns := regimeSwapConns(43, 150, 400)
	var straightEvs []Event
	straight := New(testOptions(&straightEvs))
	for _, c := range conns {
		straight.ObserveConn(c)
	}
	straight.Flush()
	want, err := straight.State()
	if err != nil {
		t.Fatal(err)
	}
	// obsState v1 is a persisted format: pin its bytes, not just its
	// round trip, so a refactor of the sketches cannot drift them.
	const wantSHA = "da5bd227f1a52eca148d80777bc09b2ba8f8251802a917454704654ccdc3fd74"
	if got := fmt.Sprintf("%x", sha256.Sum256(want)); got != wantSHA || len(want) != 2979 {
		t.Fatalf("final state is %d bytes with sha256 %s, want 2979 bytes with %s", len(want), got, wantSHA)
	}
	for _, cut := range []int{0, 1, len(conns) / 3, len(conns) / 2, len(conns) - 1} {
		var preEvs []Event
		o := New(testOptions(&preEvs))
		for _, c := range conns[:cut] {
			o.ObserveConn(c)
		}
		mid, err := o.State()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		var postEvs []Event
		restored := New(testOptions(&postEvs))
		if err := restored.Restore(mid); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		for _, c := range conns[cut:] {
			restored.ObserveConn(c)
		}
		restored.Flush()
		got, err := restored.State()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cut %d: restored run's final state diverges", cut)
		}
		// The restored run's events must equal the uninterrupted run's
		// events from the cut onward.
		all := eventJSON(t, straightEvs)
		pre := eventJSON(t, preEvs)
		post := eventJSON(t, postEvs)
		if !bytes.Equal(append(pre, post...), all) {
			t.Fatalf("cut %d: pre+post event sequence diverges from the uninterrupted run", cut)
		}
	}
}

func TestObservatoryRestoreRejectsMismatch(t *testing.T) {
	var evs []Event
	o := New(testOptions(&evs))
	o.ObserveConn(trace.Conn{Start: 1, BytesResp: 100})
	st, err := o.State()
	if err != nil {
		t.Fatal(err)
	}
	other := New(Options{Window: 2})
	if err := other.Restore(st); err == nil {
		t.Fatal("restore accepted a state from different options")
	}
	if err := o.Restore([]byte(`{"v":9}`)); err == nil {
		t.Fatal("restore accepted an unknown version")
	}
	if err := o.Restore([]byte(`not json`)); err == nil {
		t.Fatal("restore accepted garbage")
	}
}

func TestObservatoryEmptyWindowsAndGaps(t *testing.T) {
	var evs []Event
	o := New(testOptions(&evs))
	verdicts := func() int {
		n := 0
		for _, ev := range evs {
			if ev.Kind == "verdict" {
				n++
			}
		}
		return n
	}
	o.ObserveConn(trace.Conn{Start: 1, Proto: trace.WWW, BytesResp: 10})
	// A modest gap: every skipped window still gets a verdict.
	o.ObserveConn(trace.Conn{Start: 51, Proto: trace.WWW, BytesResp: 10})
	if verdicts() != 10 {
		t.Fatalf("10 windows crossed, %d verdicts emitted", verdicts())
	}
	// A gap far beyond the horizon fast-forwards with accounting
	// instead of emitting hundreds of empty estimates.
	before := verdicts()
	o.ObserveConn(trace.Conn{Start: 1e6, Proto: trace.WWW, BytesResp: 10})
	if emitted := verdicts() - before; emitted != 1 {
		t.Fatalf("horizon-sized fast-forward emitted %d verdicts, want 1", emitted)
	}
	if o.skipped == 0 {
		t.Fatal("fast-forward not accounted in skipped windows")
	}
	// Adversarial record times must not panic or distort the clock.
	o.ObserveConn(trace.Conn{Start: math.NaN(), BytesResp: 10})
	o.ObserveConn(trace.Conn{Start: math.Inf(1), BytesResp: 10})
	if o.Records() != 5 {
		t.Fatalf("records = %d, want 5", o.Records())
	}
	// Flushing at the capped window leaves the cursor one past the
	// last window index; that state must still restore.
	o.Flush()
	st, err := o.State()
	if err != nil {
		t.Fatal(err)
	}
	if err := New(testOptions(new([]Event))).Restore(st); err != nil {
		t.Fatalf("state flushed at the capped window does not restore: %v", err)
	}
}

func TestPageHinkleyStepDetection(t *testing.T) {
	det := NewPageHinkley(0.05, 0.8, 8, 4)
	// Steady signal: no alarm, ever.
	for i := 0; i < 200; i++ {
		x := 10 + 0.1*math.Sin(float64(i))
		if _, fired := det.Update(x); fired {
			t.Fatalf("false alarm on steady signal at sample %d", i)
		}
	}
	// A 50% step: must alarm within a handful of samples.
	firedAt := -1
	for i := 0; i < 30; i++ {
		if sh, fired := det.Update(15); fired {
			if sh.Direction != "up" {
				t.Fatalf("step up classified as %q", sh.Direction)
			}
			if sh.Score < 1 {
				t.Fatalf("alarm score %g < 1", sh.Score)
			}
			firedAt = i
			break
		}
	}
	if firedAt < 0 {
		t.Fatal("no alarm within 30 samples of a 50% step")
	}
	// After reset + cooldown + re-warmup, a downward step also fires.
	for i := 0; i < 40; i++ {
		det.Update(15)
	}
	fired := false
	for i := 0; i < 40; i++ {
		if sh, ok := det.Update(7); ok {
			if sh.Direction != "down" {
				t.Fatalf("step down classified as %q", sh.Direction)
			}
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("no alarm on a downward step after re-warm")
	}
	// Non-finite samples are inert.
	st := det.State()
	det.Update(math.NaN())
	det.Update(math.Inf(1))
	if det.State() != st {
		t.Fatal("non-finite samples changed detector state")
	}
}

func TestPageHinkleyIgnoresSlowDrift(t *testing.T) {
	// A 0.1%-per-sample ramp stays under the drift allowance.
	det := NewPageHinkley(0.05, 1.5, 8, 4)
	x := 100.0
	for i := 0; i < 300; i++ {
		x *= 1.0002
		if _, fired := det.Update(x); fired {
			t.Fatalf("alarm on slow drift at sample %d (x=%g)", i, x)
		}
	}
}

func TestHillBinnedParetoRecovery(t *testing.T) {
	for _, alpha := range []float64{0.9, 1.3, 2.0} {
		rng := rand.New(rand.NewSource(17))
		d := New(Options{Window: 1, HalfLife: 1e9}) // effectively undecayed
		tm := 0.0
		for i := 0; i < 40000; i++ {
			tm += 0.001
			x := math.Pow(rng.Float64(), -1/alpha)
			d.sizes.ObserveAt(tm, x)
		}
		got, w := HillBinned(d.sizes.Buckets(), 0.1)
		if w <= 0 {
			t.Fatalf("alpha=%g: no tail weight", alpha)
		}
		// Binned Hill trades precision for O(buckets) memory; ±25% is
		// the regime-discrimination accuracy the verdict needs.
		if math.Abs(got-alpha)/alpha > 0.25 {
			t.Fatalf("alpha=%g: estimated %g (err %.0f%%)", alpha, got, 100*math.Abs(got-alpha)/alpha)
		}
	}
}

func TestHillBinnedDegenerate(t *testing.T) {
	if a, w := HillBinned(nil, 0.1); a != 0 || w != 0 {
		t.Fatalf("empty buckets: (%g,%g)", a, w)
	}
	d := New(Options{Window: 1})
	for i := 0; i < 100; i++ {
		d.sizes.ObserveAt(float64(i)*0.001, 5) // all in one bucket
	}
	if a, _ := HillBinned(d.sizes.Buckets(), 0.1); a != 0 {
		t.Fatalf("single-bucket sample produced alpha=%g, want 0 (unavailable)", a)
	}
}
