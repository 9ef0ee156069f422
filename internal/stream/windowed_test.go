package stream

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The windowed accumulators extend the base continuation guarantee:
// State/Restore at any cut is invisible.

// timed is the surface the table tests drive; every windowed sketch
// has it.
type timed interface {
	Count() int64
	ObserveAt(t, x float64)
	State() ([]byte, error)
	Restore(data []byte) error
}

// timedKinds builds each windowed kind fresh.
var timedKinds = map[string]func() timed{
	"rollwin":  func() timed { return NewRollingCounter(0.5, 32) },
	"tumbling": func() timed { return NewTumbling(2, 0.01) },
	"decayed":  func() timed { return NewDecayed(1, 30) },
}

// timedObs yields (time, value) pairs with monotone times and
// heavy-tailed values, plus a few adversarial ones.
func timedObs(n int, seed int64) (ts, xs []float64) {
	rng := rand.New(rand.NewSource(seed))
	ts = make([]float64, n)
	xs = make([]float64, n)
	tm := 0.0
	for i := range ts {
		tm += rng.ExpFloat64() * 0.3
		ts[i] = tm
		switch i % 97 {
		case 13:
			xs[i] = 0 // non-positive: exercises the nonPos path
		case 41:
			xs[i] = -2.5
		default:
			// Pareto-ish: heavy tail so the histogram spans buckets.
			xs[i] = math.Pow(rng.Float64(), -0.9)
		}
	}
	return ts, xs
}

func TestWindowedContinuationExact(t *testing.T) {
	ts, xs := timedObs(3000, 7)
	cuts := []int{0, 1, 17, 64, 99, 100, 512, 1500, 2999, 3000}
	for kind, mk := range timedKinds {
		straight := mk()
		for i := range ts {
			straight.ObserveAt(ts[i], xs[i])
		}
		want, err := straight.State()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for _, cut := range cuts {
			acc := mk()
			for i := 0; i < cut; i++ {
				acc.ObserveAt(ts[i], xs[i])
			}
			mid, err := acc.State()
			if err != nil {
				t.Fatalf("%s cut %d: %v", kind, cut, err)
			}
			restored := mk()
			if err := restored.Restore(mid); err != nil {
				t.Fatalf("%s cut %d: restore: %v", kind, cut, err)
			}
			for _, trail := range []struct {
				name string
				acc  timed
			}{{"original-after-state", acc}, {"restored", restored}} {
				for i := cut; i < len(ts); i++ {
					trail.acc.ObserveAt(ts[i], xs[i])
				}
				got, err := trail.acc.State()
				if err != nil {
					t.Fatalf("%s cut %d %s: %v", kind, cut, trail.name, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: %s at cut %d diverges from the uninterrupted run", kind, trail.name, cut)
				}
			}
		}
	}
}

func TestRollingCounterEviction(t *testing.T) {
	r := NewRollingCounter(1, 4)
	for i := 0; i < 10; i++ {
		r.ObserveAt(float64(i)+0.5, 0) // one event per window 0..9
	}
	if r.Count() != 10 {
		t.Fatalf("count = %d, want 10", r.Count())
	}
	if r.Retained() != 4 || r.Base() != 6 {
		t.Fatalf("retained %d windows at base %d, want 4 at 6", r.Retained(), r.Base())
	}
	if r.EvictedEvents() != 6 {
		t.Fatalf("evicted %d events, want 6", r.EvictedEvents())
	}
	if got := r.Rate(); got != 1 {
		t.Fatalf("rate = %g, want 1", got)
	}
	// A stale event (older than the horizon) is counted, not binned.
	r.ObserveAt(0.5, 0)
	if r.Stale() != 1 || r.Count() != 11 {
		t.Fatalf("stale = %d count = %d, want 1/11", r.Stale(), r.Count())
	}
	// A fast-forward far past the ring evicts everything.
	r.AdvanceTo(1000)
	if r.EvictedEvents() != 10 {
		t.Fatalf("evicted %d events after fast-forward, want 10", r.EvictedEvents())
	}
	for _, c := range r.Counts() {
		if c != 0 {
			t.Fatalf("ring not empty after fast-forward: %v", r.Counts())
		}
	}
}

func TestRollingCounterDispersionPoissonVsBursty(t *testing.T) {
	// Uniform one-per-window arrivals: dispersion 0. Bursty arrivals
	// (all mass in a few windows): dispersion >> 1.
	smooth := NewRollingCounter(1, 64)
	bursty := NewRollingCounter(1, 64)
	for i := 0; i < 64; i++ {
		smooth.ObserveAt(float64(i)+0.25, 0)
		w := float64(i/16) * 16 // 4 bursts of 16
		bursty.ObserveAt(w+0.25, 0)
	}
	if d := smooth.Dispersion(); d != 0 {
		t.Fatalf("smooth dispersion = %g, want 0", d)
	}
	if d := bursty.Dispersion(); d < 5 {
		t.Fatalf("bursty dispersion = %g, want >= 5", d)
	}
}

func TestTumblingOnClose(t *testing.T) {
	var closes []int64
	var counts []int64
	u := NewTumbling(10, 0.01)
	u.OnClose = func(w int64, g *GK) {
		closes = append(closes, w)
		counts = append(counts, g.Count())
	}
	for i := 0; i < 35; i++ {
		u.ObserveAt(float64(i), float64(i))
	}
	u.Flush()
	if want := []int64{0, 1, 2, 3}; len(closes) != 4 ||
		closes[0] != want[0] || closes[3] != want[3] {
		t.Fatalf("closed windows %v, want %v", closes, want)
	}
	for i, c := range counts {
		want := int64(10)
		if i == 3 {
			want = 5
		}
		if c != want {
			t.Fatalf("window %d closed with %d observations, want %d", closes[i], c, want)
		}
	}
	if u.Closed() != 4 || u.Count() != 35 {
		t.Fatalf("closed=%d count=%d, want 4/35", u.Closed(), u.Count())
	}
	// A gap over several windows closes the open one exactly once.
	closes = closes[:0]
	u.ObserveAt(100, 1)
	u.ObserveAt(250, 2)
	if len(closes) != 1 || closes[0] != 10 {
		t.Fatalf("gap close sequence %v, want [10]", closes)
	}
	// A late observation folds into the open window with accounting.
	u.ObserveAt(40, 3)
	if u.Late() != 1 || u.Inner().Count() != 2 {
		t.Fatalf("late=%d inner count=%d, want 1/2", u.Late(), u.Inner().Count())
	}
}

func TestDecayedHalfLife(t *testing.T) {
	// One observation, then advance exactly one half-life: weight 1/2.
	d := NewDecayed(1, 8)
	d.ObserveAt(0.5, 4)
	if w := d.Weight(); w != 1 {
		t.Fatalf("weight = %g, want 1", w)
	}
	d.AdvanceTo(8.5) // 8 windows of 1 s at halfLife 8 s
	if w := d.Weight(); math.Abs(w-0.5) > 1e-12 {
		t.Fatalf("weight after one half-life = %g, want 0.5", w)
	}
	bs := d.Buckets()
	if len(bs) != 1 || bs[0].Exp != 2 || math.Abs(float64(bs[0].Weight)-0.5) > 1e-12 {
		t.Fatalf("buckets after decay: %+v", bs)
	}
	// The mean is unaffected by pure decay.
	if m := d.Mean(); m != 4 {
		t.Fatalf("mean = %g, want 4", m)
	}
	// Long silence drops the bucket mass below the floor entirely.
	d.AdvanceTo(8 * 40)
	if len(d.Buckets()) != 0 {
		t.Fatalf("buckets not garbage-collected after long silence: %+v", d.Buckets())
	}
}

func TestDecayedTracksRecentRegime(t *testing.T) {
	// Regime A: values near 2^1. Regime B: values near 2^10. With a
	// short half-life the mean should land near regime B's level.
	d := NewDecayed(1, 5)
	tm := 0.0
	for i := 0; i < 500; i++ {
		tm += 0.1
		d.ObserveAt(tm, 2)
	}
	for i := 0; i < 500; i++ {
		tm += 0.1
		d.ObserveAt(tm, 1024)
	}
	if m := d.Mean(); m < 900 {
		t.Fatalf("decayed mean = %g, want close to 1024 (recent regime)", m)
	}
	// An undecayed Welford over the same stream would sit near 513.
}

func TestWindowedAdversarialInputs(t *testing.T) {
	for kind, mk := range timedKinds {
		a := mk()
		a.ObserveAt(math.NaN(), math.NaN())
		a.ObserveAt(-5, math.Inf(1))
		a.ObserveAt(math.Inf(1), 1) // capped window index
		a.ObserveAt(3, 2)
		if a.Count() != 4 {
			t.Fatalf("%s: count = %d, want 4", kind, a.Count())
		}
		state, err := a.State()
		if err != nil {
			t.Fatalf("%s: state after adversarial inputs: %v", kind, err)
		}
		b := mk()
		if err := b.Restore(state); err != nil {
			t.Fatalf("%s: restore after adversarial inputs: %v", kind, err)
		}
		got, err := b.State()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !bytes.Equal(state, got) {
			t.Fatalf("%s: adversarial state does not round-trip", kind)
		}
	}
}

func TestWindowedRestoreRejectsCorruption(t *testing.T) {
	rolling := func() timed { return NewRollingCounter(1, 2) }
	tumbling := func() timed { return NewTumbling(1, 0.01) }
	decayed := func() timed { return NewDecayed(1, 8) }
	const gk = `{"kind":"gk","v":1,"state":{"eps":0.01,"n":0,"tuples":null}}`
	cases := []struct {
		name  string
		mk    func() timed
		state string
		want  string // substring of the rejection
	}{
		{"rollwin-sum", rolling, `{"kind":"rollwin","v":1,"state":{"width":1,"keep":2,"started":true,"base":0,"ring":[5],"evicted_windows":0,"evicted_events":0,"stale":0,"early":0,"total":3}}`, "sum to"},
		{"rollwin-negative", rolling, `{"kind":"rollwin","v":1,"state":{"width":1,"keep":2,"started":true,"ring":[-1],"total":-1}}`, "negative count"},
		{"rollwin-shape", rolling, `{"kind":"rollwin","v":1,"state":{"width":1,"keep":4,"ring":[],"total":0}}`, "does not match"},
		{"rollwin-over", rolling, `{"kind":"rollwin","v":1,"state":{"width":1,"keep":2,"ring":[1,2,3],"total":6}}`, "holds 3 windows"},
		{"rollwin-base-min", rolling, `{"kind":"rollwin","v":1,"state":{"width":1,"keep":2,"started":true,"base":-9223372036854775808,"ring":[1],"total":1}}`, "outside"},
		{"rollwin-base-far", rolling, `{"kind":"rollwin","v":1,"state":{"width":1,"keep":2,"started":true,"base":4611686018427387904,"ring":[1],"total":1}}`, "outside"},
		{"tumbling-width", tumbling, `{"kind":"tumbling","v":1,"state":{"width":0,"inner":` + gk + `}}`, "does not match"},
		{"tumbling-window", tumbling, `{"kind":"tumbling","v":1,"state":{"width":1,"window":-1,"open":true,"inner":` + gk + `}}`, "outside"},
		{"tumbling-inner", tumbling, `{"kind":"tumbling","v":1,"state":{"width":1,"inner":{"kind":"moments","v":1,"state":{}}}}`, "tumbling inner"},
		{"decayed-shape", decayed, `{"kind":"decayed","v":1,"state":{"width":1,"half_life":16,"total":0,"buckets":[]}}`, "does not match"},
		{"decayed-window", decayed, `{"kind":"decayed","v":1,"state":{"width":1,"half_life":8,"window":-9223372036854775808,"open":true,"total":0,"buckets":[]}}`, "outside"},
		{"decayed-weight", decayed, `{"kind":"decayed","v":1,"state":{"width":1,"half_life":8,"weight":-1,"total":0,"buckets":[]}}`, "negative mass"},
		{"decayed-bucket", decayed, `{"kind":"decayed","v":1,"state":{"width":1,"half_life":8,"weight":1,"total":1,"buckets":[{"exp":0,"w":-4}]}}`, "negative weight"},
		{"mismatched-kind", rolling, `{"kind":"moments","v":1,"state":{}}`, "want \"rollwin\""},
	}
	for _, tc := range cases {
		err := tc.mk().Restore([]byte(tc.state))
		if err == nil {
			t.Fatalf("%s: corrupted state accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: rejected for the wrong reason: %v", tc.name, err)
		}
	}
}
