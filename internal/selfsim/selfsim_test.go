package selfsim

import (
	"math"
	"math/rand"
	"testing"

	"wantraffic/internal/dist"
	"wantraffic/internal/stats"
)

func TestPeriodogramParsevalLike(t *testing.T) {
	// The periodogram ordinates of white noise fluctuate around the
	// flat spectrum σ²/2π.
	rng := rand.New(rand.NewSource(1))
	n := 4096
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * 2
	}
	_, I := Periodogram(x)
	mean := stats.Mean(I)
	want := 4 / (2 * math.Pi)
	if math.Abs(mean-want)/want > 0.1 {
		t.Errorf("mean periodogram %g want %g", mean, want)
	}
}

func TestPeriodogramPureTone(t *testing.T) {
	n := 1024
	k := 37
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(k*i) / float64(n))
	}
	lambda, I := Periodogram(x)
	// Energy concentrates at λ = 2πk/n.
	best := 0
	for j := range I {
		if I[j] > I[best] {
			best = j
		}
	}
	want := 2 * math.Pi * float64(k) / float64(n)
	if math.Abs(lambda[best]-want) > 1e-9 {
		t.Errorf("peak at λ=%g want %g", lambda[best], want)
	}
}

func TestFGNSpectrumProperties(t *testing.T) {
	// H=0.5 is white noise: flat spectrum.
	f1 := FGNSpectrum(0.3, 0.5)
	f2 := FGNSpectrum(2.0, 0.5)
	if math.Abs(f1-f2)/f1 > 0.02 {
		t.Errorf("H=0.5 spectrum not flat: %g vs %g", f1, f2)
	}
	// For H > 0.5 the spectrum diverges like λ^{1-2H} at the origin.
	h := 0.8
	lo1 := FGNSpectrum(0.001, h)
	lo2 := FGNSpectrum(0.002, h)
	gotExp := math.Log(lo2/lo1) / math.Log(2.0)
	if math.Abs(gotExp-(1-2*h)) > 0.05 {
		t.Errorf("low-frequency exponent %g want %g", gotExp, 1-2*h)
	}
}

func TestFGNAutocovariance(t *testing.T) {
	// γ(0) = σ².
	if math.Abs(FGNAutocovariance(0, 0.7, 2.5)-2.5) > 1e-12 {
		t.Error("gamma(0) != sigma2")
	}
	// H=0.5: uncorrelated.
	for k := 1; k < 5; k++ {
		if math.Abs(FGNAutocovariance(k, 0.5, 1)) > 1e-12 {
			t.Errorf("H=0.5 gamma(%d) != 0", k)
		}
	}
	// H>0.5: positive, slowly decaying; symmetric in k.
	for k := 1; k < 50; k++ {
		g := FGNAutocovariance(k, 0.8, 1)
		if g <= 0 {
			t.Errorf("gamma(%d) = %g, want > 0", k, g)
		}
		if g != FGNAutocovariance(-k, 0.8, 1) {
			t.Error("autocovariance not even")
		}
	}
	// Asymptotics: γ(k) ~ H(2H-1)k^{2H-2}.
	h := 0.9
	k := 1000
	want := h * (2*h - 1) * math.Pow(float64(k), 2*h-2)
	got := FGNAutocovariance(k, h, 1)
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("asymptotic gamma %g want %g", got, want)
	}
}

func TestFGNSampleCovarianceMatchesTheory(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := 0.8
	n := 8192
	// Average the sample ACF over several independent paths.
	const reps = 12
	acc := make([]float64, 6)
	for r := 0; r < reps; r++ {
		x := FGN(rng, n, h, 1)
		for k := 0; k < len(acc); k++ {
			acc[k] += stats.Autocorrelation(x, k) / reps
		}
	}
	for k := 0; k < len(acc); k++ {
		want := FGNAutocovariance(k, h, 1)
		if math.Abs(acc[k]-want) > 0.03 {
			t.Errorf("ACF(%d) = %g want %g", k, acc[k], want)
		}
	}
}

func TestFGNVarianceTimeSlope(t *testing.T) {
	// VT slope of fGn should be ≈ 2H-2.
	rng := rand.New(rand.NewSource(3))
	h := 0.85
	x := FGN(rng, 1<<16, h, 1)
	// Shift to positive "counts" (slope is invariant to mean shifts
	// only through normalization; use raw variance fit instead).
	pts := stats.VarianceTime(x, 1000, 5)
	var xs, ys []float64
	for _, p := range pts {
		if p.Var > 0 {
			xs = append(xs, p.LogM)
			ys = append(ys, math.Log10(p.Var))
		}
	}
	slope, _ := stats.LeastSquares(xs, ys)
	if math.Abs(slope-(2*h-2)) > 0.12 {
		t.Errorf("VT slope %g want %g", slope, 2*h-2)
	}
}

func TestWhittleRecoversH(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, h := range []float64{0.6, 0.75, 0.9} {
		x := FGN(rng, 8192, h, 1)
		res := Whittle(x)
		if math.Abs(res.H-h) > 0.04 {
			t.Errorf("Whittle H = %g want %g", res.H, h)
		}
		if !(res.CILow < h && h < res.CIHigh) {
			t.Errorf("true H %g outside CI [%g, %g]", h, res.CILow, res.CIHigh)
		}
		if !res.GoodnessOK {
			t.Errorf("Beran rejects true fGn (H=%g, z=%g)", h, res.BeranZ)
		}
	}
}

func TestWhittleWhiteNoiseNearHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 8192)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	res := Whittle(x)
	if res.H > 0.55 {
		t.Errorf("white noise H = %g, want ~0.5", res.H)
	}
}

func TestBeranRejectsNonFGN(t *testing.T) {
	// A strongly periodic series is not fGn for any H.
	x := make([]float64, 4096)
	rng := rand.New(rand.NewSource(6))
	for i := range x {
		x[i] = 5*math.Sin(2*math.Pi*float64(i)/64) + 0.3*rng.NormFloat64()
	}
	res := Whittle(x)
	if res.GoodnessOK {
		t.Errorf("Beran accepts periodic series (z=%g p=%g)", res.BeranZ, res.BeranP)
	}
}

func TestFBMFromFGN(t *testing.T) {
	b := FBMFromFGN([]float64{1, -2, 3})
	want := []float64{1, -1, 2}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("fbm %v", b)
		}
	}
}

func TestFGNTrafficNonNegativeWithMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := FGNTraffic(rng, 4096, 0.8, 100, 10)
	for _, v := range x {
		if v < 0 {
			t.Fatal("negative count")
		}
	}
	if m := stats.Mean(x); math.Abs(m-100) > 3 {
		t.Errorf("mean %g want ~100", m)
	}
}

func TestMGInfinityMarginalMean(t *testing.T) {
	// Appendix D: X_t has Poisson marginal with mean rate·E[life].
	rng := rand.New(rand.NewSource(8))
	life := dist.NewPareto(1, 1.5) // mean 3 bins
	rate := 4.0
	x := MGInfinity(rng, 30000, rate, life, 5000)
	want := rate * life.Mean()
	got := stats.Mean(x)
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("occupancy mean %g want %g", got, want)
	}
}

func TestMGInfinityParetoIsLRD(t *testing.T) {
	// Pareto lifetimes: VT slope well above -1 (long-range dependent);
	// estimated H near (3-β)/2.
	rng := rand.New(rand.NewSource(9))
	beta := 1.4
	x := MGInfinity(rng, 1<<15, 5, dist.NewPareto(1, beta), 1<<14)
	pts := stats.VarianceTime(x, 500, 5)
	slope := stats.VTSlope(pts, 10, 500)
	wantSlope := 2*MGInfinityTheoreticalH(beta) - 2 // = 1-β = -0.4
	if slope < wantSlope-0.25 || slope > wantSlope+0.25 {
		t.Errorf("Pareto M/G/∞ VT slope %g want ~%g", slope, wantSlope)
	}
}

func TestMGInfinityLogNormalIsNotLRD(t *testing.T) {
	// Appendix E: log-normal lifetimes are not long-range dependent;
	// at large aggregation the VT slope returns toward -1 and is
	// clearly steeper than the Pareto case above.
	rng := rand.New(rand.NewSource(10))
	life := dist.NewLogNormal(0.5, 1) // modest tail
	x := MGInfinity(rng, 1<<15, 5, life, 1<<13)
	pts := stats.VarianceTime(x, 500, 5)
	slope := stats.VTSlope(pts, 50, 500)
	if slope > -0.7 {
		t.Errorf("log-normal M/G/∞ VT slope %g, want steep (< -0.7)", slope)
	}
}

func TestMGInfinityAutocovariance(t *testing.T) {
	// Exponential lifetimes: r(k) = rate·mean·e^{-k/mean}.
	rate, mean := 3.0, 4.0
	e := dist.Exp(mean)
	got := MGInfinityAutocovariance(rate, e.CDF, 2, 1e4)
	want := rate * mean * math.Exp(-2/mean)
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("autocovariance %g want %g", got, want)
	}
	if MGInfinityAutocovariance(rate, e.CDF, 20000, 1e4) != 0 {
		t.Error("beyond-horizon covariance should be 0")
	}
}

func TestOnOffMultiplexLRD(t *testing.T) {
	// Heavy-tailed ON/OFF sources multiplexed: VT slope shallower
	// than -1 (the Willinger et al. construction).
	rng := rand.New(rand.NewSource(11))
	mk := func(int) OnOffSource {
		return OnOffSource{
			On:   dist.NewPareto(1, 1.2),
			Off:  dist.NewPareto(1, 1.2),
			Rate: 1,
		}
	}
	x := MultiplexOnOff(rng, 50, 1<<14, mk)
	pts := stats.VarianceTime(x, 300, 5)
	slope := stats.VTSlope(pts, 10, 300)
	if slope < -0.75 {
		t.Errorf("ON/OFF VT slope %g, want shallow (> -0.75)", slope)
	}
}

func TestParetoRenewalCountsConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	counts := ParetoRenewalCounts(rng, 1000, 1, 1, 1000)
	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total <= 0 {
		t.Fatal("no arrivals generated")
	}
	bl := AnalyzeBurstLull(counts)
	if bl.Bursts == 0 || bl.Lulls == 0 {
		t.Errorf("expected both bursts and lulls at β=1: %+v", bl)
	}
}

// BenchmarkParetoRenewalCounts draws one of Fig. 15's runs: β = 1,
// a = 1, 800 bins of width 10⁶, from one seed.
func BenchmarkParetoRenewalCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ParetoRenewalCounts(rand.New(rand.NewSource(14)), 800, 1, 1, 1e6)
	}
}

func TestAnalyzeBurstLull(t *testing.T) {
	counts := []float64{1, 2, 0, 0, 0, 3, 0, 1, 1, 1}
	bl := AnalyzeBurstLull(counts)
	if bl.Bursts != 3 || bl.Lulls != 2 {
		t.Fatalf("runs %+v", bl)
	}
	if math.Abs(bl.MeanBurstLen-2) > 1e-12 { // (2+1+3)/3
		t.Errorf("mean burst %g", bl.MeanBurstLen)
	}
	if math.Abs(bl.MeanLullLen-2) > 1e-12 { // (3+1)/2
		t.Errorf("mean lull %g", bl.MeanLullLen)
	}
	if math.Abs(bl.OccupiedFrac-0.6) > 1e-12 {
		t.Errorf("occupied %g", bl.OccupiedFrac)
	}
	empty := AnalyzeBurstLull(nil)
	if empty.Bursts != 0 || empty.Lulls != 0 {
		t.Error("empty analysis should be zero")
	}
}

// TestAppendixCScaling reproduces the heart of Appendix C: as the bin
// width grows by a factor of 1000 (β=1, a=1), the burst length grows
// only modestly (logarithmically) while the lull length distribution
// stays essentially invariant. Medians are compared because lull
// lengths inherit the infinite-mean Pareto tail.
func TestAppendixCScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	measure := func(b float64) (medBurst, medLull, meanBurst float64) {
		const reps = 5
		for r := 0; r < reps; r++ {
			bl := AnalyzeBurstLull(ParetoRenewalCounts(rng, 800, 1, 1, b))
			medBurst += bl.MedianBurstLen / reps
			medLull += bl.MedianLullLen / reps
			meanBurst += bl.MeanBurstLen / reps
		}
		return
	}
	loBurst, loLull, loMean := measure(1e3)
	hiBurst, hiLull, hiMean := measure(1e6)
	burstGrowth := hiBurst / loBurst
	meanGrowth := hiMean / loMean
	// ln(1e6)/ln(1e3) = 2: bursts should roughly double, not grow 1000×.
	if burstGrowth < 1.3 || burstGrowth > 4 {
		t.Errorf("median burst growth %g, want ~2 (log-like)", burstGrowth)
	}
	if meanGrowth < 1.2 || meanGrowth > 5 {
		t.Errorf("mean burst growth %g, want ~2 (log-like)", meanGrowth)
	}
	if lullGrowth := hiLull / loLull; lullGrowth < 0.5 || lullGrowth > 2 {
		t.Errorf("median lull growth %g, want ~invariant", lullGrowth)
	}
}

func TestExpectedBurstBinsRegimes(t *testing.T) {
	// β=2: linear in b.
	if r := ExpectedBurstBins(1, 2, 2e4) / ExpectedBurstBins(1, 2, 1e4); math.Abs(r-2) > 1e-9 {
		t.Errorf("β=2 growth ratio %g want 2", r)
	}
	// β=1: logarithmic.
	g := ExpectedBurstBins(1, 1, 1e7) / ExpectedBurstBins(1, 1, 1e3)
	if math.Abs(g-7.0/3.0) > 1e-9 {
		t.Errorf("β=1 growth ratio %g want 7/3", g)
	}
	// β=0.5: constant.
	if ExpectedBurstBins(1, 0.5, 1e3) != ExpectedBurstBins(1, 0.5, 1e9) {
		t.Error("β=0.5 should be scale-invariant")
	}
	if ExpectedBurstBins(1, 1, 0.5) != 1 {
		t.Error("bin smaller than location should give 1")
	}
}

func TestPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for name, f := range map[string]func(){
		"periodogram short": func() { Periodogram([]float64{1, 2}) },
		"spectrum freq":     func() { FGNSpectrum(0, 0.7) },
		"spectrum H":        func() { FGNSpectrum(1, 1.2) },
		"fgn n":             func() { FGN(rng, 0, 0.7, 1) },
		"fgn H":             func() { FGN(rng, 10, 0, 1) },
		"fgn var":           func() { FGN(rng, 10, 0.7, 0) },
		"mginf":             func() { MGInfinity(rng, 0, 1, dist.Exp(1), 0) },
		"mginf H formula":   func() { MGInfinityTheoreticalH(2.5) },
		"renewal":           func() { ParetoRenewalCounts(rng, 0, 1, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
