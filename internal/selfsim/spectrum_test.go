package selfsim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// fgnSpectrumPow is FGNSpectrum as the math.Pow formula: the
// specification the cached kernel must match in every bit.
func fgnSpectrumPow(lambda, H float64) float64 {
	if lambda <= 0 || lambda > math.Pi {
		panic("selfsim: fGn spectrum frequency outside (0, π]")
	}
	if H <= 0 || H >= 1 {
		panic("selfsim: Hurst parameter outside (0, 1)")
	}
	const K = 50
	e := -2*H - 1
	sum := math.Pow(lambda, e)
	for k := 1; k <= K; k++ {
		sum += math.Pow(2*math.Pi*float64(k)+lambda, e) +
			math.Pow(2*math.Pi*float64(k)-lambda, e)
	}
	a := 2 * math.Pi * float64(K+1)
	tail := (math.Pow(a+lambda, e+1) + math.Pow(a-lambda, e+1)) / (-(e + 1) * 2 * math.Pi)
	sum += tail
	return (1 - math.Cos(lambda)) * sum
}

// spectrumOutcome runs a spectrum function and reports its result's
// bits, or its panic.
func spectrumOutcome(spectrum func(lambda, H float64) float64, lambda, H float64) (bits uint64, panicked any) {
	defer func() { panicked = recover() }()
	return math.Float64bits(spectrum(lambda, H)), nil
}

// checkSpectrumBits fails unless FGNSpectrum and, for a valid H, the
// cached grid at g's frequency j both give the Pow formula's bits.
func checkSpectrumBits(t *testing.T, g *fgnGrid, j int, H float64) {
	t.Helper()
	lambda := g.lambda[j]
	want, wantPanic := spectrumOutcome(fgnSpectrumPow, lambda, H)
	got, gotPanic := spectrumOutcome(FGNSpectrum, lambda, H)
	if got != want || fmt.Sprint(gotPanic) != fmt.Sprint(wantPanic) {
		t.Fatalf("FGNSpectrum(%v, %v) = %x (panic %v), Pow formula %x (panic %v)",
			lambda, H, got, gotPanic, want, wantPanic)
	}
	if wantPanic != nil {
		return
	}
	if cached := math.Float64bits(g.at(j, newFGNExponents(H))); cached != want {
		t.Fatalf("grid at λ = %v, H = %v: %x, Pow formula %x", lambda, H, cached, want)
	}
}

// TestFGNSpectrumMatchesPowReference pins FGNSpectrum and the cached
// grid Whittle evaluates to the math.Pow formula, bit for bit, on
// random (λ, H) pairs from four periodogram grids. Every eighth H is
// exactly 0.5 (the exponents are integers) and every sixteenth 0.25
// (the tail's exponent is -0.5, one of Pow's special cases). The test
// fails on a platform whose math.Pow is not Go's pure-Go pow.
func TestFGNSpectrumMatchesPowReference(t *testing.T) {
	const pairs = 200_000
	rng := rand.New(rand.NewSource(12))
	grids := []int{8, 9, 64, 8192}
	for _, n := range grids {
		lambda, _ := Periodogram(make([]float64, n))
		g := newFGNGrid(lambda)
		for i := 0; i < pairs/len(grids); i++ {
			var H float64
			switch {
			case i%16 == 0:
				H = 0.25
			case i%8 == 0:
				H = 0.5
			default:
				for H == 0 {
					H = rng.Float64()
				}
			}
			checkSpectrumBits(t, g, rng.Intn(len(lambda)), H)
		}
	}
	// Frequencies off the periodogram grids: the base 1 (a special case
	// of Pow's), a subnormal and a tiny λ (powers that overflow), and π.
	edges := newFGNGrid([]float64{math.SmallestNonzeroFloat64, 1e-300, 1, math.Pi})
	for j := range edges.lambda {
		for _, H := range []float64{0.25, 0.5, 0.501, 0.7, 0.999, math.NaN()} {
			checkSpectrumBits(t, edges, j, H)
		}
	}
}

// FuzzFGNSpectrum compares FGNSpectrum and the cached grid with the
// math.Pow formula at frequency j of an n-point periodogram; an H
// outside (0, 1) must panic the same way.
func FuzzFGNSpectrum(f *testing.F) {
	f.Add(uint32(8192), uint32(1), 0.8)
	f.Add(uint32(8), uint32(3), 0.5)
	f.Add(uint32(9), uint32(2), 0.25)
	f.Add(uint32(64), uint32(31), 0.999)
	f.Add(uint32(1000), uint32(7), 1.0)
	f.Add(uint32(100), uint32(5), math.NaN())
	f.Fuzz(func(t *testing.T, n, j uint32, H float64) {
		nn := 8 + int(n%(1<<24))
		m := (nn - 1) / 2
		lambda := 2 * math.Pi * float64(1+int(j)%m) / float64(nn)
		checkSpectrumBits(t, newFGNGrid([]float64{lambda}), 0, H)
	})
}

// TestWhittleWorkerCountInvariant checks that the objective's fan-out
// over frequencies leaves every bit of the fit unchanged whatever the
// number of workers.
func TestWhittleWorkerCountInvariant(t *testing.T) {
	x := FGN(rand.New(rand.NewSource(10)), 8192, 0.8, 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	one := Whittle(x)
	runtime.GOMAXPROCS(4)
	four := Whittle(x)
	fields := func(r WhittleResult) []float64 {
		return []float64{r.H, r.StdErr, r.CILow, r.CIHigh, r.Scale, r.BeranZ, r.BeranP}
	}
	a, b := fields(one), fields(four)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Errorf("field %d: %v at GOMAXPROCS 1, %v at 4", i, a[i], b[i])
		}
	}
	if one.GoodnessOK != four.GoodnessOK {
		t.Errorf("GoodnessOK: %v at GOMAXPROCS 1, %v at 4", one.GoodnessOK, four.GoodnessOK)
	}
}
