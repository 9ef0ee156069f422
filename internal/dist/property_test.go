package dist

import (
	"math"
	"math/rand"
	"testing"
)

// Property tests for the quantile/CDF pairs the paper's models lean
// on hardest: the Pareto laws across the β range the paper fits
// (0.9 ≤ β ≤ 1.4 for FTPDATA burst bytes, β ≈ 0.9–0.95 for TELNET
// interarrivals) and the log₂-normal TELNET connection-size law.

// probGrid returns deterministic p values covering the bulk and both
// tails, plus seeded uniform draws.
func probGrid(rng *rand.Rand) []float64 {
	ps := []float64{1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.25, 0.5,
		0.75, 0.9, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9}
	for i := 0; i < 200; i++ {
		ps = append(ps, rng.Float64())
	}
	return ps
}

func checkRoundTrip(t *testing.T, name string, d interface {
	CDF(float64) float64
	Quantile(float64) float64
}, ps []float64) {
	t.Helper()
	for _, p := range ps {
		x := d.Quantile(p)
		if math.IsInf(x, 1) {
			continue
		}
		got := d.CDF(x)
		// CDF∘Quantile is flat only across genuine atoms; the laws here
		// are continuous, so the round-trip must return p to close to
		// float precision.
		if math.Abs(got-p) > 1e-9 {
			t.Errorf("%s: CDF(Quantile(%g)) = %g (|Δ| = %g)", name, p, got, math.Abs(got-p))
		}
	}
}

func TestParetoQuantileCDFRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ps := probGrid(rng)
	for _, beta := range []float64{0.9, 0.95, 1.0, 1.05, 1.1, 1.2, 1.4} {
		for _, a := range []float64{0.001, 0.1, 1, 512, 2e5} {
			p := NewPareto(a, beta)
			checkRoundTrip(t, "Pareto", p, ps)
			// Quantile must stay in support and be monotone.
			prev := 0.0
			for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.999} {
				x := p.Quantile(q)
				if x < a || x < prev {
					t.Fatalf("Pareto(a=%g, beta=%g): Quantile(%g) = %g not monotone in support", a, beta, q, x)
				}
				prev = x
			}
		}
	}
}

func TestTruncatedParetoQuantileCDFRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	ps := probGrid(rng)
	for _, beta := range []float64{0.9, 1.05, 1.4} {
		for _, max := range []float64{10, 1e4, 2e8} {
			tp := NewTruncatedPareto(1, beta, max)
			checkRoundTrip(t, "TruncatedPareto", tp, ps)
			if x := tp.Quantile(1); x > max*(1+1e-12) {
				t.Errorf("TruncatedPareto(beta=%g, max=%g): Quantile(1) = %g beyond truncation", beta, max, x)
			}
			if m := tp.Mean(); !(m > 1) || math.IsInf(m, 0) {
				t.Errorf("TruncatedPareto(beta=%g, max=%g): mean %g not finite and > A", beta, max, m)
			}
		}
	}
}

func TestLogNormalQuantileCDFRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	ps := probGrid(rng)
	// The paper's TELNET size law: log₂-normal, log₂-mean log₂(100),
	// log₂-sd 2.24 (Section V), plus surrounding parameter ranges.
	paper := NewLog2Normal(math.Log2(100), 2.24)
	checkRoundTrip(t, "Log2Normal(paper)", paper, ps)
	for _, mu := range []float64{-2, 0, math.Log2(100), 12} {
		for _, sigma := range []float64{0.5, 1, 2.24, 4} {
			checkRoundTrip(t, "Log2Normal", NewLog2Normal(mu, sigma), ps)
		}
	}
	for _, sigma := range []float64{0.5, 1.8} {
		checkRoundTrip(t, "LogNormal", NewLogNormal(0.5, sigma), ps)
	}
}

// TestParetoSamplesMatchCDF closes the loop from Rand back to CDF: the
// empirical CDF of inverse-transform draws must match the analytic CDF
// (a coarse Kolmogorov–Smirnov bound keeps the test fast and stable).
func TestParetoSamplesMatchCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	const n = 20000
	for _, beta := range []float64{0.9, 1.4} {
		p := NewPareto(1, beta)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = p.Rand(rng)
		}
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
			x := p.Quantile(q)
			below := 0
			for _, v := range xs {
				if v <= x {
					below++
				}
			}
			emp := float64(below) / n
			if math.Abs(emp-q) > 0.015 {
				t.Errorf("Pareto(beta=%g): empirical CDF at Quantile(%g) = %.4f", beta, q, emp)
			}
		}
	}
}

// TestParetoRandBeta1MatchesPow pins Rand's β = 1 shortcut to the
// inverse transform it replaces: two generators from one seed, one
// through Rand and one through a·Pow(u, -1/β), must agree in every bit
// of every draw. β = 1.2 is a control that still goes through Pow. The
// test fails on a platform whose math.Pow is not Go's pure-Go pow.
func TestParetoRandBeta1MatchesPow(t *testing.T) {
	const draws = 1_000_000
	for _, p := range []Pareto{NewPareto(1, 1), NewPareto(0.37, 1), NewPareto(1, 1.2)} {
		got := rand.New(rand.NewSource(15))
		want := rand.New(rand.NewSource(15))
		for i := 0; i < draws; i++ {
			u := u01(want)
			x, ref := p.Rand(got), p.A*math.Pow(u, -1/p.Beta)
			if math.Float64bits(x) != math.Float64bits(ref) {
				t.Fatalf("Pareto(%g, %g) draw %d: Rand %x, a*Pow(%x, %g) %x",
					p.A, p.Beta, i, math.Float64bits(x), math.Float64bits(u), -1/p.Beta, math.Float64bits(ref))
			}
		}
	}
}
