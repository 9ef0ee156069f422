package selfsim

import (
	"math"

	"wantraffic/internal/dist"
)

// WhittleResult is the outcome of fitting fGn to a series by Whittle's
// approximate maximum likelihood, plus Beran's goodness-of-fit test.
type WhittleResult struct {
	H      float64 // estimated Hurst parameter
	StdErr float64 // asymptotic standard error of Ĥ
	CILow  float64 // 95% confidence interval
	CIHigh float64
	Scale  float64 // profiled spectral scale σ̂²-like factor

	// Beran goodness-of-fit against fGn with Ĥ.
	BeranZ     float64 // asymptotically N(0,1) under the fGn null
	BeranP     float64 // two-sided p-value
	GoodnessOK bool    // BeranP >= 0.05: consistent with fGn
}

// Whittle fits fractional Gaussian noise to the series x by minimizing
// the Whittle likelihood over H ∈ (0.5, 1), with the scale profiled
// out, and runs Beran's goodness-of-fit test at the fitted H. This is
// the procedure the paper uses (via Beran's S programs) to assess the
// self-similarity of the LBL PKT and DEC WRL traces in Section VII.
func Whittle(x []float64) WhittleResult {
	lambda, I := Periodogram(x)
	// The grid and both slices live for this one fit; each objective
	// evaluation refills the slices in parallel and sums them serially
	// in index order, so every bit matches a serial evaluation.
	g := newFGNGrid(lambda)
	f := make([]float64, len(lambda))
	logf := make([]float64, len(lambda))
	obj := func(h float64) float64 {
		g.fill(f, logf, h)
		sumRatio := 0.0
		sumLog := 0.0
		for j := range lambda {
			sumRatio += I[j] / f[j]
			sumLog += logf[j]
		}
		m := float64(len(lambda))
		return math.Log(sumRatio/m) + sumLog/m
	}
	h := goldenSection(obj, 0.501, 0.999, 1e-5)
	g.fill(f, logf, h)
	// Profiled scale: mean(I/f*).
	scale := 0.0
	for j := range lambda {
		scale += I[j] / f[j]
	}
	scale /= float64(len(lambda))

	res := WhittleResult{H: h, Scale: scale}
	res.StdErr = whittleStdErr(h, len(x))
	res.CILow = h - 1.96*res.StdErr
	res.CIHigh = h + 1.96*res.StdErr
	res.BeranZ = beranStatistic(I, f)
	res.BeranP = beranPValue(res.BeranZ)
	res.GoodnessOK = res.BeranP >= 0.05
	return res
}

// beranPValue converts the asymptotically standard-normal Beran
// statistic to a two-sided p-value.
func beranPValue(z float64) float64 {
	return 2 * (1 - dist.Normal{Mu: 0, Sigma: 1}.CDF(math.Abs(z)))
}

// whittleStdErr returns the asymptotic standard error of the Whittle
// estimate: Var(Ĥ) ≈ 2 / (n · W(H)) with
//
//	W(H) = (1/2π) ∫_{-π}^{π} (∂ log f*(λ;H)/∂H)² dλ
//	      - (1/2π)² (∫ ∂ log f*/∂H dλ)²,
//
// evaluated numerically (the second term accounts for the profiled
// scale parameter).
func whittleStdErr(h float64, n int) float64 {
	const m = 400
	var s1, s2 float64
	dh := 1e-5
	for j := 1; j <= m; j++ {
		lam := math.Pi * (float64(j) - 0.5) / m
		d := (math.Log(FGNSpectrum(lam, h+dh)) - math.Log(FGNSpectrum(lam, h-dh))) / (2 * dh)
		s1 += d * d
		s2 += d
	}
	s1 /= m
	s2 /= m
	w := s1 - s2*s2
	if w <= 0 {
		return math.NaN()
	}
	return math.Sqrt(2 / (float64(n) * w))
}

// beranStatistic computes a normalized version of Beran's (1992)
// goodness-of-fit statistic from the periodogram ordinates I and the
// fitted spectrum shape f at the same frequencies. Under the null that
// the series has spectral density proportional to f*(·; H), the
// normalized periodogram ratios R_j = I_j / f*_j are asymptotically
// independent with a common exponential-type law, so
//
//	T = m · Σ R_j² / (Σ R_j)²  →  2,  and  z = √m (T - 2)/2 → N(0,1).
//
// Large |z| indicates lack of fit.
func beranStatistic(I, f []float64) float64 {
	m := float64(len(I))
	var sum, sum2 float64
	for j := range I {
		r := I[j] / f[j]
		sum += r
		sum2 += r * r
	}
	if sum == 0 {
		return math.Inf(1)
	}
	t := m * sum2 / (sum * sum)
	return math.Sqrt(m) * (t - 2) / 2
}

// goldenSection minimizes f on [a, b] to the given x-tolerance.
func goldenSection(f func(float64) float64, a, b, tol float64) float64 {
	const phi = 0.6180339887498949 // (√5-1)/2
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, f2 := f(x1), f(x2)
	for b-a > tol {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			f2 = f(x2)
		}
	}
	return (a + b) / 2
}
