package selfsim

import (
	"math"
	"math/rand"
)

// This file implements fractional ARIMA(0, d, 0), the alternative
// self-similar model Section VII-D suggests for traces that exhibit
// large-scale correlations but are "not well-modeled by a simple
// self-similar process" (fractional Gaussian noise): "This could be
// due to ... better fits to other self-similar models such as
// fractional ARIMA processes."
//
// For 0 < d < 1/2 the process is stationary and long-range dependent
// with Hurst parameter H = d + 1/2.

// FARIMAAutocovariance returns the autocovariance of fARIMA(0, d, 0)
// with innovation variance sigma2 at lag k:
//
//	γ(0) = σ²·Γ(1-2d)/Γ(1-d)²,
//	γ(k) = γ(k-1)·(k-1+d)/(k-d).
func FARIMAAutocovariance(k int, d, sigma2 float64) float64 {
	if d <= -0.5 || d >= 0.5 {
		panic("selfsim: fARIMA requires -0.5 < d < 0.5")
	}
	if k < 0 {
		k = -k
	}
	lg1, _ := math.Lgamma(1 - 2*d)
	lg2, _ := math.Lgamma(1 - d)
	g := sigma2 * math.Exp(lg1-2*lg2)
	for j := 1; j <= k; j++ {
		g *= (float64(j) - 1 + d) / (float64(j) - d)
	}
	return g
}

// FARIMA generates n samples of fractional ARIMA(0, d, 0) with
// innovation variance sigma2 using Hosking's exact sequential
// algorithm (Durbin–Levinson recursion on the true autocovariances).
// O(n²) time, exact for any n.
func FARIMA(rng *rand.Rand, n int, d, sigma2 float64) []float64 {
	if n < 1 {
		panic("selfsim: FARIMA length must be positive")
	}
	if d <= -0.5 || d >= 0.5 {
		panic("selfsim: fARIMA requires -0.5 < d < 0.5")
	}
	if sigma2 <= 0 {
		panic("selfsim: FARIMA variance must be positive")
	}
	gamma := make([]float64, n)
	for k := 0; k < n; k++ {
		if k == 0 {
			gamma[0] = FARIMAAutocovariance(0, d, sigma2)
		} else {
			gamma[k] = gamma[k-1] * (float64(k) - 1 + d) / (float64(k) - d)
		}
	}
	x := make([]float64, n)
	phi := make([]float64, n)
	prev := make([]float64, n)
	v := gamma[0]
	x[0] = math.Sqrt(v) * rng.NormFloat64()
	for t := 1; t < n; t++ {
		// Durbin–Levinson update of the partial regression
		// coefficients phi[0..t-1] predicting X_t from X_{t-1}..X_0.
		copy(prev, phi[:t-1])
		num := gamma[t]
		for j := 1; j < t; j++ {
			num -= prev[j-1] * gamma[t-j]
		}
		k := num / v
		phi[t-1] = k
		for j := 1; j < t; j++ {
			phi[j-1] = prev[j-1] - k*prev[t-1-j]
		}
		v *= 1 - k*k
		mean := 0.0
		for j := 1; j <= t; j++ {
			mean += phi[j-1] * x[t-j]
		}
		x[t] = mean + math.Sqrt(v)*rng.NormFloat64()
	}
	return x
}

// FARIMASpectrum returns the spectral density shape of fARIMA(0, d, 0)
// at frequency λ ∈ (0, π], up to a positive constant:
//
//	f*(λ; d) = |2 sin(λ/2)|^{-2d}.
func FARIMASpectrum(lambda, d float64) float64 {
	if lambda <= 0 || lambda > math.Pi {
		panic("selfsim: fARIMA spectrum frequency outside (0, π]")
	}
	return math.Pow(2*math.Sin(lambda/2), -2*d)
}

// WhittleFARIMA fits fARIMA(0, d, 0) to the series by Whittle's
// method, returning the estimated d (H = d + 1/2) and the Beran
// goodness-of-fit statistic under the fARIMA spectrum. Section VII-D
// uses exactly this comparison to ask whether a trace that rejects fGn
// fits a different self-similar model.
func WhittleFARIMA(x []float64) WhittleResult {
	lambda, I := Periodogram(x)
	obj := func(d float64) float64 {
		sumRatio := 0.0
		sumLog := 0.0
		for j := range lambda {
			f := FARIMASpectrum(lambda[j], d)
			sumRatio += I[j] / f
			sumLog += math.Log(f)
		}
		m := float64(len(lambda))
		return math.Log(sumRatio/m) + sumLog/m
	}
	d := goldenSection(obj, 0.001, 0.499, 1e-5)
	res := WhittleResult{H: d + 0.5}
	f := make([]float64, len(lambda))
	scale := 0.0
	for j := range lambda {
		f[j] = FARIMASpectrum(lambda[j], d)
		scale += I[j] / f[j]
	}
	res.Scale = scale / float64(len(lambda))
	res.StdErr = farimaStdErr(d, len(x))
	res.CILow = res.H - 1.96*res.StdErr
	res.CIHigh = res.H + 1.96*res.StdErr
	res.BeranZ = beranStatistic(I, f)
	res.BeranP = beranPValue(res.BeranZ)
	res.GoodnessOK = res.BeranP >= 0.05
	return res
}

// farimaStdErr is the asymptotic standard error of the Whittle d̂
// (which equals that of Ĥ): for fARIMA(0,d,0) the Fisher-type
// information is W = π²/6 minus the profiled-scale correction.
func farimaStdErr(d float64, n int) float64 {
	const m = 400
	var s1, s2 float64
	dd := 1e-5
	for j := 1; j <= m; j++ {
		lam := math.Pi * (float64(j) - 0.5) / m
		der := (math.Log(FARIMASpectrum(lam, d+dd)) - math.Log(FARIMASpectrum(lam, d-dd))) / (2 * dd)
		s1 += der * der
		s2 += der
	}
	s1 /= m
	s2 /= m
	w := s1 - s2*s2
	if w <= 0 {
		return math.NaN()
	}
	return math.Sqrt(2 / (float64(n) * w))
}
