// Package selfsim implements the long-range dependence toolkit of
// Section VII and Appendices C–E: periodogram estimation, the
// fractional Gaussian noise (fGn) spectral density, Whittle's estimator
// of the Hurst parameter, Beran's goodness-of-fit test against fGn,
// exact fGn synthesis by Davies–Harte circulant embedding, the M/G/∞
// count-process construction of (asymptotically) self-similar traffic,
// and the i.i.d.-Pareto-renewal "pseudo-self-similar" count process
// with its burst/lull scaling analysis.
package selfsim

import (
	"math"
	"math/cmplx"

	"wantraffic/internal/fft"
	"wantraffic/internal/par"
	"wantraffic/internal/stats"
)

// Periodogram returns the periodogram ordinates of the (mean-removed)
// series x at the Fourier frequencies λ_j = 2πj/n for j = 1..⌊(n-1)/2⌋:
//
//	I(λ_j) = |Σ_t x_t e^{-iλ_j t}|² / (2πn).
//
// The j=0 (mean) and Nyquist ordinates are omitted, as is conventional
// for Whittle estimation.
func Periodogram(x []float64) (lambda, I []float64) {
	n := len(x)
	if n < 8 {
		panic("selfsim: series too short for a periodogram")
	}
	m := (n - 1) / 2
	mean := stats.Mean(x)
	c := make([]complex128, n)
	for t, v := range x {
		c[t] = complex(v-mean, 0)
	}
	spec := fft.Forward(c)
	lambda = make([]float64, m)
	I = make([]float64, m)
	for j := 1; j <= m; j++ {
		lambda[j-1] = 2 * math.Pi * float64(j) / float64(n)
		a := cmplx.Abs(spec[j])
		I[j-1] = a * a / (2 * math.Pi * float64(n))
	}
	return lambda, I
}

// FGNSpectrum returns the spectral density shape of fractional
// Gaussian noise with Hurst parameter H at frequency λ ∈ (0, π],
// up to a positive constant factor:
//
//	f*(λ; H) = (1 - cos λ) · Σ_{k ∈ Z} |λ + 2πk|^{-2H-1}.
//
// The infinite sum is truncated at |k| <= 50 with an integral tail
// correction; Whittle estimation and the Beran test profile out the
// scale, so only the shape matters.
//
// Each power is computed as math.Pow computes it, in the same steps,
// so the result is Pow's to the bit (TestFGNSpectrumMatchesPowReference
// pins it against the Pow formula).
func FGNSpectrum(lambda, H float64) float64 {
	checkFGNFrequency(lambda)
	x := newFGNExponents(H)
	var logs [fgnTerms]float64
	fgnLogs(lambda, logs[:])
	return fgnSum(lambda, 1-math.Cos(lambda), logs[:], x)
}

// fgnK is where FGNSpectrum truncates its sum over k; fgnTerms counts
// the bases it raises to a power at one frequency: λ, 2πk ± λ for
// k = 1..fgnK, and the two tail bases 2π(fgnK+1) ± λ.
const (
	fgnK     = 50
	fgnTerms = 2*fgnK + 3
)

func checkFGNFrequency(lambda float64) {
	if lambda <= 0 || lambda > math.Pi {
		panic("selfsim: fGn spectrum frequency outside (0, π]")
	}
}

// fgnLogs sets logs to math.Log of FGNSpectrum's bases at λ, in the
// order fgnSum adds them.
func fgnLogs(lambda float64, logs []float64) {
	logs[0] = math.Log(lambda)
	for k := 1; k <= fgnK; k++ {
		logs[2*k-1] = math.Log(2*math.Pi*float64(k) + lambda)
		logs[2*k] = math.Log(2*math.Pi*float64(k) - lambda)
	}
	a := 2 * math.Pi * float64(fgnK+1)
	logs[2*fgnK+1] = math.Log(a + lambda)
	logs[2*fgnK+2] = math.Log(a - lambda)
}

// fgnSum is FGNSpectrum at λ given c = 1 - cos λ, the logs of its bases
// (fgnLogs) and the exponents of H.
func fgnSum(lambda, c float64, logs []float64, x fgnExponents) float64 {
	sum := x.e.pow(lambda, logs[0])
	for k := 1; k <= fgnK; k++ {
		sum += x.e.pow(2*math.Pi*float64(k)+lambda, logs[2*k-1]) +
			x.e.pow(2*math.Pi*float64(k)-lambda, logs[2*k])
	}
	// Integral approximation of the remaining tail Σ_{|k| > fgnK}.
	a := 2 * math.Pi * float64(fgnK+1)
	sum += (x.tail.pow(a+lambda, logs[2*fgnK+1]) + x.tail.pow(a-lambda, logs[2*fgnK+2])) / x.tailDiv
	return c * sum
}

// fgnExponents is what FGNSpectrum derives from H alone: the sum's
// exponent e = -2H - 1, the tail integral's e + 1, and its divisor.
type fgnExponents struct {
	e, tail powExp
	tailDiv float64
}

func newFGNExponents(H float64) fgnExponents {
	if H <= 0 || H >= 1 {
		panic("selfsim: Hurst parameter outside (0, 1)")
	}
	e := -2*H - 1
	return fgnExponents{e: splitPowExp(e), tail: splitPowExp(e + 1), tailDiv: -(e + 1) * 2 * math.Pi}
}

// powExp is a negative exponent y ∈ (-3, 0) split the way Go's
// pure-Go math.Pow splits it: -y = yi + yf with yi an integer and
// yf ∈ (-0.5, 0.5]. pow then repeats Pow's remaining steps for one
// base, so an exponent raised against many bases is split once and a
// base's math.Log serves every exponent. FGNSpectrum's exponents lie in
// that range; of Pow's special cases, -0.5 (the tail at H = 0.25) and
// NaN (H = NaN passes the range check) go to math.Pow.
type powExp struct {
	y, yf   float64
	yi      int64
	special bool
}

func splitPowExp(y float64) powExp {
	if y == -0.5 || math.IsNaN(y) {
		return powExp{y: y, special: true}
	}
	yi, yf := math.Modf(-y)
	if yf > 0.5 {
		yf--
		yi++
	}
	return powExp{y: y, yf: yf, yi: int64(yi)}
}

// pow returns math.Pow(x, p.y) for x > 0 given logx = math.Log(x), by
// Pow's steps: x^yf by Exp, x^yi by squaring the mantissa with the
// powers of two kept apart, then the reciprocal, then Ldexp. The base
// 1, one of Pow's special cases, and NaN go to math.Pow.
func (p powExp) pow(x, logx float64) float64 {
	if p.special || x == 1 || math.IsNaN(x) {
		return math.Pow(x, p.y)
	}
	a1, ae := 1.0, 0
	if p.yf != 0 {
		a1 = math.Exp(p.yf * logx)
	}
	x1, xe := math.Frexp(x)
	// yi <= 3 squares at most twice, so xe stays inside the ±2¹² bound
	// Pow checks before each squaring.
	for i := p.yi; i != 0; i >>= 1 {
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	return math.Ldexp(1/a1, -ae)
}

// fgnGrid evaluates FGNSpectrum at fixed frequencies for many H, as
// Whittle's search does: it keeps 1 - cos λ and the logs of the
// fgnTerms bases of each frequency (one float64 each), so an
// evaluation repeats only the part of Pow that depends on H.
type fgnGrid struct {
	lambda []float64
	cos1   []float64 // 1 - cos λ
	logs   []float64 // fgnTerms per frequency, in fgnLogs' order
}

func newFGNGrid(lambda []float64) *fgnGrid {
	g := &fgnGrid{lambda: lambda, cos1: make([]float64, len(lambda)), logs: make([]float64, len(lambda)*fgnTerms)}
	for j, l := range lambda {
		checkFGNFrequency(l)
		g.cos1[j] = 1 - math.Cos(l)
		fgnLogs(l, g.logs[j*fgnTerms:(j+1)*fgnTerms])
	}
	return g
}

// at returns FGNSpectrum(λ_j, H) for H's exponents x.
func (g *fgnGrid) at(j int, x fgnExponents) float64 {
	return fgnSum(g.lambda[j], g.cos1[j], g.logs[j*fgnTerms:(j+1)*fgnTerms], x)
}

// fill sets f[j] = FGNSpectrum(λ_j, H) and logf[j] = math.Log(f[j]).
// Blocks of frequencies fan out over par.ForEach; each slot is written
// by one goroutine, so the values do not depend on the worker count.
func (g *fgnGrid) fill(f, logf []float64, H float64) {
	const block = 64
	x := newFGNExponents(H)
	m := len(g.lambda)
	par.ForEach((m+block-1)/block, 0, func(b int) {
		for j := b * block; j < min(m, (b+1)*block); j++ {
			f[j] = g.at(j, x)
			logf[j] = math.Log(f[j])
		}
	})
}

// FGNAutocovariance returns the autocovariance of fGn with variance
// sigma2 at lag k:
//
//	γ(k) = σ²/2 · (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}).
func FGNAutocovariance(k int, H, sigma2 float64) float64 {
	if k < 0 {
		k = -k
	}
	fk := float64(k)
	h2 := 2 * H
	return sigma2 / 2 * (math.Pow(fk+1, h2) - 2*math.Pow(fk, h2) + math.Pow(math.Abs(fk-1), h2))
}
