package dist

import (
	"math"
	"math/rand"
)

// Pareto is the classical Pareto distribution of Appendix B, with
// location parameter A (often written a) and shape parameter Beta (β):
//
//	F(x) = 1 - (A/x)^β,  x >= A.
//
// For β <= 1 the mean is infinite; for β <= 2 the variance is infinite.
// The paper fits β ≈ 0.9–0.95 to TELNET packet interarrivals and
// 0.9 ≤ β ≤ 1.4 to the bytes per FTPDATA burst.
type Pareto struct {
	A    float64 // location (minimum value), > 0
	Beta float64 // shape, > 0
}

// NewPareto returns a Pareto distribution, validating its parameters.
func NewPareto(a, beta float64) Pareto {
	if a <= 0 || beta <= 0 {
		panic("dist: Pareto requires a > 0 and beta > 0")
	}
	return Pareto{A: a, Beta: beta}
}

// CDF returns 1 - (a/x)^β for x >= a and 0 otherwise.
func (p Pareto) CDF(x float64) float64 {
	if x <= p.A {
		return 0
	}
	return 1 - math.Pow(p.A/x, p.Beta)
}

// Quantile returns a·(1-q)^{-1/β}.
func (p Pareto) Quantile(q float64) float64 {
	checkProb(q)
	if q == 1 {
		return math.Inf(1)
	}
	return p.A * math.Pow(1-q, -1/p.Beta)
}

// Rand draws a Pareto variate by inverse transform. For β = 1 it skips
// math.Pow: pure-Go Pow(u, -1) returns Ldexp(1/x1, -xe) for u = x1·2^xe,
// the correctly rounded 1/u, so both paths draw the same bits
// (TestParetoRandBeta1MatchesPow pins it).
func (p Pareto) Rand(rng *rand.Rand) float64 {
	if p.Beta == 1 {
		return p.A * (1 / u01(rng))
	}
	return p.A * math.Pow(u01(rng), -1/p.Beta)
}

// Mean returns βa/(β-1) for β > 1 and +Inf otherwise (Appendix B).
func (p Pareto) Mean() float64 {
	if p.Beta <= 1 {
		return math.Inf(1)
	}
	return p.Beta * p.A / (p.Beta - 1)
}

// Var returns the variance for β > 2 and +Inf otherwise.
func (p Pareto) Var() float64 {
	if p.Beta <= 2 {
		return math.Inf(1)
	}
	m := p.Mean()
	second := p.Beta * p.A * p.A / (p.Beta - 2)
	return second - m*m
}

// CMEX returns the conditional mean exceedance E[X - x | X >= x]. For
// the Pareto with β > 1 this is the linear function x/(β-1) (Appendix
// B); heavier waiting already endured predicts longer waiting to come.
// For β <= 1 it is infinite.
func (p Pareto) CMEX(x float64) float64 {
	if p.Beta <= 1 {
		return math.Inf(1)
	}
	if x < p.A {
		x = p.A
	}
	return x / (p.Beta - 1)
}

// TruncateBelow returns the conditional law of X given X >= x0. By the
// Pareto's invariance under truncation from below (Appendix B, eq. 2),
// this is again a Pareto with the same shape and location x0.
func (p Pareto) TruncateBelow(x0 float64) Pareto {
	if x0 < p.A {
		x0 = p.A
	}
	return Pareto{A: x0, Beta: p.Beta}
}

// TruncatedPareto is a Pareto law truncated (renormalized) to the
// interval [A, Max]. The reconstructed Tcplib interarrival table uses a
// truncated Pareto tail so that the sampled mean is finite (the real
// Tcplib table is likewise bounded).
type TruncatedPareto struct {
	Pareto
	Max float64 // upper truncation point, > A
}

// NewTruncatedPareto returns a Pareto truncated to [a, max].
func NewTruncatedPareto(a, beta, max float64) TruncatedPareto {
	if max <= a {
		panic("dist: truncation point must exceed location")
	}
	return TruncatedPareto{Pareto: NewPareto(a, beta), Max: max}
}

// mass is the untruncated probability of [A, Max].
func (t TruncatedPareto) mass() float64 { return t.Pareto.CDF(t.Max) }

// CDF returns the renormalized CDF on [A, Max].
func (t TruncatedPareto) CDF(x float64) float64 {
	if x <= t.A {
		return 0
	}
	if x >= t.Max {
		return 1
	}
	return t.Pareto.CDF(x) / t.mass()
}

// Quantile inverts the truncated CDF. The result is clamped to Max:
// near q = 1 the untruncated inversion loses the tail mass
// (~(A/Max)^β, often below one ulp of 1) to cancellation and would
// otherwise step past the truncation point.
func (t TruncatedPareto) Quantile(q float64) float64 {
	checkProb(q)
	x := t.Pareto.Quantile(q * t.mass())
	if x > t.Max {
		x = t.Max
	}
	return x
}

// Rand draws from the truncated law by inverse transform.
func (t TruncatedPareto) Rand(rng *rand.Rand) float64 {
	return t.Quantile(u01(rng))
}

// Mean returns the (always finite) truncated mean
// β a^β (Max^{1-β} - A^{1-β}) / ((1-β)·F(Max)) for β ≠ 1 and the
// logarithmic form for β = 1.
func (t TruncatedPareto) Mean() float64 {
	ab := math.Pow(t.A, t.Beta)
	var integral float64
	if t.Beta == 1 {
		integral = t.A * math.Log(t.Max/t.A)
	} else {
		integral = t.Beta * ab / (1 - t.Beta) *
			(math.Pow(t.Max, 1-t.Beta) - math.Pow(t.A, 1-t.Beta))
	}
	return integral / t.mass()
}
