package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// StdNormalCDF returns the standard normal CDF Φ(z).
func StdNormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// StdNormalQuantile returns Φ⁻¹(p), the inverse of the standard normal CDF.
// It returns ±Inf at p ∈ {0, 1} and NaN outside [0, 1].
//
// The implementation uses Peter Acklam's rational approximation (relative
// error below 1.15e-9 across the full domain) followed by one step of
// Halley refinement using math.Erfc, which brings the result to within a
// few ULPs — more than sufficient for confidence-interval construction.
func StdNormalQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}

	// Coefficients for Acklam's approximation.
	var (
		a = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
			-2.759285104469687e+02, 1.383577518672690e+02,
			-3.066479806614716e+01, 2.506628277459239e+00}
		b = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
			-1.556989798598866e+02, 6.680131188771972e+01,
			-1.328068155288572e+01}
		c = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
			-2.400758277161838e+00, -2.549732539343734e+00,
			4.374664141464968e+00, 2.938163982698783e+00}
		d = [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
			2.445134137142996e+00, 3.754408661907416e+00}
	)
	const pLow = 0.02425
	const pHigh = 1 - pLow

	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}

	// One Halley refinement step.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// TruncNormal is a normal distribution restricted to the interval [Lo, Hi].
// The paper injects Integrated-ARIMA attack vectors from a truncated normal
// so that the false readings respect both the ARIMA confidence band and the
// historic mean/variance checks (Section VIII-B).
type TruncNormal struct {
	Mean  float64
	Sigma float64
	Lo    float64
	Hi    float64
}

// NewTruncNormal validates and constructs a truncated normal distribution.
// Sigma must be positive and Lo < Hi.
func NewTruncNormal(mean, sigma, lo, hi float64) (TruncNormal, error) {
	if sigma <= 0 || math.IsNaN(sigma) {
		return TruncNormal{}, fmt.Errorf("stats: truncated normal requires sigma > 0, got %g", sigma)
	}
	if !(lo < hi) {
		return TruncNormal{}, fmt.Errorf("stats: truncated normal requires lo < hi, got [%g, %g]", lo, hi)
	}
	return TruncNormal{Mean: mean, Sigma: sigma, Lo: lo, Hi: hi}, nil
}

// alphaBeta returns the standardized truncation bounds.
func (t TruncNormal) alphaBeta() (alpha, beta float64) {
	return (t.Lo - t.Mean) / t.Sigma, (t.Hi - t.Mean) / t.Sigma
}

// massZ returns Φ(alpha), Φ(beta) and the probability mass Z between them.
func (t TruncNormal) massZ() (phiA, phiB, z float64) {
	alpha, beta := t.alphaBeta()
	phiA = StdNormalCDF(alpha)
	phiB = StdNormalCDF(beta)
	return phiA, phiB, phiB - phiA
}

// Sample draws one value using inverse-CDF sampling, which is exact and
// needs exactly one uniform variate — important for reproducibility because
// the number of RNG draws per sample is constant (rejection sampling would
// make downstream draws depend on acceptance history).
func (t TruncNormal) Sample(rng *rand.Rand) float64 {
	phiA, _, z := t.massZ()
	if z <= 0 {
		// Degenerate truncation: all mass collapses numerically; return the
		// nearest bound to the mean.
		if t.Mean < t.Lo {
			return t.Lo
		}
		return t.Hi
	}
	u := rng.Float64()
	x := t.Mean + t.Sigma*StdNormalQuantile(phiA+u*z)
	// Guard against floating-point excursions just outside the interval.
	if x < t.Lo {
		x = t.Lo
	}
	if x > t.Hi {
		x = t.Hi
	}
	return x
}
