package arima

import (
	"fmt"
	"math"
)

// Order specifies an ARIMA(p,d,q) model.
type Order struct {
	P int // autoregressive order
	D int // differencing order
	Q int // moving-average order
}

// Validate reports whether the order is admissible.
func (o Order) Validate() error {
	if o.P < 0 || o.D < 0 || o.Q < 0 {
		return fmt.Errorf("arima: negative order component in %v", o)
	}
	if o.P == 0 && o.Q == 0 && o.D == 0 {
		return fmt.Errorf("arima: degenerate order (0,0,0)")
	}
	if o.P > 20 || o.Q > 20 || o.D > 2 {
		return fmt.Errorf("arima: order %v beyond supported range (p,q <= 20, d <= 2)", o)
	}
	return nil
}

// String renders the order as "ARIMA(p,d,q)".
func (o Order) String() string { return fmt.Sprintf("ARIMA(%d,%d,%d)", o.P, o.D, o.Q) }

// Model is a fitted ARIMA model. Phi are the AR coefficients and Theta the
// MA coefficients of the (possibly differenced) mean-adjusted process:
//
//	w_t - mu = Σ phi_i (w_{t-i} - mu) + e_t + Σ theta_j e_{t-j}
//
// where w = (1-B)^D y.
type Model struct {
	Order  Order
	Phi    []float64 // length P
	Theta  []float64 // length Q
	Mu     float64   // mean of the differenced process
	Sigma2 float64   // innovation variance
	N      int       // number of observations used in fitting
	LogLik float64   // Gaussian log-likelihood (conditional)
}

// residualsZ computes conditional one-step residuals on a zero-mean
// differenced series using the fitted coefficients. Pre-sample values and
// innovations are taken as zero.
func (m *Model) residualsZ(z []float64) []float64 {
	resid := make([]float64, len(z))
	m.residualsZInto(resid, z)
	return resid
}

// residualsZInto is residualsZ writing into a caller-provided buffer, which
// must have len(z); hot paths reuse the buffer across calls.
func (m *Model) residualsZInto(resid, z []float64) {
	for t := 0; t < len(z); t++ {
		pred := 0.0
		for i, c := range m.Phi {
			if t-1-i >= 0 {
				pred += c * z[t-1-i]
			}
		}
		for j, c := range m.Theta {
			if t-1-j >= 0 {
				pred += c * resid[t-1-j]
			}
		}
		resid[t] = z[t] - pred
	}
}

// clampStationary shrinks AR coefficients toward zero until the companion
// polynomial's coefficient sum is safely inside the unit circle. This cheap
// guard (rather than full root-finding) keeps long-horizon forecasts from
// exploding when the estimator lands on a marginally nonstationary fit —
// which attack-poisoned series are engineered to cause.
func clampStationary(phi []float64) []float64 {
	out := make([]float64, len(phi))
	copy(out, phi)
	for iter := 0; iter < 100; iter++ {
		var sumAbs float64
		for _, c := range out {
			sumAbs += math.Abs(c)
		}
		if sumAbs < 0.999 {
			break
		}
		scale := 0.98 * 0.999 / sumAbs
		for i := range out {
			out[i] *= scale
		}
	}
	return out
}

// clampInvertible applies the same absolute-sum shrinkage to MA terms.
func clampInvertible(theta []float64) []float64 {
	return clampStationary(theta)
}

// AIC returns Akaike's information criterion for the fitted model.
func (m *Model) AIC() float64 {
	k := float64(len(m.Phi) + len(m.Theta) + 2) // + mean + variance
	return 2*k - 2*m.LogLik
}

// DefaultCandidates is a small grid of orders suitable for half-hourly
// consumption data after the detector's seasonal adjustment.
func DefaultCandidates() []Order {
	return []Order{
		{P: 1, D: 0, Q: 0},
		{P: 2, D: 0, Q: 0},
		{P: 3, D: 0, Q: 0},
		{P: 1, D: 0, Q: 1},
		{P: 2, D: 0, Q: 1},
		{P: 1, D: 1, Q: 1},
		{P: 2, D: 1, Q: 1},
	}
}
