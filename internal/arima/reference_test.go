package arima

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// This file keeps the cold, replay-based forms of what the package computes
// from a retained fit, as references for the production code: NewPredictor
// warms a predictor by replaying a history (TrainedFit.PredictorAt must
// land in the same state), ForecastFrom iterates the difference equation h
// steps ahead (Predictor's one-step forecasts must agree with it), and Fit
// and SelectOrder are the workspace entry points through a fresh workspace.

// Fit is FitTrained through a fresh workspace, keeping only the model.
func Fit(y []float64, order Order) (*Model, error) {
	tf, err := FitTrained(y, order, NewWorkspace())
	if err != nil {
		return nil, err
	}
	return tf.Model, nil
}

// SelectOrder is SelectOrderTrained through a fresh workspace, keeping only
// the model.
func SelectOrder(y []float64, candidates []Order) (*Model, error) {
	tf, err := SelectOrderTrained(y, candidates, NewWorkspace())
	if err != nil {
		return nil, err
	}
	return tf.Model, nil
}

// Forecast holds h-step-ahead point forecasts and their standard errors.
type Forecast struct {
	Point []float64 // point forecasts, horizon 1..h
	Sigma []float64 // forecast standard errors per horizon
}

// Interval returns the two-sided confidence interval at the given level
// (e.g. 0.95) for horizon step i (0-based).
func (f *Forecast) Interval(level float64, i int) (lo, hi float64) {
	if i < 0 || i >= len(f.Point) || level <= 0 || level >= 1 {
		return math.NaN(), math.NaN()
	}
	z := stats.StdNormalQuantile(0.5 + level/2)
	return f.Point[i] - z*f.Sigma[i], f.Point[i] + z*f.Sigma[i]
}

// PsiWeights returns the first n psi (MA-infinity) weights of the ARIMA
// process, including the effect of differencing. Forecast error variance at
// horizon h is Sigma2 * Σ_{j<h} psi_j².
func (m *Model) PsiWeights(n int) []float64 {
	if n <= 0 {
		return nil
	}
	// Effective AR polynomial phi*(B) with (1-B)^D folded in:
	// c(B) = phi(B) (1-B)^D; y_t = Σ phiStar_i y_{t-i} + e_t + Σ theta e.
	phiPoly := make([]float64, len(m.Phi)+1)
	phiPoly[0] = 1
	for i, c := range m.Phi {
		phiPoly[i+1] = -c
	}
	c := polyMul(phiPoly, diffPoly(m.Order.D))
	phiStar := make([]float64, len(c)-1)
	for i := 1; i < len(c); i++ {
		phiStar[i-1] = -c[i]
	}

	psi := make([]float64, n)
	psi[0] = 1
	for j := 1; j < n; j++ {
		var v float64
		if j-1 < len(m.Theta) {
			v = m.Theta[j-1]
		}
		for i := 1; i <= j && i <= len(phiStar); i++ {
			v += phiStar[i-1] * psi[j-i]
		}
		psi[j] = v
	}
	return psi
}

// ForecastFrom produces h-step-ahead forecasts given the observed history
// (original, undifferenced scale). The history must contain at least
// Order.D + Order.P + Order.Q observations.
func (m *Model) ForecastFrom(history []float64, h int) (*Forecast, error) {
	if h <= 0 {
		return nil, fmt.Errorf("arima: forecast horizon must be positive, got %d", h)
	}
	need := m.Order.D + m.Order.P + m.Order.Q
	if len(history) < need || len(history) < m.Order.D+1 {
		return nil, fmt.Errorf("arima: history of %d too short (need >= %d)", len(history), need)
	}
	w, err := Difference(history, m.Order.D)
	if err != nil {
		return nil, err
	}
	z := make([]float64, len(w))
	for i, v := range w {
		z[i] = v - m.Mu
	}
	resid := m.residualsZ(z)

	// Iterate the difference equation with future innovations set to zero.
	zExt := append(make([]float64, 0, len(z)+h), z...)
	eExt := append(make([]float64, 0, len(resid)+h), resid...)
	for step := 0; step < h; step++ {
		t := len(zExt)
		var pred float64
		for i, c := range m.Phi {
			if t-1-i >= 0 {
				pred += c * zExt[t-1-i]
			}
		}
		for j, c := range m.Theta {
			if t-1-j >= 0 {
				pred += c * eExt[t-1-j]
			}
		}
		zExt = append(zExt, pred)
		eExt = append(eExt, 0)
	}
	wFut := make([]float64, h)
	for i := 0; i < h; i++ {
		wFut[i] = zExt[len(z)+i] + m.Mu
	}
	var point []float64
	if m.Order.D == 0 {
		point = wFut
	} else {
		point, err = Integrate(wFut, history, m.Order.D)
		if err != nil {
			return nil, err
		}
	}

	psi := m.PsiWeights(h)
	sigma := make([]float64, h)
	var acc float64
	for i := 0; i < h; i++ {
		acc += psi[i] * psi[i]
		sigma[i] = math.Sqrt(m.Sigma2 * acc)
	}
	return &Forecast{Point: point, Sigma: sigma}, nil
}

// NewPredictor warms a predictor with an observation history on the
// original scale. The history must contain at least D+P+Q+1 observations.
func (m *Model) NewPredictor(history []float64) (*Predictor, error) {
	need := m.Order.D + m.Order.P + m.Order.Q + 1
	if len(history) < need {
		return nil, fmt.Errorf("arima: predictor needs >= %d warm-up observations, got %d", need, len(history))
	}
	w, err := Difference(history, m.Order.D)
	if err != nil {
		return nil, err
	}
	z := make([]float64, len(w))
	for i, v := range w {
		z[i] = v - m.Mu
	}
	resid := m.residualsZ(z)

	p := &Predictor{
		m:     m,
		yTail: make([]float64, m.Order.D),
		zLags: make([]float64, m.Order.P),
		eLags: make([]float64, m.Order.Q),
		diffC: diffPoly(m.Order.D),
		sigma: math.Sqrt(m.Sigma2),
	}
	copy(p.yTail, history[len(history)-m.Order.D:])
	for i := 0; i < m.Order.P; i++ {
		p.zLags[i] = z[len(z)-1-i]
	}
	for j := 0; j < m.Order.Q; j++ {
		p.eLags[j] = resid[len(resid)-1-j]
	}
	return p, nil
}

// Difference applies the differencing operator (1-B)^d to the series,
// returning a series shorter by d. d = 0 returns a copy.
func Difference(y []float64, d int) ([]float64, error) {
	if d < 0 {
		return nil, fmt.Errorf("arima: negative differencing order %d", d)
	}
	if len(y) <= d {
		return nil, fmt.Errorf("arima: series of length %d cannot be differenced %d times", len(y), d)
	}
	cur := make([]float64, len(y))
	copy(cur, y)
	for i := 0; i < d; i++ {
		next := make([]float64, len(cur)-1)
		for j := 1; j < len(cur); j++ {
			next[j-1] = cur[j] - cur[j-1]
		}
		cur = next
	}
	return cur, nil
}

// Integrate inverts Difference: given the d last values of the original
// series (tail, oldest first) and a differenced continuation, it rebuilds
// the original-scale continuation. It is the forecasting-time inverse used
// to map differenced-scale forecasts back to demand readings.
func Integrate(diffed []float64, tail []float64, d int) ([]float64, error) {
	if d < 0 {
		return nil, fmt.Errorf("arima: negative differencing order %d", d)
	}
	if len(tail) < d {
		return nil, fmt.Errorf("arima: need %d tail values to integrate, got %d", d, len(tail))
	}
	cur := make([]float64, len(diffed))
	copy(cur, diffed)
	// Undo one level of differencing at a time, innermost first. For level
	// k we need the last value of the (k-1)-times-differenced original
	// series, which we recompute from the tail.
	for level := d; level >= 1; level-- {
		// lastVal is the final value of the original series differenced
		// (level-1) times, computed over the supplied tail.
		base, err := Difference(tail, level-1)
		if err != nil {
			return nil, fmt.Errorf("arima: integrating level %d: %w", level, err)
		}
		last := base[len(base)-1]
		for i := range cur {
			last += cur[i]
			cur[i] = last
		}
	}
	return cur, nil
}
