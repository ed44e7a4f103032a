package arima

import (
	"fmt"
	"math"
)

// SeasonalOrder specifies a multiplicative seasonal ARIMA
// (p,d,q)×(P,D,Q)_s model. The seasonal polynomial multiplies the
// non-seasonal one: Φ(B^s) φ(B) (1-B)^d (1-B^s)^D y_t = Θ(B^s) θ(B) e_t.
// Electricity consumption has strong daily (s=48) and weekly (s=336)
// seasonality, which plain low-order ARIMA leaves in the residuals.
type SeasonalOrder struct {
	Order
	// PS, DS, QS are the seasonal AR, differencing, and MA orders.
	PS int
	DS int
	QS int
	// Season is the seasonal period in slots (48 = daily, 336 = weekly).
	Season int
}

// Validate checks the seasonal order.
func (o SeasonalOrder) Validate() error {
	if err := o.Order.Validate(); err != nil {
		// A pure seasonal model with zero non-seasonal part is legal.
		if o.PS == 0 && o.QS == 0 && o.DS == 0 {
			return err
		}
	}
	if o.PS < 0 || o.DS < 0 || o.QS < 0 {
		return fmt.Errorf("arima: negative seasonal order in %+v", o)
	}
	if o.PS > 4 || o.QS > 4 || o.DS > 1 {
		return fmt.Errorf("arima: seasonal order (%d,%d,%d) beyond supported range", o.PS, o.DS, o.QS)
	}
	if (o.PS > 0 || o.DS > 0 || o.QS > 0) && o.Season < 2 {
		return fmt.Errorf("arima: seasonal terms require season >= 2, got %d", o.Season)
	}
	return nil
}

// String renders the order in standard notation.
func (o SeasonalOrder) String() string {
	return fmt.Sprintf("ARIMA(%d,%d,%d)(%d,%d,%d)[%d]",
		o.P, o.D, o.Q, o.PS, o.DS, o.QS, o.Season)
}

// SeasonalModel is a fitted seasonal ARIMA model. Internally the seasonal
// and non-seasonal lag polynomials are expanded into a single pair of long
// AR/MA polynomials, so forecasting reuses the non-seasonal machinery.
type SeasonalModel struct {
	SOrder SeasonalOrder
	// Phi/Theta are the non-seasonal coefficients; PhiS/ThetaS seasonal.
	Phi    []float64
	Theta  []float64
	PhiS   []float64
	ThetaS []float64
	Mu     float64
	Sigma2 float64
	N      int

	// expanded holds the single-polynomial equivalent model used for
	// residuals and forecasting.
	expanded *Model
}

// expandPoly merges a non-seasonal coefficient slice c (lags 1..k) and a
// seasonal slice cs (seasonal lags 1..K at period s) into the combined lag
// polynomial coefficients: (1 - Σ c_i B^i)(1 - Σ cs_j B^{js}) expanded,
// returned as coefficient-per-lag (index 0 = lag 1).
func expandPoly(c, cs []float64, season int) []float64 {
	a := make([]float64, len(c)+1)
	a[0] = 1
	for i, v := range c {
		a[i+1] = -v
	}
	b := make([]float64, len(cs)*season+1)
	b[0] = 1
	for j, v := range cs {
		b[(j+1)*season] = -v
	}
	prod := polyMul(a, b)
	out := make([]float64, len(prod)-1)
	for i := 1; i < len(prod); i++ {
		out[i-1] = -prod[i]
	}
	return out
}

// FitSeasonal estimates a seasonal ARIMA model: seasonal and regular
// differencing first, then a Hannan-Rissanen-style regression on both
// regular and seasonal lags of the series and estimated innovations.
func FitSeasonal(y []float64, order SeasonalOrder) (*SeasonalModel, error) {
	if err := order.Validate(); err != nil {
		return nil, err
	}
	w := make([]float64, len(y))
	copy(w, y)
	var err error
	for i := 0; i < order.DS; i++ {
		w, err = SeasonalDifference(w, order.Season)
		if err != nil {
			return nil, err
		}
	}
	w, err = Difference(w, order.D)
	if err != nil {
		return nil, err
	}
	maxLag := order.P + order.PS*order.Season
	maxMALag := order.Q + order.QS*order.Season
	minN := 2*(maxLag+maxMALag) + 30
	if len(w) < minN {
		return nil, fmt.Errorf("arima: %d observations after differencing; need >= %d for %v",
			len(w), minN, order)
	}

	var mu float64
	for _, v := range w {
		mu += v
	}
	mu /= float64(len(w))
	z := make([]float64, len(w))
	allZero := true
	for i, v := range w {
		z[i] = v - mu
		if z[i] != 0 {
			allZero = false
		}
	}
	m := &SeasonalModel{SOrder: order, Mu: mu, N: len(w)}
	if allZero {
		m.Phi = make([]float64, order.P)
		m.Theta = make([]float64, order.Q)
		m.PhiS = make([]float64, order.PS)
		m.ThetaS = make([]float64, order.QS)
		return m, m.buildExpanded()
	}

	// Innovation estimates from a long AR.
	longP := maxLag + maxMALag + order.Season/4 + 5
	if maxP := len(z)/4 - 1; longP > maxP {
		longP = maxP
	}
	if longP < maxLag+maxMALag {
		longP = maxLag + maxMALag
	}
	ws := NewWorkspace()
	var eHat []float64
	if order.Q > 0 || order.QS > 0 {
		longAR, err := ws.yuleWalkerWS(z, longP)
		if err != nil {
			return nil, err
		}
		eHat = make([]float64, len(z))
		arResidualsInto(eHat, z, longAR)
	}

	// Regression design: non-seasonal AR lags, seasonal AR lags,
	// non-seasonal MA lags, seasonal MA lags.
	start := maxLag
	if s := maxMALag + longP; eHat != nil && s > start {
		start = s
	}
	rows := len(z) - start
	cols := order.P + order.PS + order.Q + order.QS
	if cols == 0 {
		return nil, fmt.Errorf("arima: seasonal model has no coefficients to estimate")
	}
	if rows < cols+5 {
		return nil, fmt.Errorf("arima: insufficient data for seasonal regression (%d rows, %d cols)", rows, cols)
	}
	design := make([][]float64, rows)
	target := make([]float64, rows)
	for r := 0; r < rows; r++ {
		t := start + r
		row := make([]float64, cols)
		idx := 0
		for i := 1; i <= order.P; i++ {
			row[idx] = z[t-i]
			idx++
		}
		for j := 1; j <= order.PS; j++ {
			row[idx] = z[t-j*order.Season]
			idx++
		}
		for i := 1; i <= order.Q; i++ {
			row[idx] = eHat[t-i]
			idx++
		}
		for j := 1; j <= order.QS; j++ {
			row[idx] = eHat[t-j*order.Season]
			idx++
		}
		design[r] = row
		target[r] = z[t]
	}
	beta, err := ws.leastSquaresWS(design, target)
	if err != nil {
		return nil, fmt.Errorf("arima: seasonal regression: %w", err)
	}
	idx := 0
	take := func(n int) []float64 {
		out := clampStationary(beta[idx : idx+n])
		idx += n
		return out
	}
	m.Phi = take(order.P)
	m.PhiS = take(order.PS)
	m.Theta = take(order.Q)
	m.ThetaS = take(order.QS)
	if err := m.buildExpanded(); err != nil {
		return nil, err
	}

	// Innovation variance via the expanded model's conditional residuals.
	resid := m.expanded.residualsZ(z)
	warm := maxLag + maxMALag
	var ss float64
	cnt := 0
	for t := warm; t < len(resid); t++ {
		ss += resid[t] * resid[t]
		cnt++
	}
	if cnt > 0 {
		m.Sigma2 = ss / float64(cnt)
		m.expanded.Sigma2 = m.Sigma2
	}
	return m, nil
}

// buildExpanded constructs the single-polynomial equivalent model.
func (m *SeasonalModel) buildExpanded() error {
	phi := expandPoly(m.Phi, m.PhiS, m.SOrder.Season)
	theta := expandThetaPoly(m.Theta, m.ThetaS, m.SOrder.Season)
	m.expanded = &Model{
		Order: Order{
			P: len(phi),
			// Differencing is handled explicitly by the seasonal wrapper,
			// so the expanded model is applied to the differenced series.
			D: 0,
			Q: len(theta),
		},
		Phi:    phi,
		Theta:  theta,
		Mu:     m.Mu,
		Sigma2: m.Sigma2,
		N:      m.N,
	}
	return nil
}

// expandThetaPoly merges MA polynomials, which multiply with + signs:
// (1 + Σ θ_i B^i)(1 + Σ Θ_j B^{js}).
func expandThetaPoly(c, cs []float64, season int) []float64 {
	a := make([]float64, len(c)+1)
	a[0] = 1
	copy(a[1:], c)
	b := make([]float64, len(cs)*season+1)
	b[0] = 1
	for j, v := range cs {
		b[(j+1)*season] = v
	}
	prod := polyMul(a, b)
	return prod[1:]
}

// ForecastFrom produces h-step forecasts on the original scale, undoing
// regular and seasonal differencing.
func (m *SeasonalModel) ForecastFrom(history []float64, h int) (*Forecast, error) {
	if h <= 0 {
		return nil, fmt.Errorf("arima: forecast horizon must be positive, got %d", h)
	}
	o := m.SOrder
	need := o.DS*o.Season + o.D + m.expanded.Order.P + m.expanded.Order.Q + 1
	if len(history) < need {
		return nil, fmt.Errorf("arima: history of %d too short for %v (need >= %d)", len(history), o, need)
	}
	// Difference: seasonal first, then regular (order is irrelevant
	// algebraically; match FitSeasonal).
	w := make([]float64, len(history))
	copy(w, history)
	var err error
	for i := 0; i < o.DS; i++ {
		w, err = SeasonalDifference(w, o.Season)
		if err != nil {
			return nil, err
		}
	}
	w, err = Difference(w, o.D)
	if err != nil {
		return nil, err
	}

	// Forecast on the differenced scale with the expanded ARMA.
	fc, err := m.expanded.ForecastFrom(w, h)
	if err != nil {
		return nil, err
	}

	// Undo regular differencing.
	point := fc.Point
	if o.D > 0 {
		// Tail of the seasonally-differenced (but not regularly
		// differenced) series.
		sd := make([]float64, len(history))
		copy(sd, history)
		for i := 0; i < o.DS; i++ {
			sd, err = SeasonalDifference(sd, o.Season)
			if err != nil {
				return nil, err
			}
		}
		point, err = Integrate(point, sd, o.D)
		if err != nil {
			return nil, err
		}
	}
	// Undo seasonal differencing: y_t = w_t + y_{t-s}, recursively.
	if o.DS > 0 {
		// Only DS=1 is supported (validated); rebuild against the original
		// history tail.
		out := make([]float64, h)
		for i := 0; i < h; i++ {
			var prev float64
			backIdx := len(history) + i - o.Season
			if backIdx < len(history) {
				prev = history[backIdx]
			} else {
				prev = out[backIdx-len(history)]
			}
			out[i] = point[i] + prev
		}
		point = out
	}

	// Forecast sigma: the differenced-scale psi weights understate the
	// integrated variance; fold the differencing into the psi recursion by
	// building the full effective AR polynomial.
	sigma := make([]float64, h)
	psi := m.psiWeightsIntegrated(h)
	var acc float64
	for i := 0; i < h; i++ {
		acc += psi[i] * psi[i]
		sigma[i] = math.Sqrt(m.Sigma2 * acc)
	}
	return &Forecast{Point: point, Sigma: sigma}, nil
}

// psiWeightsIntegrated computes psi weights including both regular and
// seasonal differencing operators.
func (m *SeasonalModel) psiWeightsIntegrated(n int) []float64 {
	if n <= 0 {
		return nil
	}
	o := m.SOrder
	// AR side: expanded phi, (1-B)^d, (1-B^s)^D all multiplied.
	phiPoly := make([]float64, len(m.expanded.Phi)+1)
	phiPoly[0] = 1
	for i, c := range m.expanded.Phi {
		phiPoly[i+1] = -c
	}
	full := polyMul(phiPoly, diffPoly(o.D))
	for i := 0; i < o.DS; i++ {
		seasonal := make([]float64, o.Season+1)
		seasonal[0] = 1
		seasonal[o.Season] = -1
		full = polyMul(full, seasonal)
	}
	phiStar := make([]float64, len(full)-1)
	for i := 1; i < len(full); i++ {
		phiStar[i-1] = -full[i]
	}
	psi := make([]float64, n)
	psi[0] = 1
	for j := 1; j < n; j++ {
		var v float64
		if j-1 < len(m.expanded.Theta) {
			v = m.expanded.Theta[j-1]
		}
		for i := 1; i <= j && i <= len(phiStar); i++ {
			v += phiStar[i-1] * psi[j-i]
		}
		psi[j] = v
	}
	return psi
}

// AIC returns Akaike's information criterion for the seasonal fit.
func (m *SeasonalModel) AIC() float64 {
	k := float64(len(m.Phi) + len(m.PhiS) + len(m.Theta) + len(m.ThetaS) + 2)
	if m.Sigma2 <= 0 {
		return math.Inf(-1)
	}
	n := float64(m.N)
	logLik := -0.5 * n * (math.Log(2*math.Pi*m.Sigma2) + 1)
	return 2*k - 2*logLik
}
