package arima

// Predictor performs rolling one-step-ahead prediction with O(P+Q) work per
// step. The utility-side detectors and the attacker's replica both advance a
// Predictor over the reported readings, so a poisoned history shifts the
// confidence band exactly as the paper describes.
type Predictor struct {
	m *Model

	// yTail holds the last D original-scale observations (oldest first),
	// needed to difference the next observation and to integrate forecasts.
	yTail []float64
	// zLags holds the last P mean-adjusted differenced values, newest first.
	zLags []float64
	// eLags holds the last Q innovations, newest first.
	eLags []float64
	// diffC caches the coefficients of (1-B)^D; shared between clones
	// (read-only after construction).
	diffC []float64

	lastPred float64 // z-scale prediction for the next step
	havePred bool
	sigma    float64
}

// Clone returns an independent predictor with identical rolling state. The
// copy is O(P+Q+D) — far cheaper than re-warming a predictor over the full
// history — and advances separately from the original, so detectors warm one
// predictor on the training series at construction and clone it per
// detection pass (and attackers clone it per trial).
func (p *Predictor) Clone() *Predictor {
	q := *p
	q.yTail = append([]float64(nil), p.yTail...)
	q.zLags = append([]float64(nil), p.zLags...)
	q.eLags = append([]float64(nil), p.eLags...)
	return &q
}

// PredictNext returns the one-step-ahead point forecast and its standard
// error on the original scale.
func (p *Predictor) PredictNext() (point, sigma float64) {
	var zPred float64
	for i, c := range p.m.Phi {
		zPred += c * p.zLags[i]
	}
	for j, c := range p.m.Theta {
		zPred += c * p.eLags[j]
	}
	p.lastPred = zPred
	p.havePred = true

	w := zPred + p.m.Mu
	return p.integrateOne(w), p.sigma
}

// integrateOne maps a differenced-scale value to the original scale using
// the stored tail.
func (p *Predictor) integrateOne(w float64) float64 {
	d := p.m.Order.D
	if d == 0 {
		return w
	}
	// y_t = w_t - Σ_{k=1..d} c_k y_{t-k}, with c = coefficients of (1-B)^d.
	c := p.diffC
	y := w
	for k := 1; k <= d; k++ {
		y -= c[k] * p.yTail[len(p.yTail)-k]
	}
	return y
}

// Observe advances the predictor with the actual (reported) observation on
// the original scale, updating lag and innovation state.
func (p *Predictor) Observe(y float64) {
	d := p.m.Order.D
	// Differenced value of the new observation.
	w := y
	if d > 0 {
		c := p.diffC
		for k := 1; k <= d; k++ {
			w += c[k] * p.yTail[len(p.yTail)-k]
		}
	}
	z := w - p.m.Mu

	var e float64
	if p.havePred {
		e = z - p.lastPred
	}
	p.havePred = false

	// Shift lags (newest first).
	if len(p.zLags) > 0 {
		copy(p.zLags[1:], p.zLags)
		p.zLags[0] = z
	}
	if len(p.eLags) > 0 {
		copy(p.eLags[1:], p.eLags)
		p.eLags[0] = e
	}
	if d > 0 {
		copy(p.yTail, p.yTail[1:])
		p.yTail[len(p.yTail)-1] = y
	}
}
