package arima

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// TestForecastSigmaMonotoneProperty: forecast standard error never shrinks
// with horizon for any stationary fit.
func TestForecastSigmaMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.SplitRand(seed, 20)
		phi := 0.9 * (2*rng.Float64() - 1) // stationary AR(1)
		y := simulateARMA(rng, 600, rng.NormFloat64(), []float64{phi}, nil)
		m, err := Fit(y, Order{P: 1})
		if err != nil {
			return true // degenerate draws are out of scope
		}
		fc, err := m.ForecastFrom(y, 30)
		if err != nil {
			return false
		}
		for i := 1; i < len(fc.Sigma); i++ {
			if fc.Sigma[i]+1e-9 < fc.Sigma[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPsiVarianceMatchesForecastProperty: the h-step forecast variance must
// equal Sigma2 times the cumulative sum of squared psi weights.
func TestPsiVarianceMatchesForecastProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.SplitRand(seed, 21)
		phi := 0.8 * (2*rng.Float64() - 1)
		theta := 0.8 * (2*rng.Float64() - 1)
		y := simulateARMA(rng, 1500, 0, []float64{phi}, []float64{theta})
		m, err := Fit(y, Order{P: 1, Q: 1})
		if err != nil || m.Sigma2 == 0 {
			return true
		}
		const h = 12
		fc, err := m.ForecastFrom(y, h)
		if err != nil {
			return false
		}
		psi := m.PsiWeights(h)
		var acc float64
		for i := 0; i < h; i++ {
			acc += psi[i] * psi[i]
			want := math.Sqrt(m.Sigma2 * acc)
			if math.Abs(fc.Sigma[i]-want) > 1e-9*(1+want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPredictorForecastAgreementProperty: rolling one-step predictions must
// agree with fresh one-step forecasts at every position, for random orders.
func TestPredictorForecastAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.SplitRand(seed, 22)
		order := Order{P: 1 + rng.Intn(2), D: rng.Intn(2), Q: rng.Intn(2)}
		base := simulateARMA(rng, 900, 0.05, []float64{0.4}, nil)
		y := base
		if order.D == 1 {
			y = make([]float64, len(base))
			acc := 10.0
			for i, v := range base {
				acc += v
				y[i] = acc
			}
		}
		m, err := Fit(y, order)
		if err != nil {
			return true
		}
		p, err := m.NewPredictor(y[:800])
		if err != nil {
			return false
		}
		for i := 800; i < 820; i++ {
			point, _ := p.PredictNext()
			fc, err := m.ForecastFrom(y[:i], 1)
			if err != nil {
				return false
			}
			if math.Abs(point-fc.Point[0]) > 1e-6*(1+math.Abs(point)) {
				return false
			}
			p.Observe(y[i])
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestFitResidualVarianceProperty: the fitted innovation variance can never
// exceed the raw variance of the differenced series (the model cannot be
// worse than predicting the mean, up to estimation noise).
func TestFitResidualVarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.SplitRand(seed, 23)
		y := simulateARMA(rng, 1000, 1, []float64{0.6}, nil)
		m, err := Fit(y, Order{P: 1})
		if err != nil {
			return true
		}
		_, sd := stats.MeanStd(y)
		return m.Sigma2 <= sd*sd*1.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
