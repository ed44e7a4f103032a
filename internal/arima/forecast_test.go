package arima

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestPsiWeightsAR1(t *testing.T) {
	m := &Model{Order: Order{P: 1, D: 0, Q: 0}, Phi: []float64{0.5}, Theta: nil, Sigma2: 1}
	psi := m.PsiWeights(5)
	want := []float64{1, 0.5, 0.25, 0.125, 0.0625}
	for i := range want {
		if math.Abs(psi[i]-want[i]) > 1e-12 {
			t.Errorf("psi[%d] = %g, want %g", i, psi[i], want[i])
		}
	}
	if m.PsiWeights(0) != nil {
		t.Error("nonpositive n should give nil")
	}
}

func TestPsiWeightsMA1(t *testing.T) {
	m := &Model{Order: Order{P: 0, D: 0, Q: 1}, Theta: []float64{0.7}, Sigma2: 1}
	psi := m.PsiWeights(4)
	want := []float64{1, 0.7, 0, 0}
	for i := range want {
		if math.Abs(psi[i]-want[i]) > 1e-12 {
			t.Errorf("psi[%d] = %g, want %g", i, psi[i], want[i])
		}
	}
}

func TestPsiWeightsIntegrated(t *testing.T) {
	// ARIMA(0,1,0): psi_j = 1 for all j (random walk).
	m := &Model{Order: Order{P: 0, D: 1, Q: 0}, Sigma2: 1}
	psi := m.PsiWeights(6)
	for i, v := range psi {
		if math.Abs(v-1) > 1e-12 {
			t.Errorf("psi[%d] = %g, want 1", i, v)
		}
	}
}

func TestForecastAR1ConvergesToMean(t *testing.T) {
	rng := stats.NewRand(201)
	y := simulateARMA(rng, 2000, 10, []float64{0.6}, nil)
	m, err := Fit(y, Order{P: 1, D: 0, Q: 0})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.ForecastFrom(y, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Long-horizon forecast approaches the process mean.
	if math.Abs(fc.Point[49]-10) > 0.5 {
		t.Errorf("long-horizon forecast = %g, want ~10", fc.Point[49])
	}
	// Forecast sigma grows with horizon and converges to process stddev.
	if fc.Sigma[0] >= fc.Sigma[10] {
		t.Error("forecast uncertainty should grow with horizon")
	}
	limit := math.Sqrt(m.Sigma2 / (1 - m.Phi[0]*m.Phi[0]))
	if math.Abs(fc.Sigma[49]-limit) > 0.1*limit {
		t.Errorf("sigma[49] = %g, want ~%g", fc.Sigma[49], limit)
	}
}

func TestForecastRandomWalkSigmaGrowth(t *testing.T) {
	rng := stats.NewRand(202)
	y := make([]float64, 500)
	acc := 0.0
	for i := range y {
		acc += rng.NormFloat64()
		y[i] = acc
	}
	m, err := Fit(y, Order{P: 1, D: 1, Q: 0})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.ForecastFrom(y, 25)
	if err != nil {
		t.Fatal(err)
	}
	// Random-walk forecast sigma grows roughly like sqrt(h).
	ratio := fc.Sigma[24] / fc.Sigma[0]
	if ratio < 3 || ratio > 8 {
		t.Errorf("sigma growth ratio = %g, want ~5 for a random walk", ratio)
	}
}

func TestForecastInterval(t *testing.T) {
	fc := &Forecast{Point: []float64{10}, Sigma: []float64{2}}
	lo, hi := fc.Interval(0.95, 0)
	wantHalf := 1.959963984540054 * 2
	if math.Abs(lo-(10-wantHalf)) > 1e-6 || math.Abs(hi-(10+wantHalf)) > 1e-6 {
		t.Errorf("interval = [%g, %g]", lo, hi)
	}
	if lo, _ := fc.Interval(0.95, 5); !math.IsNaN(lo) {
		t.Error("out-of-range horizon should give NaN")
	}
	if lo, _ := fc.Interval(0, 0); !math.IsNaN(lo) {
		t.Error("invalid level should give NaN")
	}
}

func TestForecastErrors(t *testing.T) {
	m := &Model{Order: Order{P: 1, D: 0, Q: 0}, Phi: []float64{0.5}, Sigma2: 1}
	if _, err := m.ForecastFrom([]float64{1, 2, 3}, 0); err == nil {
		t.Error("zero horizon should error")
	}
	if _, err := m.ForecastFrom(nil, 1); err == nil {
		t.Error("empty history should error")
	}
}

func TestPredictorMatchesForecastOneStep(t *testing.T) {
	rng := stats.NewRand(203)
	y := simulateARMA(rng, 1500, 3, []float64{0.5, 0.2}, []float64{0.3})
	m, err := Fit(y, Order{P: 2, D: 0, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	hist := y[:1000]
	p, err := m.NewPredictor(hist)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1000; i < 1100; i++ {
		point, sigma := p.PredictNext()
		fc, err := m.ForecastFrom(y[:i], 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(point-fc.Point[0]) > 1e-6 {
			t.Fatalf("step %d: predictor %g vs forecast %g", i, point, fc.Point[0])
		}
		if math.Abs(sigma-fc.Sigma[0]) > 1e-9 {
			t.Fatalf("step %d: sigma %g vs %g", i, sigma, fc.Sigma[0])
		}
		p.Observe(y[i])
	}
}

func TestPredictorIntegratedMatchesForecast(t *testing.T) {
	rng := stats.NewRand(204)
	inc := simulateARMA(rng, 800, 0.05, []float64{0.4}, nil)
	y := make([]float64, len(inc))
	acc := 50.0
	for i, v := range inc {
		acc += v
		y[i] = acc
	}
	m, err := Fit(y, Order{P: 1, D: 1, Q: 0})
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.NewPredictor(y[:500])
	if err != nil {
		t.Fatal(err)
	}
	for i := 500; i < 560; i++ {
		point, _ := p.PredictNext()
		fc, err := m.ForecastFrom(y[:i], 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(point-fc.Point[0]) > 1e-6 {
			t.Fatalf("step %d: predictor %g vs forecast %g", i, point, fc.Point[0])
		}
		p.Observe(y[i])
	}
}

func TestPredictorWarmupTooShort(t *testing.T) {
	m := &Model{Order: Order{P: 2, D: 1, Q: 1}, Phi: []float64{0.1, 0.1}, Theta: []float64{0.1}, Sigma2: 1}
	if _, err := m.NewPredictor([]float64{1, 2}); err == nil {
		t.Error("insufficient warm-up should error")
	}
}

func TestPredictorOneStepAccuracy(t *testing.T) {
	// One-step predictions on an AR(1) should beat the naive mean forecast.
	rng := stats.NewRand(205)
	y := simulateARMA(rng, 3000, 0, []float64{0.8}, nil)
	m, err := Fit(y, Order{P: 1, D: 0, Q: 0})
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.NewPredictor(y[:2000])
	if err != nil {
		t.Fatal(err)
	}
	var sseModel, sseMean float64
	for i := 2000; i < 3000; i++ {
		point, _ := p.PredictNext()
		d := y[i] - point
		sseModel += d * d
		sseMean += y[i] * y[i] // true mean is 0
		p.Observe(y[i])
	}
	if sseModel >= sseMean {
		t.Errorf("model SSE %g should beat mean-forecast SSE %g", sseModel, sseMean)
	}
	// Innovation variance of AR(1) with phi=0.8, sigma2=1: one-step MSE ~1.
	mse := sseModel / 1000
	if mse > 1.3 {
		t.Errorf("one-step MSE = %g, want ~1", mse)
	}
}

func TestPredictorSigmaAccessor(t *testing.T) {
	m := &Model{Order: Order{P: 1, D: 0, Q: 0}, Phi: []float64{0.5}, Sigma2: 4}
	hist := make([]float64, 10)
	for i := range hist {
		hist[i] = float64(i % 3)
	}
	p, err := m.NewPredictor(hist)
	if err != nil {
		t.Fatal(err)
	}
	if _, sigma := p.PredictNext(); sigma != 2 {
		t.Errorf("one-step sigma = %g, want 2", sigma)
	}
}
