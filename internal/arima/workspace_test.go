package arima

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// synthSeries builds a deterministic weekly-seasonal series with noise, the
// same general shape as consumption data.
func synthSeries(n int, seed int64) []float64 {
	rng := stats.NewRand(seed)
	y := make([]float64, n)
	for i := range y {
		base := 1.5 + math.Sin(2*math.Pi*float64(i%336)/336) + 0.3*math.Sin(2*math.Pi*float64(i%48)/48)
		y[i] = math.Max(0, base+0.2*rng.NormFloat64())
	}
	return y
}

func modelsIdentical(t *testing.T, tag string, a, b *Model) {
	t.Helper()
	if a.Order != b.Order {
		t.Fatalf("%s: order %v vs %v", tag, a.Order, b.Order)
	}
	if a.Mu != b.Mu || a.Sigma2 != b.Sigma2 || a.LogLik != b.LogLik || a.N != b.N {
		t.Fatalf("%s: scalars differ: mu %v/%v sigma2 %v/%v loglik %v/%v n %d/%d",
			tag, a.Mu, b.Mu, a.Sigma2, b.Sigma2, a.LogLik, b.LogLik, a.N, b.N)
	}
	if len(a.Phi) != len(b.Phi) || len(a.Theta) != len(b.Theta) {
		t.Fatalf("%s: coefficient lengths differ", tag)
	}
	for i := range a.Phi {
		if math.Float64bits(a.Phi[i]) != math.Float64bits(b.Phi[i]) {
			t.Fatalf("%s: phi[%d] = %v vs %v", tag, i, a.Phi[i], b.Phi[i])
		}
	}
	for i := range a.Theta {
		if math.Float64bits(a.Theta[i]) != math.Float64bits(b.Theta[i]) {
			t.Fatalf("%s: theta[%d] = %v vs %v", tag, i, a.Theta[i], b.Theta[i])
		}
	}
}

// TestFitWSBitIdentical proves the workspace fit performs the exact
// arithmetic of the allocating reference fitter, order by order, both
// through Fit (a fresh workspace per call) and through FitTrained reusing
// one workspace across fits and series.
func TestFitWSBitIdentical(t *testing.T) {
	ws := NewWorkspace()
	for _, seed := range []int64{1, 2, 3} {
		y := synthSeries(8*336, seed)
		for _, o := range DefaultCandidates() {
			want, err1 := oracleFit(y, o)
			fresh, err2 := Fit(y, o)
			reused, err3 := FitTrained(y, o, ws)
			if (err1 == nil) != (err2 == nil) || (err1 == nil) != (err3 == nil) {
				t.Fatalf("seed %d %v: error mismatch: %v / %v / %v", seed, o, err1, err2, err3)
			}
			if err1 != nil {
				continue
			}
			modelsIdentical(t, o.String()+" fresh", want, fresh)
			modelsIdentical(t, o.String()+" reused", want, reused.Model)
		}
	}
}

// TestFitWSDegenerate covers the constant-series path: zero innovation
// variance, zeroed retained residuals.
func TestFitWSDegenerate(t *testing.T) {
	y := make([]float64, 4*336)
	for i := range y {
		y[i] = 2.5
	}
	ws := NewWorkspace()
	tf, err := FitTrained(y, Order{P: 1, D: 0, Q: 0}, ws)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Model.Sigma2 != 0 {
		t.Fatalf("constant series Sigma2 = %v, want 0", tf.Model.Sigma2)
	}
	want, err := oracleFit(y, Order{P: 1, D: 0, Q: 0})
	if err != nil {
		t.Fatal(err)
	}
	modelsIdentical(t, "degenerate", want, tf.Model)
	for i, r := range tf.resid {
		if r != 0 {
			t.Fatalf("degenerate resid[%d] = %v, want 0", i, r)
		}
	}
}

// TestSelectOrderWSBitIdentical proves workspace grid selection through
// one reused workspace (streaming reduction) matches the reference's
// independent fits and index-order reduction exactly.
func TestSelectOrderWSBitIdentical(t *testing.T) {
	ws := NewWorkspace()
	for _, seed := range []int64{10, 11, 12, 13, 14, 15, 16, 17} {
		y := synthSeries(8*336, seed)
		want, err1 := oracleSelectOrder(y, DefaultCandidates())
		got, err2 := SelectOrderTrained(y, DefaultCandidates(), ws)
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d: errors %v / %v", seed, err1, err2)
		}
		modelsIdentical(t, "select", want, got.Model)
	}
}

// TestPredictorAtMatchesNewPredictor proves a retained fit can place a
// predictor anywhere in the training series with state bit-identical to a
// cold NewPredictor over the same prefix: both are advanced over the
// remaining observations and must produce identical forecasts.
func TestPredictorAtMatchesNewPredictor(t *testing.T) {
	y := synthSeries(10*336, 42)
	ws := NewWorkspace()
	tf, err := SelectOrderTrained(y, DefaultCandidates(), ws)
	if err != nil {
		t.Fatal(err)
	}
	// Also exercise a D=1 model explicitly: PredictorAt must restore yTail.
	tfD1, err := FitTrained(y, Order{P: 1, D: 1, Q: 1}, ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []*TrainedFit{tfD1, nil} {
		if tc == nil {
			// Refit: tfD1's workspace state was invalidated by nothing, but
			// the selected fit's state was clobbered by the D=1 fit above, so
			// rebuild it before use.
			tf, err = SelectOrderTrained(y, DefaultCandidates(), ws)
			if err != nil {
				t.Fatal(err)
			}
			tc = tf
		}
		for _, cut := range []int{4 * 336, 7 * 336, len(y)} {
			fast, err := tc.PredictorAt(cut)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := tc.Model.NewPredictor(y[:cut])
			if err != nil {
				t.Fatal(err)
			}
			for i := cut; i < len(y) && i < cut+2*336; i++ {
				fp, fs := fast.PredictNext()
				cp, cs := cold.PredictNext()
				if math.Float64bits(fp) != math.Float64bits(cp) || math.Float64bits(fs) != math.Float64bits(cs) {
					t.Fatalf("%v cut %d step %d: forecast %v±%v vs %v±%v",
						tc.Model.Order, cut, i-cut, fp, fs, cp, cs)
				}
				fast.Observe(y[i])
				cold.Observe(y[i])
			}
		}
	}
}

// TestPredictorAtBounds rejects positions outside the valid range.
func TestPredictorAtBounds(t *testing.T) {
	y := synthSeries(4*336, 7)
	ws := NewWorkspace()
	tf, err := FitTrained(y, Order{P: 2, D: 1, Q: 1}, ws)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tf.PredictorAt(3); err == nil {
		t.Error("PredictorAt(3) should fail for ARIMA(2,1,1)")
	}
	if _, err := tf.PredictorAt(len(y) + 1); err == nil {
		t.Error("PredictorAt(len+1) should fail")
	}
	if _, err := tf.PredictorAt(len(y)); err != nil {
		t.Errorf("PredictorAt(len) = %v", err)
	}
}

// TestSelectOrderWarm covers the warm-start decision rule: a good warm
// order is accepted with the grid skipped, a hostile warm order falls back
// to the full grid, and the fallback is bit-identical to cold selection.
func TestSelectOrderWarm(t *testing.T) {
	ws := NewWorkspace()
	y := synthSeries(8*336, 99)
	cold, err := oracleSelectOrder(y, DefaultCandidates())
	if err != nil {
		t.Fatal(err)
	}

	// Warm order = the true winner: must be accepted.
	tf, sel, err := SelectOrderWarmTrained(y, DefaultCandidates(), cold.Order, 2.0, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.WarmAccepted {
		t.Fatalf("true winner %v not warm-accepted", cold.Order)
	}
	if sel.FitsSkipped != len(DefaultCandidates())-2 {
		t.Errorf("FitsSkipped = %d, want %d", sel.FitsSkipped, len(DefaultCandidates())-2)
	}
	modelsIdentical(t, "warm-hit", cold, tf.Model)

	// Invalid warm order: full grid, bit-identical to cold selection.
	tf, sel, err = SelectOrderWarmTrained(y, DefaultCandidates(), Order{}, 2.0, ws)
	if err != nil {
		t.Fatal(err)
	}
	if sel.WarmAccepted {
		t.Error("invalid warm order must not be accepted")
	}
	modelsIdentical(t, "warm-fallback", cold, tf.Model)

	// Negative margin disables screening: any successful warm fit accepted.
	other := Order{P: 1, D: 0, Q: 0}
	tf, sel, err = SelectOrderWarmTrained(y, DefaultCandidates(), other, -1, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.WarmAccepted || tf.Model.Order != other {
		t.Errorf("unscreened warm start: accepted=%v order=%v", sel.WarmAccepted, tf.Model.Order)
	}
	if sel.FitsSkipped != len(DefaultCandidates())-1 {
		t.Errorf("unscreened FitsSkipped = %d, want %d", sel.FitsSkipped, len(DefaultCandidates())-1)
	}
	wantWarm, err := oracleFit(y, other)
	if err != nil {
		t.Fatal(err)
	}
	modelsIdentical(t, "warm-forced", wantWarm, tf.Model)
}

// TestWorkspaceAllocsSteadyState: after warm-up, a workspace grid selection
// allocates only the returned models (no per-fit buffer churn).
func TestWorkspaceAllocsSteadyState(t *testing.T) {
	y := synthSeries(8*336, 5)
	ws := NewWorkspace()
	if _, err := SelectOrderTrained(y, DefaultCandidates(), ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := SelectOrderTrained(y, DefaultCandidates(), ws); err != nil {
			t.Fatal(err)
		}
	})
	// The surviving allocations are the Model structs, their coefficient
	// slices (clamp copies), and the TrainedFit wrappers — all outputs, all
	// O(candidates). Anything near a fresh workspace's count means a
	// buffer failed to stick.
	if allocs > 60 {
		t.Errorf("SelectOrderTrained allocates %.0f objects per run; scratch is not being reused", allocs)
	}
}
