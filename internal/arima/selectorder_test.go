package arima

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/stats"
)

// selectSeries builds a deterministic AR(2)-flavoured series long enough for
// every default candidate order.
func selectSeries(n int) []float64 {
	y := make([]float64, n)
	y[0], y[1] = 5, 5.2
	state := uint64(2016)
	for t := 2; t < n; t++ {
		state = state*6364136223846793005 + 1442695040888963407
		noise := float64(state>>11)/float64(1<<53) - 0.5
		y[t] = 5 + 0.6*(y[t-1]-5) - 0.3*(y[t-2]-5) + 0.4*noise + 0.5*math.Sin(float64(t)/7)
	}
	return y
}

// TestSelectOrderMatchesSerial checks SelectOrder, whose candidate loop
// shares one workspace and reduces as it goes, against the reference's
// independent allocating fits reduced serially in index order.
func TestSelectOrderMatchesSerial(t *testing.T) {
	for _, n := range []int{120, 500, 2000} {
		y := selectSeries(n)
		got, err := SelectOrder(y, DefaultCandidates())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want, err := oracleSelectOrder(y, DefaultCandidates())
		if err != nil {
			t.Fatalf("n=%d serial: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: selection %+v != serial reference %+v", n, got, want)
		}
	}
}

func TestSelectOrderSkipsInvalidCandidates(t *testing.T) {
	y := selectSeries(300)
	cands := []Order{
		{P: -1, D: 0, Q: 0}, // invalid
		{P: 0, D: 0, Q: 0},  // degenerate order
		{P: 2, D: 0, Q: 0},
	}
	got, err := SelectOrder(y, cands)
	if err != nil {
		t.Fatal(err)
	}
	if got.Order != (Order{P: 2, D: 0, Q: 0}) {
		t.Errorf("selected %v, want ARIMA(2,0,0)", got.Order)
	}
}

func TestSelectOrderAllInvalid(t *testing.T) {
	y := selectSeries(300)
	if _, err := SelectOrder(y, []Order{{P: -1}}); err == nil {
		t.Error("all-invalid candidate set should error")
	}
}

// TestFitDoesNotMutateInput: the workspace differences a copy, so Fit and
// SelectOrder never write into the caller's series.
func TestFitDoesNotMutateInput(t *testing.T) {
	y := selectSeries(300)
	orig := append([]float64(nil), y...)
	if _, err := Fit(y, Order{P: 1, D: 1, Q: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := SelectOrder(y, DefaultCandidates()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(y, orig) {
		t.Error("input series was mutated")
	}
}

// TestSelectOrderTieBreak pins the candidate loop's reduction: a later
// candidate replaces the running best only with a strictly lower AIC, so an
// AIC race is decided by grid order, never by a margin. The population
// trainer's suites are bit-identical to the reference only under this rule.
func TestSelectOrderTieBreak(t *testing.T) {
	// Near tie: on this AR(1) draw, ARIMA(2,0,0) lands 0.1 AIC above
	// ARIMA(1,0,0), so any "within a margin" rule would pick it.
	y := simulateARMA(stats.NewRand(2), 400, 2, []float64{0.5}, nil)
	ar1, ar2 := Order{P: 1}, Order{P: 2}
	m1, err := oracleFit(y, ar1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := oracleFit(y, ar2)
	if err != nil {
		t.Fatal(err)
	}
	if gap := m2.AIC() - m1.AIC(); !(gap > 0 && gap <= 1) {
		t.Fatalf("fixture drifted: AIC gap %v, want in (0, 1]", gap)
	}
	got, err := SelectOrder(y, []Order{ar1, ar2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Order != ar1 {
		t.Errorf("near tie: selected %v, want the earlier, lower-AIC %v", got.Order, ar1)
	}

	// Exact tie: the grid lists ARIMA(1,0,0) twice around the worse ARIMA(2,0,0).
	// Both visits fit the same model, so only the retained state tells them
	// apart: the first visit's residuals go into the buffer ws.resid holds
	// on entry, and the second visit writes into the other one.
	ws := NewWorkspace()
	first := make([]float64, len(y))
	ws.resid = first
	tf, err := SelectOrderTrained(y, []Order{ar1, ar2, ar1}, ws)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Model.Order != ar1 {
		t.Fatalf("exact tie: selected %v, want %v", tf.Model.Order, ar1)
	}
	if &tf.resid[0] != &first[0] {
		t.Error("exact tie: the later duplicate replaced the first-listed winner")
	}
}
