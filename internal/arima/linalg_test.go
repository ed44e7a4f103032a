package arima

import (
	"errors"
	"math"
	"testing"
)

func TestSolveLinearKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10  =>  x = 1, y = 3.
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := solveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("solution = %v, want [1 3]", x)
	}
}

func TestSolveLinearRequiresPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x, err := solveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Errorf("solution = %v, want [3 2]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := solveLinear(a, b); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveLinearBadDims(t *testing.T) {
	if _, err := solveLinear(nil, nil); err == nil {
		t.Error("empty system should error")
	}
	if _, err := solveLinear([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("non-square matrix should error")
	}
	if _, err := solveLinear([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("rhs dimension mismatch should error")
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// y = 3 + 2x fit with [1, x] design.
	x := [][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	y := []float64{3, 5, 7, 9}
	beta, err := NewWorkspace().leastSquaresWS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-3) > 1e-6 || math.Abs(beta[1]-2) > 1e-6 {
		t.Errorf("beta = %v, want [3 2]", beta)
	}
}

func TestLeastSquaresOverdeterminedNoise(t *testing.T) {
	// Noisy regression should recover coefficients approximately.
	n := 500
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		xi := float64(i) / 50
		x[i] = []float64{1, xi}
		// Deterministic pseudo-noise keeps the test reproducible.
		noise := 0.01 * math.Sin(float64(i)*12.9898)
		y[i] = 1.5 - 0.7*xi + noise
	}
	beta, err := NewWorkspace().leastSquaresWS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-1.5) > 0.01 || math.Abs(beta[1]+0.7) > 0.01 {
		t.Errorf("beta = %v, want approx [1.5 -0.7]", beta)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	ws := NewWorkspace()
	if _, err := ws.leastSquaresWS(nil, nil); err == nil {
		t.Error("empty design should error")
	}
	if _, err := ws.leastSquaresWS([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("row/target mismatch should error")
	}
	if _, err := ws.leastSquaresWS([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("underdetermined should error")
	}
	if _, err := ws.leastSquaresWS([][]float64{{}}, []float64{1}); err == nil {
		t.Error("zero-column design should error")
	}
	if _, err := ws.leastSquaresWS([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged design should error")
	}
}

func TestPolyMul(t *testing.T) {
	// (1 - B)(1 + B) = 1 - B^2.
	got := polyMul([]float64{1, -1}, []float64{1, 1})
	want := []float64{1, 0, -1}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-15 {
			t.Errorf("coef[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if polyMul(nil, []float64{1}) != nil {
		t.Error("empty polynomial should give nil")
	}
}

func TestDiffPoly(t *testing.T) {
	// (1-B)^2 = 1 - 2B + B^2.
	got := diffPoly(2)
	want := []float64{1, -2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diffPoly(2)[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if len(diffPoly(0)) != 1 || diffPoly(0)[0] != 1 {
		t.Error("diffPoly(0) should be [1]")
	}
}
