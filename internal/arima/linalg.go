package arima

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular indicates a linear system whose matrix is (numerically)
// singular and cannot be solved.
var ErrSingular = errors.New("arima: singular matrix")

// solveLinear solves A x = b in place using Gaussian elimination with
// partial pivoting. A is row-major n×n and is destroyed; b is destroyed and
// returned as the solution.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("arima: bad system dimensions (%d equations, %d rhs)", n, len(b))
	}
	for _, row := range a {
		if len(row) != n {
			return nil, fmt.Errorf("arima: matrix is not square")
		}
	}
	for col := 0; col < n; col++ {
		// Partial pivot: find the largest magnitude entry in this column.
		pivot := col
		maxAbs := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(a[r][col]); abs > maxAbs {
				maxAbs = abs
				pivot = r
			}
		}
		if maxAbs < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			a[col], a[pivot] = a[pivot], a[col]
			b[col], b[pivot] = b[pivot], b[col]
		}
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			factor := a[r][col] * inv
			if factor == 0 {
				continue
			}
			a[r][col] = 0
			for c := col + 1; c < n; c++ {
				a[r][c] -= factor * a[col][c]
			}
			b[r] -= factor * b[col]
		}
	}
	// Back substitution.
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * b[c]
		}
		b[r] = sum / a[r][r]
	}
	return b, nil
}

// polyMul multiplies two polynomials in the backshift operator B given by
// their coefficient slices (index = power of B, including the constant).
func polyMul(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]float64, len(a)+len(b)-1)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			out[i+j] += ai * bj
		}
	}
	return out
}

// diffPoly returns the coefficients of (1-B)^d.
func diffPoly(d int) []float64 {
	poly := []float64{1}
	for i := 0; i < d; i++ {
		poly = polyMul(poly, []float64{1, -1})
	}
	return poly
}
