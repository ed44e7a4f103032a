package arima

import (
	"fmt"
	"math"
)

// This file keeps the allocating Hannan-Rissanen fitter as a readable
// reference. Production fits run through the Workspace (fitCandidateWS and
// its helpers); these functions allocate every intermediate buffer instead,
// and the tests check the workspace path against them bit for bit.

// yuleWalker fits AR(p) coefficients to a zero-mean series via the
// Yule-Walker equations built from sample autocovariances.
func yuleWalker(w []float64, p int) ([]float64, error) {
	n := len(w)
	if p <= 0 || n <= p {
		return nil, fmt.Errorf("arima: cannot fit AR(%d) to %d observations", p, n)
	}
	// Biased autocovariances gamma_0..gamma_p.
	gamma := make([]float64, p+1)
	for lag := 0; lag <= p; lag++ {
		var s float64
		for i := 0; i+lag < n; i++ {
			s += w[i] * w[i+lag]
		}
		gamma[lag] = s / float64(n)
	}
	if gamma[0] <= 0 {
		return nil, fmt.Errorf("arima: zero-variance series")
	}
	// Toeplitz system R phi = r.
	a := make([][]float64, p)
	b := make([]float64, p)
	for i := 0; i < p; i++ {
		a[i] = make([]float64, p)
		for j := 0; j < p; j++ {
			lag := i - j
			if lag < 0 {
				lag = -lag
			}
			a[i][j] = gamma[lag]
		}
		b[i] = gamma[i+1]
	}
	return solveLinear(a, b)
}

// arResiduals returns the one-step residuals of an AR fit on w (zero-mean),
// with the first p entries set to zero (undefined warm-up region).
func arResiduals(w []float64, phi []float64) []float64 {
	p := len(phi)
	resid := make([]float64, len(w))
	for t := p; t < len(w); t++ {
		pred := 0.0
		for i, c := range phi {
			pred += c * w[t-1-i]
		}
		resid[t] = w[t] - pred
	}
	return resid
}

// leastSquares solves the overdetermined system X beta ≈ y through the
// ridge-stabilized normal equations XᵀX beta = Xᵀy.
func leastSquares(x [][]float64, y []float64) ([]float64, error) {
	rows := len(x)
	if rows == 0 || rows != len(y) {
		return nil, fmt.Errorf("arima: bad regression dimensions (%d rows, %d targets)", rows, len(y))
	}
	cols := len(x[0])
	if cols == 0 {
		return nil, fmt.Errorf("arima: regression needs at least one column")
	}
	if rows < cols {
		return nil, fmt.Errorf("arima: underdetermined regression (%d rows < %d cols)", rows, cols)
	}
	xtx := make([][]float64, cols)
	for i := range xtx {
		xtx[i] = make([]float64, cols)
	}
	xty := make([]float64, cols)
	for r := 0; r < rows; r++ {
		row := x[r]
		if len(row) != cols {
			return nil, fmt.Errorf("arima: ragged design matrix at row %d", r)
		}
		for i := 0; i < cols; i++ {
			xi := row[i]
			if xi == 0 {
				continue
			}
			for j := i; j < cols; j++ {
				xtx[i][j] += xi * row[j]
			}
			xty[i] += xi * y[r]
		}
	}
	const ridge = 1e-8
	for i := 0; i < cols; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
		xtx[i][i] += ridge
	}
	return solveLinear(xtx, xty)
}

// newDiffShared differences (two-buffer Difference) and demeans y once for
// a given D.
func newDiffShared(y []float64, d int) (*diffShared, error) {
	w, err := Difference(y, d)
	if err != nil {
		return nil, err
	}
	var mu float64
	for _, v := range w {
		mu += v
	}
	mu /= float64(len(w))
	sh := &diffShared{n: len(w), mu: mu, z: w, allZero: true}
	for i, v := range w {
		w[i] = v - mu
		if w[i] != 0 {
			sh.allZero = false
		}
	}
	return sh, nil
}

// oracleFit is the allocating Hannan-Rissanen fit: difference, demean, fit
// a long AR to estimate innovations, then regress on lagged values and
// lagged innovations.
func oracleFit(y []float64, order Order) (*Model, error) {
	if err := order.Validate(); err != nil {
		return nil, err
	}
	sh, err := newDiffShared(y, order.D)
	if err != nil {
		return nil, err
	}
	return fitCandidate(sh, order)
}

// fitCandidate fits one order against the shared differenced series.
func fitCandidate(sh *diffShared, order Order) (*Model, error) {
	minN := 3*(order.P+order.Q) + 20
	if sh.n < minN {
		return nil, fmt.Errorf("arima: %d observations after differencing; need at least %d for %v",
			sh.n, minN, order)
	}
	mu, z := sh.mu, sh.z
	if sh.allZero {
		return &Model{
			Order:  order,
			Phi:    make([]float64, order.P),
			Theta:  make([]float64, order.Q),
			Mu:     mu,
			Sigma2: 0,
			N:      sh.n,
		}, nil
	}

	var phi, theta []float64
	var err error
	switch {
	case order.Q == 0:
		phi, err = yuleWalker(z, order.P)
		if err != nil {
			return nil, err
		}
		theta = []float64{}
	default:
		longP := order.P + order.Q + 5
		if maxP := len(z)/4 - 1; longP > maxP {
			longP = maxP
		}
		if longP < order.P+order.Q {
			longP = order.P + order.Q
		}
		longAR, err := yuleWalker(z, longP)
		if err != nil {
			return nil, err
		}
		eHat := arResiduals(z, longAR)

		start := longP + order.Q
		if start < order.P {
			start = order.P
		}
		rows := len(z) - start
		if rows < order.P+order.Q+5 {
			return nil, fmt.Errorf("arima: insufficient data for Hannan-Rissanen stage 2 (%d usable rows)", rows)
		}
		k := order.P + order.Q
		design := make([][]float64, rows)
		target := make([]float64, rows)
		for r := 0; r < rows; r++ {
			t := start + r
			row := make([]float64, k)
			for i := 0; i < order.P; i++ {
				row[i] = z[t-1-i]
			}
			for j := 0; j < order.Q; j++ {
				row[order.P+j] = eHat[t-1-j]
			}
			design[r] = row
			target[r] = z[t]
		}
		beta, err := leastSquares(design, target)
		if err != nil {
			return nil, fmt.Errorf("arima: Hannan-Rissanen regression: %w", err)
		}
		phi = beta[:order.P]
		theta = beta[order.P:]
	}

	m := &Model{
		Order: order,
		Phi:   clampStationary(phi),
		Theta: clampInvertible(theta),
		Mu:    mu,
		N:     sh.n,
	}
	resid := m.residualsZ(z)
	var ss float64
	cnt := 0
	for t := order.P + order.Q; t < len(resid); t++ {
		ss += resid[t] * resid[t]
		cnt++
	}
	if cnt > 0 {
		m.Sigma2 = ss / float64(cnt)
	}
	if m.Sigma2 > 0 {
		m.LogLik = -0.5 * float64(cnt) * (math.Log(2*math.Pi*m.Sigma2) + 1)
	}
	return m, nil
}

// oracleSelectOrder fits every candidate independently with oracleFit, in
// index order, and reduces with the degenerate/AIC rules: a degenerate fit
// (Sigma2 == 0) wins only if nothing else fits, otherwise the lowest AIC
// wins and ties keep the earlier candidate.
func oracleSelectOrder(y []float64, candidates []Order) (*Model, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("arima: no candidate orders")
	}
	var best *Model
	var firstErr error
	for _, o := range candidates {
		m, err := oracleFit(y, o)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if m.Sigma2 == 0 {
			if best == nil {
				best = m
			}
			continue
		}
		if best == nil || best.Sigma2 == 0 || m.AIC() < best.AIC() {
			best = m
		}
	}
	if best == nil {
		return nil, fmt.Errorf("arima: all candidate orders failed: %w", firstErr)
	}
	return best, nil
}
