package arima

import (
	"fmt"
	"math"
)

// maxD is the largest differencing order Order.Validate admits; the
// workspace keeps one shared differencing buffer per admissible D.
const maxD = 2

// Workspace holds reusable scratch buffers for repeated model fits; every
// Hannan-Rissanen fit in the package runs through one. The buffers only
// replace `make` calls, so a fit's arithmetic does not depend on whether
// its workspace is fresh or reused (the package tests check both against an
// allocating reference fitter, bit for bit). The population trainer gives
// each worker one Workspace, amortizing the scratch a fresh workspace grows
// per grid selection (megabytes on a year of half-hourly readings) down to
// O(workers) for the whole run.
//
// A Workspace is NOT safe for concurrent use. Slices returned by the
// *Trained entry points alias workspace memory and are valid only until the
// next fit through the same workspace.
type Workspace struct {
	// Per-D shared differencing state for the series currently being fitted.
	shared    [maxD + 1]diffShared
	sharedErr [maxD + 1]error
	haveDiff  [maxD + 1]bool
	diffBuf   [maxD + 1][]float64

	// Yule-Walker scratch: autocovariances and the Toeplitz system.
	gamma     []float64
	ywRows    [][]float64
	ywBacking []float64
	ywB       []float64

	// Hannan-Rissanen stage-2 scratch: long-AR innovations, the design
	// matrix (one backing array), and the normal equations.
	eHat       []float64
	design     [][]float64
	designData []float64
	target     []float64
	xtx        [][]float64
	xtxBacking []float64
	xty        []float64

	// resid receives the current candidate's conditional residuals;
	// bestResid retains the running best candidate's residuals. The two
	// buffers ping-pong so retaining the winner never copies.
	resid     []float64
	bestResid []float64
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// beginSeries invalidates the per-series differencing cache. Buffers are
// kept for reuse.
func (ws *Workspace) beginSeries() {
	for d := range ws.haveDiff {
		ws.haveDiff[d] = false
		ws.sharedErr[d] = nil
	}
}

// growFloat returns (*buf)[:n], reallocating only when capacity is short.
// The returned slice is NOT zeroed.
func growFloat(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// diffShared is the per-D state a workspace computes once per series and
// shares across every candidate with the same differencing order: the
// differenced series, its mean, the demeaned series, and whether it is
// constant (degenerate).
type diffShared struct {
	n       int       // observations after differencing
	mu      float64   // mean of the differenced series
	z       []float64 // demeaned differenced series (read-only once built)
	allZero bool
}

// diffFor differences and demeans the series for order D, computing each
// distinct D once per series.
func (ws *Workspace) diffFor(y []float64, d int) (*diffShared, error) {
	if ws.haveDiff[d] {
		return &ws.shared[d], ws.sharedErr[d]
	}
	ws.haveDiff[d] = true
	if len(y) <= d {
		ws.sharedErr[d] = fmt.Errorf("arima: series of length %d cannot be differenced %d times", len(y), d)
		return nil, ws.sharedErr[d]
	}
	// In-place iterated differencing: at step j only index j-1 is written,
	// so both operands of each subtraction still hold the values the
	// two-buffer Difference implementation reads — identical results.
	buf := growFloat(&ws.diffBuf[d], len(y))
	copy(buf, y)
	for i := 0; i < d; i++ {
		n := len(buf)
		for j := 1; j < n; j++ {
			buf[j-1] = buf[j] - buf[j-1]
		}
		buf = buf[:n-1]
	}
	var mu float64
	for _, v := range buf {
		mu += v
	}
	mu /= float64(len(buf))
	sh := diffShared{n: len(buf), mu: mu, z: buf, allZero: true}
	for i, v := range buf {
		buf[i] = v - mu
		if buf[i] != 0 {
			sh.allZero = false
		}
	}
	ws.shared[d] = sh
	return &ws.shared[d], nil
}

// yuleWalkerWS fits AR(p) coefficients to a zero-mean series via the
// Yule-Walker equations built from sample autocovariances, with the
// autocovariance vector and Toeplitz system in workspace buffers. The
// returned coefficient slice aliases the workspace and is valid until the
// next yuleWalkerWS call.
func (ws *Workspace) yuleWalkerWS(w []float64, p int) ([]float64, error) {
	n := len(w)
	if p <= 0 || n <= p {
		return nil, fmt.Errorf("arima: cannot fit AR(%d) to %d observations", p, n)
	}
	gamma := growFloat(&ws.gamma, p+1)
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
	backing := growFloat(&ws.ywBacking, p*p)
	if cap(ws.ywRows) < p {
		ws.ywRows = make([][]float64, p)
	}
	a := ws.ywRows[:p]
	b := growFloat(&ws.ywB, p)
	for i := 0; i < p; i++ {
		a[i] = backing[i*p : (i+1)*p : (i+1)*p]
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

// arResidualsInto writes the one-step residuals of an AR fit on w
// (zero-mean) into a caller-provided buffer of len(w). The undefined
// warm-up region [0, p) is zeroed explicitly, since the buffer is reused.
func arResidualsInto(resid, w []float64, phi []float64) {
	p := len(phi)
	for t := 0; t < p && t < len(w); t++ {
		resid[t] = 0
	}
	for t := p; t < len(w); t++ {
		pred := 0.0
		for i, c := range phi {
			pred += c * w[t-1-i]
		}
		resid[t] = w[t] - pred
	}
}

// leastSquaresWS solves the overdetermined system X beta ≈ y by forming and
// solving the normal equations XᵀX beta = Xᵀy in workspace buffers. X is
// row-major with one row per observation. A small ridge term stabilizes
// nearly collinear designs, which arise when an attack vector makes the
// series locally constant. The returned solution aliases the workspace.
func (ws *Workspace) leastSquaresWS(x [][]float64, y []float64) ([]float64, error) {
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
	backing := growFloat(&ws.xtxBacking, cols*cols)
	if cap(ws.xtx) < cols {
		ws.xtx = make([][]float64, cols)
	}
	xtx := ws.xtx[:cols]
	for i := 0; i < cols; i++ {
		xtx[i] = backing[i*cols : (i+1)*cols : (i+1)*cols]
		for j := range xtx[i] {
			xtx[i][j] = 0
		}
	}
	xty := growFloat(&ws.xty, cols)
	for i := range xty {
		xty[i] = 0
	}
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

// fitCandidateWS fits one order against the shared differenced series by
// Hannan-Rissanen, with every intermediate buffer drawn from the workspace.
// On success the candidate's conditional residuals are left in ws.resid
// (length sh.n).
func (ws *Workspace) fitCandidateWS(sh *diffShared, order Order) (*Model, error) {
	minN := 3*(order.P+order.Q) + 20
	if sh.n < minN {
		return nil, fmt.Errorf("arima: %d observations after differencing; need at least %d for %v",
			sh.n, minN, order)
	}
	mu, z := sh.mu, sh.z
	if sh.allZero {
		// Constant series: deterministic model, zero innovation variance.
		// This arises for all-zero attack vectors and must not crash the
		// detector. Residuals of the zero-coefficient model on an all-zero
		// series are all zero; materialize them so retained-fit consumers
		// see the same state a cold NewPredictor would compute.
		resid := growFloat(&ws.resid, sh.n)
		for i := range resid {
			resid[i] = 0
		}
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
		phi, err = ws.yuleWalkerWS(z, order.P)
		if err != nil {
			return nil, err
		}
		theta = []float64{}
	default:
		// Stage 1: long AR for innovation estimates.
		longP := order.P + order.Q + 5
		if maxP := len(z)/4 - 1; longP > maxP {
			longP = maxP
		}
		if longP < order.P+order.Q {
			longP = order.P + order.Q
		}
		longAR, err := ws.yuleWalkerWS(z, longP)
		if err != nil {
			return nil, err
		}
		eHat := growFloat(&ws.eHat, len(z))
		arResidualsInto(eHat, z, longAR)

		// Stage 2: OLS of z_t on p lags of z and q lags of eHat.
		start := longP + order.Q
		if start < order.P {
			start = order.P
		}
		rows := len(z) - start
		if rows < order.P+order.Q+5 {
			return nil, fmt.Errorf("arima: insufficient data for Hannan-Rissanen stage 2 (%d usable rows)", rows)
		}
		k := order.P + order.Q
		backing := growFloat(&ws.designData, rows*k)
		if cap(ws.design) < rows {
			ws.design = make([][]float64, rows)
		}
		design := ws.design[:rows]
		target := growFloat(&ws.target, rows)
		for r := 0; r < rows; r++ {
			t := start + r
			row := backing[r*k : (r+1)*k : (r+1)*k]
			for i := 0; i < order.P; i++ {
				row[i] = z[t-1-i]
			}
			for j := 0; j < order.Q; j++ {
				row[order.P+j] = eHat[t-1-j]
			}
			design[r] = row
			target[r] = z[t]
		}
		beta, err := ws.leastSquaresWS(design, target)
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

	// Innovation variance from conditional residuals.
	resid := growFloat(&ws.resid, len(z))
	m.residualsZInto(resid, z)
	var ss float64
	cnt := 0
	warm := order.P + order.Q
	for t := warm; t < len(resid); t++ {
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

// retain swaps the just-fitted candidate's residual buffer into the
// retained slot, protecting it from the next fit. Returns the retained
// residuals, sized to n.
func (ws *Workspace) retain(n int) []float64 {
	ws.resid, ws.bestResid = ws.bestResid, ws.resid
	return ws.bestResid[:n]
}

// TrainedFit couples a fitted model with the fit-time series state — the
// demeaned differenced series and the conditional residual recursion — so
// predictors can be placed anywhere in the training series in O(P+Q+D)
// instead of replaying it. The z and resid slices alias workspace memory:
// a TrainedFit is valid only until the next fit through the same workspace.
type TrainedFit struct {
	Model *Model
	y     []float64 // original series (aliases the caller's slice)
	z     []float64 // demeaned differenced series (workspace memory)
	resid []float64 // conditional residuals on z (workspace memory)
}

// PredictorAt returns a predictor in exactly the state Model.NewPredictor
// would reach warmed on y[:t] — bit-identical, because the differenced
// series, the demeaning mean, and the residual recursion are all
// prefix-stable — without touching more than P+Q+D values. t must be in
// [D+P+Q+1, len(y)].
func (tf *TrainedFit) PredictorAt(t int) (*Predictor, error) {
	m := tf.Model
	need := m.Order.D + m.Order.P + m.Order.Q + 1
	if t < need || t > len(tf.y) {
		return nil, fmt.Errorf("arima: predictor position %d outside [%d, %d]", t, need, len(tf.y))
	}
	p := &Predictor{
		m:     m,
		yTail: make([]float64, m.Order.D),
		zLags: make([]float64, m.Order.P),
		eLags: make([]float64, m.Order.Q),
		diffC: diffPoly(m.Order.D),
		sigma: math.Sqrt(m.Sigma2),
	}
	copy(p.yTail, tf.y[t-m.Order.D:t])
	n := t - m.Order.D // observations after differencing y[:t]
	for i := 0; i < m.Order.P; i++ {
		p.zLags[i] = tf.z[n-1-i]
	}
	for j := 0; j < m.Order.Q; j++ {
		p.eLags[j] = tf.resid[n-1-j]
	}
	return p, nil
}

// FitTrained fits one order through a workspace (see Fit) and returns the
// retained fit state for O(1) predictor placement.
func FitTrained(y []float64, order Order, ws *Workspace) (*TrainedFit, error) {
	if err := order.Validate(); err != nil {
		return nil, err
	}
	ws.beginSeries()
	sh, err := ws.diffFor(y, order.D)
	if err != nil {
		return nil, err
	}
	m, err := ws.fitCandidateWS(sh, order)
	if err != nil {
		return nil, err
	}
	return &TrainedFit{Model: m, y: y, z: sh.z, resid: ws.retain(sh.n)}, nil
}

// SelectOrderTrained fits every candidate serially through the workspace
// and returns the best one (see SelectOrder), with the winner's fit state
// retained for O(1) predictor placement.
func SelectOrderTrained(y []float64, candidates []Order, ws *Workspace) (*TrainedFit, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("arima: no candidate orders")
	}
	ws.beginSeries()
	return ws.selectRetained(y, candidates)
}

// selectRetained is the one candidate loop. It visits the grid in index
// order with a streaming reduction: a degenerate fit (Sigma2 == 0) wins only
// if nothing else fits, otherwise the lowest AIC wins and ties keep the
// earlier candidate. The running best candidate's residuals are retained.
func (ws *Workspace) selectRetained(y []float64, candidates []Order) (*TrainedFit, error) {
	var best *TrainedFit
	var firstErr error
	for _, o := range candidates {
		if err := o.Validate(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sh, err := ws.diffFor(y, o.D)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		m, err := ws.fitCandidateWS(sh, o)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if m.Sigma2 == 0 {
			if best == nil {
				best = &TrainedFit{Model: m, y: y, z: sh.z, resid: ws.retain(sh.n)}
			}
			continue
		}
		if best == nil || best.Model.Sigma2 == 0 || m.AIC() < best.Model.AIC() {
			best = &TrainedFit{Model: m, y: y, z: sh.z, resid: ws.retain(sh.n)}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("arima: all candidate orders failed: %w", firstErr)
	}
	return best, nil
}
