package detect

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
	"repro/internal/timeseries"
)

// PCAConfig parameterizes the PCA subspace detector, an additional baseline
// in the spirit of ref [3] ("PCA-Based Method for Detecting Integrity
// Attacks on Advanced Metering Infrastructure").
type PCAConfig struct {
	// Components is the number of principal components spanning the normal
	// subspace. Zero selects the smallest k explaining VarianceTarget.
	Components int
	// VarianceTarget is the explained-variance fraction used when
	// Components is zero (default 0.9).
	VarianceTarget float64
	// Significance sets the percentile threshold on training residuals
	// (default 0.05).
	Significance float64
}

func (c PCAConfig) withDefaults() PCAConfig {
	if c.VarianceTarget == 0 {
		c.VarianceTarget = 0.9
	}
	if c.Significance == 0 {
		c.Significance = 0.05
	}
	return c
}

// PCADetector models normal weekly consumption as a low-dimensional linear
// subspace of R^336 learned from the training weeks, and flags weeks whose
// reconstruction residual is anomalously large. Because the number of
// training weeks M is far smaller than 336, the principal components are
// computed from the M×M Gram matrix rather than the 336×336 covariance.
//
// In-sample residuals badly underestimate the residuals of unseen normal
// weeks (the subspace is fit to the very weeks being scored), so the
// threshold is calibrated on a holdout: the subspace is fit on the first
// ~75% of training weeks and the residual percentile is taken over the
// remaining held-out weeks.
type PCADetector struct {
	maskedEval
	cfg        PCAConfig
	mean       timeseries.Series // column means (the seasonal profile)
	components [][]float64       // k rows of length 336, orthonormal
	trainRes   []float64         // residual norms of training weeks
	refWeek    timeseries.Series // final training week, the imputation anchor
	threshold  float64
}

// NewPCADetector trains the detector.
func NewPCADetector(train timeseries.Series, cfg PCAConfig) (*PCADetector, error) {
	cfg = cfg.withDefaults()
	if cfg.Significance <= 0 || cfg.Significance >= 1 {
		return nil, fmt.Errorf("detect: significance %g outside (0, 1)", cfg.Significance)
	}
	if cfg.VarianceTarget <= 0 || cfg.VarianceTarget > 1 {
		return nil, fmt.Errorf("detect: variance target %g outside (0, 1]", cfg.VarianceTarget)
	}
	if train.Weeks() < 4 {
		return nil, fmt.Errorf("detect: PCA detector needs >= 4 training weeks, got %d", train.Weeks())
	}
	full, err := timeseries.NewWeekMatrix(train, 0)
	if err != nil {
		return nil, fmt.Errorf("detect: PCA training: %w", err)
	}
	// Split fit weeks / holdout weeks for threshold calibration.
	fitWeeks := (full.Rows()*3 + 3) / 4
	if fitWeeks >= full.Rows() {
		fitWeeks = full.Rows() - 1
	}
	matrix, err := timeseries.NewWeekMatrix(train, fitWeeks)
	if err != nil {
		return nil, fmt.Errorf("detect: PCA fit split: %w", err)
	}
	m := matrix.Rows()
	cols := matrix.Cols()

	mean := matrix.SeasonalProfile()
	// Centered data A (m × cols).
	a := make([][]float64, m)
	for i := 0; i < m; i++ {
		row := matrix.Row(i)
		a[i] = make([]float64, cols)
		for j := 0; j < cols; j++ {
			a[i][j] = row[j] - mean[j]
		}
	}
	// Gram matrix G = A Aᵀ (m × m).
	g := make([][]float64, m)
	for i := range g {
		g[i] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			var s float64
			for c := 0; c < cols; c++ {
				s += a[i][c] * a[j][c]
			}
			g[i][j] = s
			g[j][i] = s
		}
	}
	eigVals, eigVecs, err := jacobiEigen(g, 200)
	if err != nil {
		return nil, fmt.Errorf("detect: PCA eigendecomposition: %w", err)
	}
	// Sort by eigenvalue descending.
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return eigVals[idx[x]] > eigVals[idx[y]] })

	var total float64
	for _, v := range eigVals {
		if v > 0 {
			total += v
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("detect: training weeks have no variance")
	}
	k := cfg.Components
	if k <= 0 {
		var acc float64
		for _, i := range idx {
			if eigVals[i] <= 0 {
				break
			}
			acc += eigVals[i]
			k++
			if acc/total >= cfg.VarianceTarget {
				break
			}
		}
	}
	if k > m-1 {
		k = m - 1 // keep at least one residual dimension
	}
	if k < 1 {
		k = 1
	}

	// Principal directions in R^cols: v_r = Aᵀ u_r / sqrt(λ_r).
	d := &PCADetector{cfg: cfg, mean: mean, refWeek: full.Row(full.Rows() - 1).Clone()}
	for r := 0; r < k; r++ {
		i := idx[r]
		lambda := eigVals[i]
		if lambda <= 1e-12 {
			break
		}
		dir := make([]float64, cols)
		for row := 0; row < m; row++ {
			u := eigVecs[row][i]
			if u == 0 {
				continue
			}
			for c := 0; c < cols; c++ {
				dir[c] += u * a[row][c]
			}
		}
		norm := math.Sqrt(lambda)
		for c := range dir {
			dir[c] /= norm
		}
		d.components = append(d.components, dir)
	}
	if len(d.components) == 0 {
		return nil, fmt.Errorf("detect: no usable principal components")
	}

	// Calibrate the threshold on the held-out training weeks, which the
	// subspace was not fit to.
	holdout := make([]float64, 0, full.Rows()-fitWeeks)
	for i := fitWeeks; i < full.Rows(); i++ {
		holdout = append(holdout, d.residual(full.Row(i)))
	}
	d.trainRes = holdout
	d.threshold = stats.Percentile(holdout, 100*(1-cfg.Significance))
	// With few holdout weeks the percentile is near the max; pad it so that
	// ordinary week-to-week variation does not trip the detector.
	d.threshold *= 1.25
	d.initEval(d)
	return d, nil
}

// Name implements Detector.
func (d *PCADetector) Name() string { return "pca" }

// residual computes the norm of the week's projection onto the residual
// (non-principal) subspace.
func (d *PCADetector) residual(week timeseries.Series) float64 {
	n := len(d.mean)
	centered := make([]float64, n)
	for j := 0; j < n; j++ {
		centered[j] = week[j] - d.mean[j]
	}
	// Subtract projections onto each component.
	for _, comp := range d.components {
		var dot float64
		for j := 0; j < n; j++ {
			dot += centered[j] * comp[j]
		}
		for j := 0; j < n; j++ {
			centered[j] -= dot * comp[j]
		}
	}
	var ss float64
	for _, v := range centered {
		ss += v * v
	}
	return math.Sqrt(ss)
}

// referenceWeek implements detectorCore.
func (d *PCADetector) referenceWeek() timeseries.Series { return d.refWeek }

// detectWeek implements detectorCore.
func (d *PCADetector) detectWeek(week timeseries.Series) (Verdict, error) {
	if err := validateWeek(week); err != nil {
		return Verdict{}, err
	}
	res := d.residual(week)
	v := Verdict{
		Score:     res,
		Threshold: d.threshold,
		Anomalous: res > d.threshold,
	}
	if v.Anomalous {
		v.Reason = fmt.Sprintf("PCA residual %.4g above threshold %.4g (k=%d components)",
			res, d.threshold, len(d.components))
	}
	return v, nil
}

// jacobiEigen computes all eigenvalues and eigenvectors of a symmetric
// matrix using the cyclic Jacobi rotation method. It returns the
// eigenvalues and a matrix whose column i is the eigenvector for
// eigenvalue i. The input matrix is not modified.
func jacobiEigen(sym [][]float64, maxSweeps int) (vals []float64, vecs [][]float64, err error) {
	n := len(sym)
	if n == 0 {
		return nil, nil, fmt.Errorf("detect: empty matrix")
	}
	// Work on a copy.
	a := make([][]float64, n)
	for i := range a {
		if len(sym[i]) != n {
			return nil, nil, fmt.Errorf("detect: matrix not square")
		}
		a[i] = make([]float64, n)
		copy(a[i], sym[i])
	}
	// Eigenvector accumulator starts as identity.
	v := make([][]float64, n)
	for i := range v {
		v[i] = make([]float64, n)
		v[i][i] = 1
	}

	offDiag := func() float64 {
		var s float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += a[i][j] * a[i][j]
			}
		}
		return s
	}

	for sweep := 0; sweep < maxSweeps; sweep++ {
		if offDiag() < 1e-20 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p][q]
				if math.Abs(apq) < 1e-18 {
					continue
				}
				theta := (a[q][q] - a[p][p]) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c

				app, aqq := a[p][p], a[q][q]
				a[p][p] = c*c*app - 2*s*c*apq + s*s*aqq
				a[q][q] = s*s*app + 2*s*c*apq + c*c*aqq
				a[p][q] = 0
				a[q][p] = 0
				for i := 0; i < n; i++ {
					if i == p || i == q {
						continue
					}
					aip, aiq := a[i][p], a[i][q]
					a[i][p] = c*aip - s*aiq
					a[p][i] = a[i][p]
					a[i][q] = s*aip + c*aiq
					a[q][i] = a[i][q]
				}
				for i := 0; i < n; i++ {
					vip, viq := v[i][p], v[i][q]
					v[i][p] = c*vip - s*viq
					v[i][q] = s*vip + c*viq
				}
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = a[i][i]
	}
	return vals, v, nil
}
