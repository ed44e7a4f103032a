package stats

import (
	"fmt"
	"math"
)

// KLOptions configures the Kullback-Leibler divergence computation.
type KLOptions struct {
	// Epsilon, when positive, is added to every bin of both distributions
	// before renormalization. This "smoothing" keeps the divergence finite
	// when the candidate distribution places mass in a bin the baseline
	// assigns zero probability — which is exactly what a cleverly crafted
	// attack vector that strays outside historic consumption does. The
	// paper's detector needs such weeks to score as *highly* anomalous
	// rather than producing non-comparable infinities, so the F-DETA
	// detector uses a small positive epsilon by default.
	Epsilon float64

	// Base selects the logarithm base. The paper's Eq. 12 uses log2 (bits);
	// zero or 2 selects bits, math.E selects nats, 10 selects bans.
	Base float64
}

// DefaultKLOptions matches the paper: log base 2 with light smoothing.
func DefaultKLOptions() KLOptions {
	return KLOptions{Epsilon: 1e-10, Base: 2}
}

func (o KLOptions) logBase() float64 {
	if o.Base == 0 {
		return 2
	}
	return o.Base
}

// KLDivergence computes D(p || q) = sum_j p_j * log(p_j / q_j) per Eq. 12 of
// the paper, in the units selected by opts.Base. Both p and q must be the
// same length; they are treated as discrete distributions and renormalized
// internally so raw counts may be passed directly.
//
// Terms with p_j == 0 contribute zero (the standard 0·log 0 = 0 convention).
// With opts.Epsilon == 0, a bin with p_j > 0 and q_j == 0 yields +Inf.
func KLDivergence(p, q []float64, opts KLOptions) (float64, error) {
	return KLDivergenceWith(p, q, opts, nil)
}

// KLScratch holds reusable normalization buffers for KLDivergenceWith, so
// hot scoring loops avoid two allocations per divergence.
type KLScratch struct {
	pn, qn []float64
}

// KLDivergenceWith is KLDivergence using the scratch buffers in s (which may
// be nil). The arithmetic is identical to KLDivergence, so results are
// bit-for-bit the same.
func KLDivergenceWith(p, q []float64, opts KLOptions, s *KLScratch) (float64, error) {
	if len(p) != len(q) {
		return math.NaN(), fmt.Errorf("stats: distribution length mismatch %d vs %d", len(p), len(q))
	}
	if len(p) == 0 {
		return math.NaN(), ErrEmpty
	}
	var pBuf, qBuf []float64
	if s != nil {
		s.pn = grow(s.pn, len(p))
		s.qn = grow(s.qn, len(q))
		pBuf, qBuf = s.pn, s.qn
	} else {
		pBuf = make([]float64, len(p))
		qBuf = make([]float64, len(q))
	}
	pn, err := normalizeInto(pBuf, p, opts.Epsilon)
	if err != nil {
		return math.NaN(), fmt.Errorf("stats: p: %w", err)
	}
	qn, err := normalizeInto(qBuf, q, opts.Epsilon)
	if err != nil {
		return math.NaN(), fmt.Errorf("stats: q: %w", err)
	}
	logDenom := math.Log(opts.logBase())
	var d float64
	for j := range pn {
		if pn[j] == 0 {
			continue
		}
		if qn[j] == 0 {
			return math.Inf(1), nil
		}
		d += pn[j] * math.Log(pn[j]/qn[j]) / logDenom
	}
	// Floating-point cancellation can produce a tiny negative result for
	// near-identical distributions; clamp since KL divergence is >= 0.
	if d < 0 && d > -1e-12 {
		d = 0
	}
	return d, nil
}

// SymmetricKLDivergence returns D(p||q) + D(q||p), a symmetric dissimilarity
// sometimes preferred when neither distribution is a privileged baseline.
func SymmetricKLDivergence(p, q []float64, opts KLOptions) (float64, error) {
	d1, err := KLDivergence(p, q, opts)
	if err != nil {
		return math.NaN(), err
	}
	d2, err := KLDivergence(q, p, opts)
	if err != nil {
		return math.NaN(), err
	}
	return d1 + d2, nil
}

// JensenShannonDivergence returns the Jensen-Shannon divergence between p
// and q in the units of opts.Base. It is symmetric, finite, and bounded by
// 1 when using log2; provided as a robustness alternative for the detector
// ablation study.
func JensenShannonDivergence(p, q []float64, opts KLOptions) (float64, error) {
	if len(p) != len(q) {
		return math.NaN(), fmt.Errorf("stats: distribution length mismatch %d vs %d", len(p), len(q))
	}
	pn, err := normalize(p, opts.Epsilon)
	if err != nil {
		return math.NaN(), fmt.Errorf("stats: p: %w", err)
	}
	qn, err := normalize(q, opts.Epsilon)
	if err != nil {
		return math.NaN(), fmt.Errorf("stats: q: %w", err)
	}
	mid := make([]float64, len(pn))
	for j := range pn {
		mid[j] = 0.5 * (pn[j] + qn[j])
	}
	// The mixture cannot introduce zeros where p or q has mass, so no
	// further smoothing is needed.
	noSmooth := KLOptions{Base: opts.Base}
	d1, err := KLDivergence(pn, mid, noSmooth)
	if err != nil {
		return math.NaN(), err
	}
	d2, err := KLDivergence(qn, mid, noSmooth)
	if err != nil {
		return math.NaN(), err
	}
	return 0.5*d1 + 0.5*d2, nil
}

// normalize returns xs scaled to sum to one after adding eps to every
// element. It rejects negative entries and all-zero inputs.
func normalize(xs []float64, eps float64) ([]float64, error) {
	return normalizeInto(make([]float64, len(xs)), xs, eps)
}

// normalizeInto is normalize writing into out, which must have length
// len(xs). The arithmetic order matches normalize exactly.
func normalizeInto(out, xs []float64, eps float64) ([]float64, error) {
	var sum float64
	for i, x := range xs {
		if x < 0 || math.IsNaN(x) {
			return nil, fmt.Errorf("invalid probability mass %g at index %d", x, i)
		}
		out[i] = x + eps
		sum += out[i]
	}
	if sum == 0 {
		return nil, fmt.Errorf("distribution has zero total mass")
	}
	for i := range out {
		out[i] /= sum
	}
	return out, nil
}

// grow returns buf resized to length n, reallocating only when capacity is
// insufficient.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
