package stats

import (
	"math"
	"math/rand"
)

// This file keeps the helpers only the package's tests use: reference
// moments and the CDF of the truncated normal (the oracles Sample is checked
// against), histogram constructors over a whole sample, and sample
// generators.

// PopVariance returns the population (n denominator) variance of xs.
// It returns NaN for an empty slice.
func PopVariance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// Median returns the sample median using linear interpolation between the
// two central order statistics for even-length samples.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// NewHistogramFromData builds a histogram whose edges span the range of the
// supplied data with the given number of equal-width bins, mirroring the
// paper's "histogram of all values of X using B bins" construction.
func NewHistogramFromData(data []float64, bins int) (*Histogram, error) {
	if len(data) == 0 {
		return nil, ErrEmpty
	}
	lo, hi := MinMax(data)
	h, err := NewHistogram(LinearEdges(lo, hi, bins))
	if err != nil {
		return nil, err
	}
	h.AddAll(data)
	return h, nil
}

// NewHistogramFromDataQuantile is NewHistogramFromData with equal-frequency
// (quantile) bin edges.
func NewHistogramFromDataQuantile(data []float64, bins int) (*Histogram, error) {
	edges, err := QuantileEdges(data, bins)
	if err != nil {
		return nil, err
	}
	h, err := NewHistogram(edges)
	if err != nil {
		return nil, err
	}
	h.AddAll(data)
	return h, nil
}

// Clone returns a histogram with the same edges and zeroed counts, for
// binning a different sample against identical edges.
func (h *Histogram) Clone() *Histogram {
	return &Histogram{
		edges:  h.edges, // edges are immutable after construction
		counts: make([]int, len(h.counts)),
		scale:  h.scale,
	}
}

// Reset zeroes all counts, keeping the edges.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
}

// AddAll bins every observation in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// NormalQuantile returns the p-quantile of the normal distribution with the
// given mean and standard deviation.
func NormalQuantile(p, mean, sigma float64) float64 {
	if sigma <= 0 {
		return math.NaN()
	}
	return mean + sigma*StdNormalQuantile(p)
}

// SampleN draws n values.
func (t TruncNormal) SampleN(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = t.Sample(rng)
	}
	return out
}

// TruncatedMean returns the analytic mean of the truncated distribution,
// which differs from Mean whenever the truncation is asymmetric.
func (t TruncNormal) TruncatedMean() float64 {
	alpha, beta := t.alphaBeta()
	_, _, z := t.massZ()
	if z <= 0 {
		return math.NaN()
	}
	return t.Mean + t.Sigma*(NormalPDF(alpha, 0, 1)-NormalPDF(beta, 0, 1))/z
}

// TruncatedVariance returns the analytic variance of the truncated
// distribution.
func (t TruncNormal) TruncatedVariance() float64 {
	alpha, beta := t.alphaBeta()
	_, _, z := t.massZ()
	if z <= 0 {
		return math.NaN()
	}
	phiAlpha := NormalPDF(alpha, 0, 1)
	phiBeta := NormalPDF(beta, 0, 1)
	var aTerm, bTerm float64
	if !math.IsInf(alpha, 0) {
		aTerm = alpha * phiAlpha
	}
	if !math.IsInf(beta, 0) {
		bTerm = beta * phiBeta
	}
	ratio := (phiAlpha - phiBeta) / z
	return t.Sigma * t.Sigma * (1 + (aTerm-bTerm)/z - ratio*ratio)
}

// CDF returns the cumulative distribution function of the truncated normal.
func (t TruncNormal) CDF(x float64) float64 {
	switch {
	case x <= t.Lo:
		return 0
	case x >= t.Hi:
		return 1
	}
	phiA, _, z := t.massZ()
	if z <= 0 {
		return math.NaN()
	}
	return (NormalCDF(x, t.Mean, t.Sigma) - phiA) / z
}

// NormalSample draws n i.i.d. normal variates with the given mean and
// standard deviation.
func NormalSample(rng *rand.Rand, n int, mean, sigma float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = mean + sigma*rng.NormFloat64()
	}
	return out
}

// Shuffle permutes xs in place using the supplied RNG.
func Shuffle(rng *rand.Rand, xs []float64) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// Variance returns the unbiased (n-1 denominator) sample variance of xs.
// It returns NaN when fewer than two observations are supplied.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// NormalPDF returns the density of the normal distribution with the given
// mean and standard deviation at x. Sigma must be positive.
func NormalPDF(x, mean, sigma float64) float64 {
	if sigma <= 0 {
		return math.NaN()
	}
	z := (x - mean) / sigma
	return math.Exp(-0.5*z*z) / (sigma * math.Sqrt(2*math.Pi))
}

// NormalCDF returns the cumulative distribution function of the normal
// distribution with the given mean and standard deviation at x.
func NormalCDF(x, mean, sigma float64) float64 {
	if sigma <= 0 {
		return math.NaN()
	}
	return 0.5 * math.Erfc(-(x-mean)/(sigma*math.Sqrt2))
}

// Add bins a single observation. NaN observations are ignored.
func (h *Histogram) Add(x float64) {
	i := h.BinIndex(x)
	if i < 0 {
		return
	}
	h.counts[i]++
	h.total++
}
