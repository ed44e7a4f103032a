package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Sum returns the sum of xs. An empty slice sums to zero.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs. It returns NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// MeanStd returns the mean and unbiased standard deviation in one pass.
func MeanStd(xs []float64) (mean, std float64) {
	var acc Accumulator
	for _, x := range xs {
		acc.Add(x)
	}
	return acc.Mean(), acc.StdDev()
}

// Min returns the smallest value in xs. It returns NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value in xs. It returns NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// MinMax returns both extremes of xs in a single pass.
// It returns NaNs for an empty slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Percentile returns the p-th percentile of xs (0 <= p <= 100) using the
// linear-interpolation definition (R-7, the numpy default). The input is
// not modified. It returns NaN for an empty slice or p outside [0, 100].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 || p < 0 || p > 100 || math.IsNaN(p) {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// PercentileSorted is Percentile for data already in ascending order.
// It avoids the copy-and-sort cost when many percentiles are taken from
// the same sample.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 || p < 0 || p > 100 || math.IsNaN(p) {
		return math.NaN()
	}
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Accumulator computes running mean and variance using Welford's online
// algorithm. The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Mean returns the running mean, or NaN if no observations were added.
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.mean
}

// Variance returns the running unbiased sample variance, or NaN when fewer
// than two observations were added.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the running unbiased sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest observation seen, or NaN if none were added.
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.min
}

// Max returns the largest observation seen, or NaN if none were added.
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.max
}

// String summarizes the accumulator for debugging output.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.6g std=%.6g min=%.6g max=%.6g",
		a.n, a.Mean(), a.StdDev(), a.Min(), a.Max())
}
