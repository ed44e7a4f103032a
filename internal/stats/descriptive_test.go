package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestSum(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3.5}, 3.5},
		{"mixed", []float64{1, -2, 3.5}, 2.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Sum(tt.in); got != tt.want {
				t.Errorf("Sum(%v) = %g, want %g", tt.in, got, tt.want)
			}
		})
	}
}

func TestMean(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %g, want 4", got)
	}
}

func TestVariance(t *testing.T) {
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of single value should be NaN")
	}
	// Known value: var([2,4,4,4,5,5,7,9]) with n-1 = 4.571428...
	got := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %g, want %g", got, 32.0/7.0)
	}
}

func TestPopVariance(t *testing.T) {
	got := PopVariance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEqual(got, 4, 1e-12) {
		t.Errorf("PopVariance = %g, want 4", got)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = (%g, %g), want (-1, 7)", lo, hi)
	}
	lo, hi = MinMax(nil)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Error("MinMax(nil) should be NaNs")
	}
	if Min([]float64{5}) != 5 || Max([]float64{5}) != 5 {
		t.Error("Min/Max of singleton")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
		{40, 29}, // rank 1.6 -> 20 + 0.6*(35-20) = 29
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Percentile(%g) = %g, want %g", tt.p, got, tt.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile(nil) should be NaN")
	}
	if !math.IsNaN(Percentile(xs, -1)) || !math.IsNaN(Percentile(xs, 101)) {
		t.Error("Percentile out of range should be NaN")
	}
	// Input must not be reordered.
	if xs[0] != 15 || xs[2] != 35 {
		t.Error("Percentile must not mutate its input")
	}
}

func TestPercentileSorted(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	if got := PercentileSorted(sorted, 50); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("PercentileSorted(50) = %g, want 2.5", got)
	}
	if got := PercentileSorted([]float64{7}, 90); got != 7 {
		t.Errorf("singleton percentile = %g, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median odd = %g, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Median even = %g, want 2.5", got)
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	rng := NewRand(42)
	xs := NormalSample(rng, 1000, 5, 2)
	var acc Accumulator
	for _, x := range xs {
		acc.Add(x)
	}
	if acc.n != 1000 {
		t.Fatalf("n = %d, want 1000", acc.n)
	}
	if !almostEqual(acc.Mean(), Mean(xs), 1e-9) {
		t.Errorf("Accumulator mean %g != batch mean %g", acc.Mean(), Mean(xs))
	}
	if !almostEqual(acc.Variance(), Variance(xs), 1e-9) {
		t.Errorf("Accumulator variance %g != batch variance %g", acc.Variance(), Variance(xs))
	}
	if acc.Min() != Min(xs) || acc.Max() != Max(xs) {
		t.Error("Accumulator min/max disagree with batch")
	}
	if acc.String() == "" {
		t.Error("String should be nonempty")
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var acc Accumulator
	if !math.IsNaN(acc.Mean()) || !math.IsNaN(acc.Variance()) ||
		!math.IsNaN(acc.Min()) || !math.IsNaN(acc.Max()) {
		t.Error("empty accumulator should report NaNs")
	}
}

func TestMeanStd(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	m, s := MeanStd(xs)
	if !almostEqual(m, 3, 1e-12) {
		t.Errorf("mean = %g, want 3", m)
	}
	if !almostEqual(s, math.Sqrt(2.5), 1e-12) {
		t.Errorf("std = %g, want sqrt(2.5)", s)
	}
}

func TestVariancePropertyNonNegative(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		return Variance(clean) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	rng := NewRand(99)
	f := func(seed int64) bool {
		r := SplitRand(seed, 1)
		n := 1 + r.Intn(50)
		xs := NormalSample(rng, n, 0, 10)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := SplitRand(seed, 2)
		n := 1 + r.Intn(100)
		xs := NormalSample(r, n, 0, 5)
		lo, hi := MinMax(xs)
		for _, p := range []float64{0, 10, 50, 90, 100} {
			v := Percentile(xs, p)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
