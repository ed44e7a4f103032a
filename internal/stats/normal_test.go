package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalPDF(t *testing.T) {
	// Peak of the standard normal.
	if got := NormalPDF(0, 0, 1); !almostEqual(got, 1/math.Sqrt(2*math.Pi), 1e-12) {
		t.Errorf("pdf(0) = %g", got)
	}
	if !math.IsNaN(NormalPDF(0, 0, 0)) || !math.IsNaN(NormalPDF(0, 0, -1)) {
		t.Error("nonpositive sigma should yield NaN")
	}
	// Symmetry.
	if NormalPDF(1.3, 0, 1) != NormalPDF(-1.3, 0, 1) {
		t.Error("pdf should be symmetric about the mean")
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	tests := []struct {
		z, want float64
	}{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{1.2815515655446004, 0.9},
	}
	for _, tt := range tests {
		if got := StdNormalCDF(tt.z); !almostEqual(got, tt.want, 1e-9) {
			t.Errorf("Φ(%g) = %g, want %g", tt.z, got, tt.want)
		}
	}
	if !math.IsNaN(NormalCDF(0, 0, -2)) {
		t.Error("nonpositive sigma should yield NaN")
	}
	if got := NormalCDF(7, 5, 2); !almostEqual(got, StdNormalCDF(1), 1e-12) {
		t.Errorf("shifted CDF = %g", got)
	}
}

func TestStdNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-9, 1e-4, 0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99, 1 - 1e-4} {
		z := StdNormalQuantile(p)
		back := StdNormalCDF(z)
		if !almostEqual(back, p, 1e-10) {
			t.Errorf("Φ(Φ⁻¹(%g)) = %g", p, back)
		}
	}
}

func TestStdNormalQuantileEdges(t *testing.T) {
	if !math.IsInf(StdNormalQuantile(0), -1) {
		t.Error("quantile(0) should be -Inf")
	}
	if !math.IsInf(StdNormalQuantile(1), 1) {
		t.Error("quantile(1) should be +Inf")
	}
	if !math.IsNaN(StdNormalQuantile(-0.1)) || !math.IsNaN(StdNormalQuantile(1.1)) || !math.IsNaN(StdNormalQuantile(math.NaN())) {
		t.Error("out-of-domain quantile should be NaN")
	}
	if got := StdNormalQuantile(0.5); !almostEqual(got, 0, 1e-12) {
		t.Errorf("median quantile = %g, want 0", got)
	}
	// The 97.5% quantile is the ubiquitous 1.96.
	if got := StdNormalQuantile(0.975); !almostEqual(got, 1.959963984540054, 1e-8) {
		t.Errorf("q(0.975) = %g", got)
	}
}

func TestNormalQuantileShiftScale(t *testing.T) {
	got := NormalQuantile(0.975, 10, 2)
	want := 10 + 2*1.959963984540054
	if !almostEqual(got, want, 1e-7) {
		t.Errorf("NormalQuantile = %g, want %g", got, want)
	}
	if !math.IsNaN(NormalQuantile(0.5, 0, 0)) {
		t.Error("nonpositive sigma should yield NaN")
	}
}

func TestNewTruncNormalValidation(t *testing.T) {
	if _, err := NewTruncNormal(0, 0, -1, 1); err == nil {
		t.Error("zero sigma should be rejected")
	}
	if _, err := NewTruncNormal(0, 1, 1, 1); err == nil {
		t.Error("lo == hi should be rejected")
	}
	if _, err := NewTruncNormal(0, 1, 2, 1); err == nil {
		t.Error("lo > hi should be rejected")
	}
	if _, err := NewTruncNormal(0, 1, -1, 1); err != nil {
		t.Error("valid parameters rejected")
	}
}

func TestTruncNormalSampleBounds(t *testing.T) {
	tn, err := NewTruncNormal(5, 3, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRand(1)
	for i := 0; i < 10000; i++ {
		x := tn.Sample(rng)
		if x < tn.Lo || x > tn.Hi {
			t.Fatalf("sample %g outside [%g, %g]", x, tn.Lo, tn.Hi)
		}
	}
}

func TestTruncNormalSampleMoments(t *testing.T) {
	tn, _ := NewTruncNormal(0, 1, -0.5, 2) // asymmetric truncation
	rng := NewRand(2)
	xs := tn.SampleN(rng, 200000)
	wantMean := tn.TruncatedMean()
	wantVar := tn.TruncatedVariance()
	gotMean := Mean(xs)
	gotVar := Variance(xs)
	if !almostEqual(gotMean, wantMean, 0.01) {
		t.Errorf("sample mean %g vs analytic %g", gotMean, wantMean)
	}
	if !almostEqual(gotVar, wantVar, 0.01) {
		t.Errorf("sample variance %g vs analytic %g", gotVar, wantVar)
	}
	// Asymmetric truncation shifts the mean away from the untruncated mean.
	if wantMean <= 0 {
		t.Errorf("truncated mean %g should exceed 0 for this truncation", wantMean)
	}
}

func TestTruncNormalCDF(t *testing.T) {
	tn, _ := NewTruncNormal(0, 1, -1, 1)
	if got := tn.CDF(-2); got != 0 {
		t.Errorf("CDF below lo = %g, want 0", got)
	}
	if got := tn.CDF(2); got != 1 {
		t.Errorf("CDF above hi = %g, want 1", got)
	}
	if got := tn.CDF(0); !almostEqual(got, 0.5, 1e-9) {
		t.Errorf("CDF at center of symmetric truncation = %g, want 0.5", got)
	}
	// CDF is monotone.
	prev := -1.0
	for x := -1.0; x <= 1.0; x += 0.05 {
		v := tn.CDF(x)
		if v < prev {
			t.Fatalf("CDF not monotone at %g", x)
		}
		prev = v
	}
}

func TestTruncNormalDegenerate(t *testing.T) {
	// Truncation interval far in the tail: mass underflows to zero, sampling
	// should degrade gracefully to the nearest bound rather than NaN.
	tn, _ := NewTruncNormal(0, 1, 50, 51)
	rng := NewRand(3)
	x := tn.Sample(rng)
	if math.IsNaN(x) || x < tn.Lo || x > tn.Hi {
		t.Errorf("degenerate sample = %g, want value in [50, 51]", x)
	}
}

func TestTruncNormalSampleDeterminism(t *testing.T) {
	tn, _ := NewTruncNormal(1, 2, 0, 5)
	a := tn.SampleN(NewRand(42), 10)
	b := tn.SampleN(NewRand(42), 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling must be deterministic for a fixed seed")
		}
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		pa := math.Abs(math.Mod(a, 1))
		pb := math.Abs(math.Mod(b, 1))
		if math.IsNaN(pa) || math.IsNaN(pb) || pa == 0 || pb == 0 {
			return true
		}
		if pa > pb {
			pa, pb = pb, pa
		}
		return StdNormalQuantile(pa) <= StdNormalQuantile(pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSplitRandStreamsIndependent(t *testing.T) {
	r1 := SplitRand(7, 1)
	r2 := SplitRand(7, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if r1.Float64() == r2.Float64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams produced %d identical draws; expected decorrelated streams", same)
	}
	// Same (seed, stream) reproduces.
	a := SplitRand(9, 3).Float64()
	b := SplitRand(9, 3).Float64()
	if a != b {
		t.Error("SplitRand must be deterministic")
	}
}

// TestSplitSeedReseedMatchesSplitRand: one generator reseeded with
// SplitSeed draws exactly the stream SplitRand allocates a fresh source
// for, whatever the generator drew before the reseed.
func TestSplitSeedReseedMatchesSplitRand(t *testing.T) {
	reused := NewRand(0)
	for _, seed := range []int64{0, 1, -7, 2016, math.MaxInt64, math.MinInt64} {
		for stream := int64(-2); stream < 40; stream++ {
			reused.Seed(SplitSeed(seed, stream))
			fresh := SplitRand(seed, stream)
			for k := 0; k < 64; k++ {
				var got, want uint64
				switch k % 4 {
				case 0:
					got, want = uint64(reused.Int63()), uint64(fresh.Int63())
				case 1:
					got, want = math.Float64bits(reused.Float64()), math.Float64bits(fresh.Float64())
				case 2:
					got, want = math.Float64bits(reused.NormFloat64()), math.Float64bits(fresh.NormFloat64())
				default:
					got, want = math.Float64bits(reused.ExpFloat64()), math.Float64bits(fresh.ExpFloat64())
				}
				if got != want {
					t.Fatalf("seed %d stream %d draw %d: reseeded %#x, SplitRand %#x", seed, stream, k, got, want)
				}
			}
			// Leave the reused generator mid-stream so the next reseed
			// must discard real state.
			reused.Int63()
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	orig := make([]float64, len(xs))
	copy(orig, xs)
	Shuffle(NewRand(11), xs)
	if len(xs) != len(orig) {
		t.Fatal("length changed")
	}
	sum := Sum(xs)
	if !almostEqual(sum, Sum(orig), 1e-12) {
		t.Error("shuffle must preserve multiset")
	}
}
