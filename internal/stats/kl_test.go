package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKLDivergenceIdentical(t *testing.T) {
	p := []float64{0.25, 0.25, 0.25, 0.25}
	d, err := KLDivergence(p, p, KLOptions{Base: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("KL(p||p) = %g, want 0", d)
	}
}

func TestKLDivergenceKnownValue(t *testing.T) {
	// KL([1,0] || [0.5,0.5]) in bits = 1*log2(1/0.5) = 1.
	p := []float64{1, 0}
	q := []float64{0.5, 0.5}
	d, err := KLDivergence(p, q, KLOptions{Base: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d, 1, 1e-12) {
		t.Errorf("KL = %g, want 1 bit", d)
	}
	// Same in nats.
	d, err = KLDivergence(p, q, KLOptions{Base: math.E})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d, math.Ln2, 1e-12) {
		t.Errorf("KL = %g nats, want ln 2", d)
	}
}

func TestKLDivergenceAsymmetry(t *testing.T) {
	p := []float64{0.9, 0.1}
	q := []float64{0.1, 0.9}
	d1, _ := KLDivergence(p, q, KLOptions{Base: 2})
	d2, _ := KLDivergence(q, p, KLOptions{Base: 2})
	if !almostEqual(d1, d2, 1e-15) {
		// expected for this symmetric swap they are equal; use a different q
		t.Logf("d1=%g d2=%g", d1, d2)
	}
	p = []float64{0.5, 0.5}
	q = []float64{0.9, 0.1}
	d1, _ = KLDivergence(p, q, KLOptions{Base: 2})
	d2, _ = KLDivergence(q, p, KLOptions{Base: 2})
	if almostEqual(d1, d2, 1e-9) {
		t.Errorf("KL should be asymmetric in general: %g vs %g", d1, d2)
	}
}

func TestKLDivergenceUnnormalizedCounts(t *testing.T) {
	// Raw counts should be internally normalized.
	p := []float64{10, 30}
	q := []float64{1, 3}
	d, err := KLDivergence(p, q, KLOptions{Base: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d, 0, 1e-12) {
		t.Errorf("proportional counts should give KL 0, got %g", d)
	}
}

func TestKLDivergenceZeroHandling(t *testing.T) {
	// p has mass where q has none: without smoothing, +Inf.
	p := []float64{0.5, 0.5}
	q := []float64{1, 0}
	d, err := KLDivergence(p, q, KLOptions{Base: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(d, 1) {
		t.Errorf("unsmoothed KL with empty q-bin = %g, want +Inf", d)
	}
	// With smoothing it is finite and large.
	d, err = KLDivergence(p, q, DefaultKLOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(d, 0) || d < 1 {
		t.Errorf("smoothed KL = %g, want large finite value", d)
	}
}

func TestKLDivergenceErrors(t *testing.T) {
	if _, err := KLDivergence([]float64{1}, []float64{0.5, 0.5}, KLOptions{}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := KLDivergence(nil, nil, KLOptions{}); err == nil {
		t.Error("empty distributions should error")
	}
	if _, err := KLDivergence([]float64{-1, 2}, []float64{0.5, 0.5}, KLOptions{}); err == nil {
		t.Error("negative mass should error")
	}
	if _, err := KLDivergence([]float64{0, 0}, []float64{0.5, 0.5}, KLOptions{}); err == nil {
		t.Error("zero-mass p should error")
	}
}

func TestSymmetricKL(t *testing.T) {
	p := []float64{0.7, 0.3}
	q := []float64{0.3, 0.7}
	s, err := SymmetricKLDivergence(p, q, KLOptions{Base: 2})
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := KLDivergence(p, q, KLOptions{Base: 2})
	d2, _ := KLDivergence(q, p, KLOptions{Base: 2})
	if !almostEqual(s, d1+d2, 1e-12) {
		t.Errorf("symmetric KL = %g, want %g", s, d1+d2)
	}
	if _, err := SymmetricKLDivergence([]float64{1}, []float64{1, 1}, KLOptions{}); err == nil {
		t.Error("mismatched lengths should error")
	}
}

func TestJensenShannonBounds(t *testing.T) {
	// JSD in bits is bounded by [0, 1]; maximal for disjoint distributions.
	p := []float64{1, 0}
	q := []float64{0, 1}
	d, err := JensenShannonDivergence(p, q, KLOptions{Base: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d, 1, 1e-9) {
		t.Errorf("JSD of disjoint distributions = %g, want 1", d)
	}
	d, err = JensenShannonDivergence(p, p, KLOptions{Base: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d, 0, 1e-9) {
		t.Errorf("JSD(p,p) = %g, want 0", d)
	}
	if _, err := JensenShannonDivergence([]float64{1}, []float64{1, 1}, KLOptions{}); err == nil {
		t.Error("mismatched lengths should error")
	}
}

func TestKLNonNegativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := SplitRand(seed, 4)
		n := 2 + rng.Intn(20)
		p := make([]float64, n)
		q := make([]float64, n)
		for i := range p {
			p[i] = rng.Float64()
			q[i] = rng.Float64()
		}
		d, err := KLDivergence(p, q, DefaultKLOptions())
		if err != nil {
			return false
		}
		return d >= 0 && !math.IsNaN(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestJSDSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := SplitRand(seed, 5)
		n := 2 + rng.Intn(10)
		p := make([]float64, n)
		q := make([]float64, n)
		for i := range p {
			p[i] = rng.Float64()
			q[i] = rng.Float64()
		}
		d1, err1 := JensenShannonDivergence(p, q, DefaultKLOptions())
		d2, err2 := JensenShannonDivergence(q, p, DefaultKLOptions())
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(d1, d2, 1e-9) && d1 >= -1e-12 && d1 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestKLDivergenceToBaselineMatches: a baseline normalised once by
// KLBaseline gives KLDivergenceWith's divergence bit for bit, zero bins and
// both smoothing settings included, and the same errors.
func TestKLDivergenceToBaselineMatches(t *testing.T) {
	rng := NewRand(6)
	var sc KLScratch
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(17)
		p := make([]float64, n)
		q := make([]float64, n)
		for i := range p {
			if rng.Intn(4) > 0 {
				p[i] = float64(rng.Intn(50))
			}
			if rng.Intn(4) > 0 {
				q[i] = rng.Float64()
			}
		}
		opts := []KLOptions{DefaultKLOptions(), {Base: 2}, {Epsilon: 1e-3, Base: math.E}}[trial%3]
		want, werr := KLDivergenceWith(p, q, opts, &sc)
		qn, qerr := KLBaseline(q, opts)
		if qerr != nil {
			if werr == nil {
				t.Fatalf("trial %d: KLBaseline(%v) = %v, but KLDivergenceWith accepts it", trial, q, qerr)
			}
			continue
		}
		got, gerr := KLDivergenceToBaseline(p, qn, opts, &sc)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("trial %d: error %v, KLDivergenceWith %v", trial, gerr, werr)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: D(%v || %v) = %v, KLDivergenceWith %v", trial, p, q, got, want)
		}
	}
	if _, err := KLDivergenceToBaseline([]float64{1}, []float64{0.5, 0.5}, KLOptions{}, nil); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := KLBaseline(nil, KLOptions{}); err == nil {
		t.Error("an empty baseline should error")
	}
}
