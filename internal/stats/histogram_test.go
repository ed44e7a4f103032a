package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram([]float64{1}); err == nil {
		t.Error("single edge should be rejected")
	}
	if _, err := NewHistogram([]float64{1, 1}); err == nil {
		t.Error("non-increasing edges should be rejected")
	}
	if _, err := NewHistogram([]float64{2, 1}); err == nil {
		t.Error("decreasing edges should be rejected")
	}
	if _, err := NewHistogram([]float64{0, 1, 2}); err != nil {
		t.Errorf("valid edges rejected: %v", err)
	}
}

func TestLinearEdges(t *testing.T) {
	edges := LinearEdges(0, 10, 5)
	want := []float64{0, 2, 4, 6, 8, 10}
	if len(edges) != len(want) {
		t.Fatalf("len = %d, want %d", len(edges), len(want))
	}
	for i := range want {
		if !almostEqual(edges[i], want[i], 1e-12) {
			t.Errorf("edge[%d] = %g, want %g", i, edges[i], want[i])
		}
	}
	// Reversed bounds are normalized.
	edges = LinearEdges(10, 0, 2)
	if edges[0] != 0 || edges[2] != 10 {
		t.Error("reversed bounds should be swapped")
	}
	// Degenerate range still yields increasing edges.
	edges = LinearEdges(5, 5, 3)
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) {
			t.Fatal("degenerate-range edges must still increase")
		}
	}
	// bins < 1 clamps to 1.
	if got := LinearEdges(0, 1, 0); len(got) != 2 {
		t.Errorf("clamped bins edges len = %d, want 2", len(got))
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram([]float64{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		x    float64
		want int
	}{
		{-5, 0},  // below range clamps to first bin
		{0, 0},   // left edge
		{0.5, 0}, //
		{1, 1},   // interior edge belongs to the right bin
		{1.5, 1}, //
		{2.999, 2},
		{3, 2},   // top edge belongs to last bin
		{100, 2}, // above range clamps to last bin
	}
	for _, tt := range tests {
		if got := h.BinIndex(tt.x); got != tt.want {
			t.Errorf("BinIndex(%g) = %d, want %d", tt.x, got, tt.want)
		}
	}
	if h.BinIndex(math.NaN()) != -1 {
		t.Error("NaN should map to -1")
	}
	h.Add(math.NaN())
	if h.total != 0 {
		t.Error("NaN must not be counted")
	}
}

func TestHistogramCountsAndProbabilities(t *testing.T) {
	h, err := NewHistogramFromData([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins() != 5 {
		t.Fatalf("Bins = %d, want 5", h.Bins())
	}
	if h.total != 10 {
		t.Fatalf("total = %d, want 10", h.total)
	}
	sum := 0
	for _, c := range h.counts {
		sum += c
	}
	if sum != 10 {
		t.Errorf("counts sum = %d, want 10", sum)
	}
	probs := h.Probabilities()
	var psum float64
	for _, p := range probs {
		psum += p
	}
	if !almostEqual(psum, 1, 1e-12) {
		t.Errorf("probabilities sum = %g, want 1", psum)
	}
}

func TestHistogramFromDataEmpty(t *testing.T) {
	if _, err := NewHistogramFromData(nil, 5); err == nil {
		t.Error("empty data should be rejected")
	}
}

func TestHistogramCloneAndReset(t *testing.T) {
	h, _ := NewHistogramFromData([]float64{1, 2, 3}, 3)
	c := h.Clone()
	if c.total != 0 {
		t.Error("clone should start empty")
	}
	if c.Bins() != h.Bins() {
		t.Error("clone must share bin structure")
	}
	c.Add(2)
	if h.total != 3 {
		t.Error("adding to clone must not affect original")
	}
	h.Reset()
	if h.total != 0 {
		t.Error("Reset should zero counts")
	}
	for _, n := range h.counts {
		if n != 0 {
			t.Error("Reset should zero every bin")
		}
	}
}

func TestHistogramDistribution(t *testing.T) {
	h, _ := NewHistogramFromData([]float64{0, 10}, 10)
	d := h.Distribution([]float64{1, 1, 9})
	var sum float64
	for _, p := range d {
		sum += p
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Errorf("distribution sums to %g, want 1", sum)
	}
	// Original histogram counts untouched.
	if h.total != 2 {
		t.Errorf("Distribution must not mutate source histogram (total=%d)", h.total)
	}
	// Value 1 sits on an interior edge and belongs to the right bin.
	if d[1] != 2.0/3.0 {
		t.Errorf("d[1] = %g, want 2/3", d[1])
	}
}

func TestHistogramProbabilitiesEmpty(t *testing.T) {
	h, _ := NewHistogram([]float64{0, 1})
	for _, p := range h.Probabilities() {
		if p != 0 {
			t.Error("empty histogram probabilities should be zero")
		}
	}
}

func TestHistogramEdgesCopied(t *testing.T) {
	orig := []float64{0, 1, 2}
	h, _ := NewHistogram(orig)
	orig[0] = -100 // mutating the caller's slice must not affect the histogram
	if h.Edges()[0] != 0 {
		t.Error("histogram must copy edges at construction")
	}
	e := h.Edges()
	e[0] = -100
	if h.Edges()[0] != 0 {
		t.Error("Edges must return a copy")
	}
	if h.String() == "" {
		t.Error("String should be nonempty")
	}
}

func TestQuantileEdges(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	edges, err := QuantileEdges(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 5 {
		t.Fatalf("edges = %d, want 5", len(edges))
	}
	if edges[0] != 1 || edges[4] != 8 {
		t.Errorf("outer edges = %g, %g", edges[0], edges[4])
	}
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) {
			t.Fatal("edges must strictly increase")
		}
	}
	if _, err := QuantileEdges(nil, 3); err == nil {
		t.Error("empty data should error")
	}
	// Heavy ties (many zeros) still produce strictly increasing edges.
	ties := []float64{0, 0, 0, 0, 0, 0, 1, 2}
	edges, err = QuantileEdges(ties, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) {
			t.Fatal("tied edges must be separated")
		}
	}
	// bins < 1 clamps.
	if e, _ := QuantileEdges(data, 0); len(e) != 2 {
		t.Error("bins should clamp to 1")
	}
	// Constant data degrades gracefully.
	if _, err := QuantileEdges([]float64{5, 5, 5}, 3); err != nil {
		t.Errorf("constant data: %v", err)
	}
}

func TestNewHistogramFromDataQuantile(t *testing.T) {
	// Skewed data: equal-frequency bins hold ~equal mass.
	data := make([]float64, 1000)
	rng := NewRand(9)
	for i := range data {
		v := rng.NormFloat64()
		data[i] = v * v * v // heavy tails
	}
	h, err := NewHistogramFromDataQuantile(data, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.total != 1000 {
		t.Fatalf("total = %d", h.total)
	}
	for i, c := range h.counts {
		if c < 50 || c > 200 {
			t.Errorf("bin %d count = %d; equal-frequency bins should hold ~100 each", i, c)
		}
	}
	if _, err := NewHistogramFromDataQuantile(nil, 5); err == nil {
		t.Error("empty data should error")
	}
}

func TestHistogramMassConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := SplitRand(seed, 3)
		n := 1 + rng.Intn(200)
		xs := NormalSample(rng, n, 10, 5)
		h, err := NewHistogramFromData(xs, 1+rng.Intn(20))
		if err != nil {
			return false
		}
		// All mass is captured even with values at the extremes.
		return h.total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHistogramBinIndexConsistencyProperty(t *testing.T) {
	h, _ := NewHistogram(LinearEdges(-3, 3, 12))
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return h.BinIndex(x) == -1
		}
		i := h.BinIndex(x)
		if i < 0 || i >= h.Bins() {
			return false
		}
		edges := h.Edges()
		// For in-range values the bin must bracket x.
		if x >= edges[0] && x <= edges[len(edges)-1] {
			hi := edges[i+1]
			if i == h.Bins()-1 {
				return x >= edges[i]-1e-12 && x <= hi+1e-12
			}
			return x >= edges[i]-1e-12 && x < hi+1e-12
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestHistogramBinIndexMatchesBinarySearch pins the guessed-and-stepped
// BinIndex to the binary search of BinIndexEdges for equal-width,
// quantile, irregular and infinite edges, probing every edge, its
// neighbouring floats, values between and beyond the edges, NaN and ±Inf.
func TestHistogramBinIndexMatchesBinarySearch(t *testing.T) {
	rng := NewRand(11)
	edgeSets := [][]float64{
		LinearEdges(0, 1, 1),
		LinearEdges(-3, 3, 12),
		LinearEdges(5, 5, 10), // padded constant range
		LinearEdges(0, 0, 7),
		LinearEdges(1e-300, 2e-300, 9),
		LinearEdges(-1e300, 1e300, 10),
		{0, 1e-9, 1, 1e9},
		{math.Inf(-1), 0, 1, 2},
		{0, 1, 2, math.Inf(1)},
		{math.Inf(-1), 0, math.Inf(1)},
	}
	for k := 0; k < 200; k++ {
		bins := 1 + rng.Intn(25)
		xs := NormalSample(rng, 1+rng.Intn(300), rng.NormFloat64()*10, 0.1+rng.ExpFloat64()*5)
		if k%2 == 0 {
			lo, hi := MinMax(xs)
			edgeSets = append(edgeSets, LinearEdges(lo, hi, bins))
		} else if e, err := QuantileEdges(xs, bins); err == nil {
			edgeSets = append(edgeSets, e)
		}
	}
	for _, edges := range edgeSets {
		h, err := NewHistogram(edges)
		if err != nil {
			t.Fatalf("edges %v: %v", edges, err)
		}
		probes := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.MaxFloat64, -math.MaxFloat64}
		for i, e := range edges {
			probes = append(probes, e, math.Nextafter(e, math.Inf(1)), math.Nextafter(e, math.Inf(-1)))
			if i > 0 {
				probes = append(probes, edges[i-1]+(e-edges[i-1])/2)
			}
		}
		lo, hi := edges[0], edges[len(edges)-1]
		for j := 0; j < 200; j++ {
			probes = append(probes, lo+(hi-lo)*(rng.Float64()*1.2-0.1))
		}
		for _, x := range probes {
			if got, want := h.BinIndex(x), BinIndexEdges(edges, x); got != want {
				t.Fatalf("edges %v: BinIndex(%v) = %d, binary search %d", edges, x, got, want)
			}
		}
	}
}
