package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram bins observations against a frozen set of edges. The paper's KLD
// detector (Section VII-D) requires that the bin edges computed from the full
// training matrix X be reused exactly when binning each training week X_i and
// each candidate week, so edges are fixed at construction time.
//
// A histogram with B bins has B+1 edges. Values equal to the last edge fall
// into the last bin (matching the numpy/matplotlib convention the paper's
// evaluation tooling would have used); values outside [edges[0], edges[B]]
// are clamped into the first or last bin so that probability mass is never
// silently dropped — an attack vector that pushes readings outside the
// training range must make the week look more anomalous, not invisible.
type Histogram struct {
	edges  []float64
	counts []int
	total  int
	scale  float64 // bins per unit of the edge span: BinIndex's first guess
}

// NewHistogram creates a histogram from explicit, strictly increasing bin
// edges. At least two edges (one bin) are required.
func NewHistogram(edges []float64) (*Histogram, error) {
	if len(edges) < 2 {
		return nil, fmt.Errorf("stats: need at least 2 edges, got %d", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) {
			return nil, fmt.Errorf("stats: edges must be strictly increasing (edge[%d]=%g, edge[%d]=%g)",
				i-1, edges[i-1], i, edges[i])
		}
	}
	e := make([]float64, len(edges))
	copy(e, edges)
	bins := len(e) - 1
	return &Histogram{
		edges:  e,
		counts: make([]int, bins),
		scale:  float64(bins) / (e[bins] - e[0]),
	}, nil
}

// LinearEdges returns bins+1 equally spaced edges spanning [lo, hi].
// If lo == hi the span is widened symmetrically by a small amount so the
// histogram remains usable for constant data.
func LinearEdges(lo, hi float64, bins int) []float64 {
	if bins < 1 {
		bins = 1
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	//lint:ignore floatcmp exact degeneracy test: only a truly empty range needs the synthetic pad, near-equal bounds bin fine
	if lo == hi {
		pad := math.Abs(lo) * 1e-9
		if pad == 0 {
			pad = 1e-9
		}
		lo -= pad
		hi += pad
	}
	edges := make([]float64, bins+1)
	step := (hi - lo) / float64(bins)
	for i := range edges {
		edges[i] = lo + float64(i)*step
	}
	edges[bins] = hi // avoid accumulated floating-point error at the top edge
	return edges
}

// QuantileEdges returns bins+1 edges placed at equally spaced quantiles of
// the data, so each bin holds (approximately) the same number of training
// observations. Duplicate quantiles (heavy ties, e.g. many zero readings)
// are nudged apart by the smallest increment that keeps the edges strictly
// increasing. This is the equal-frequency alternative to LinearEdges for
// the KLD detector's bin-strategy ablation.
func QuantileEdges(data []float64, bins int) ([]float64, error) {
	if len(data) == 0 {
		return nil, ErrEmpty
	}
	if bins < 1 {
		bins = 1
	}
	sorted := make([]float64, len(data))
	copy(sorted, data)
	sort.Float64s(sorted)
	edges := make([]float64, bins+1)
	for i := 0; i <= bins; i++ {
		p := 100 * float64(i) / float64(bins)
		edges[i] = PercentileSorted(sorted, p)
	}
	// Separate ties: each edge must strictly exceed its predecessor.
	span := sorted[len(sorted)-1] - sorted[0]
	eps := span * 1e-9
	if eps == 0 {
		eps = 1e-9
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			edges[i] = edges[i-1] + eps
		}
	}
	return edges, nil
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Edges returns a copy of the bin edges.
func (h *Histogram) Edges() []float64 {
	e := make([]float64, len(h.edges))
	copy(e, h.edges)
	return e
}

// BinIndex returns the bin a value falls into. Values below the first edge
// map to bin 0 and values at or above the last edge map to the last bin.
// NaN values map to -1 and are not counted by Add.
//
// The result is always BinIndexEdges(edges, x). Instead of a binary search,
// the bin is first guessed from the value's offset into the edge span — exact
// up to rounding for equal-width edges — and then stepped until
// edges[i] <= x < edges[i+1], so any strictly increasing edges bin correctly.
func (h *Histogram) BinIndex(x float64) int {
	e := h.edges
	last := len(e) - 2
	switch {
	case math.IsNaN(x):
		return -1
	case x <= e[0]:
		return 0
	case x >= e[last+1]:
		return last
	}
	// An infinite edge makes the guess NaN, which starts at the last bin.
	i := last
	if f := (x - e[0]) * h.scale; f < float64(last) {
		i = 0
		if f > 0 {
			i = int(f)
		}
	}
	for i > 0 && e[i] > x {
		i--
	}
	for i < last && e[i+1] <= x {
		i++
	}
	return i
}

// BinIndexEdges is BinIndex over a bare edge slice (len(edges)-1 bins), for
// callers that keep frozen edges without a full Histogram — the compact
// streaming detector state bins each live reading against edges it carries
// itself. Semantics are identical to Histogram.BinIndex: clamped at both
// ends, NaN maps to -1.
func BinIndexEdges(edges []float64, x float64) int {
	if math.IsNaN(x) {
		return -1
	}
	if x <= edges[0] {
		return 0
	}
	last := len(edges) - 2
	if x >= edges[len(edges)-1] {
		return last
	}
	// Binary search for the rightmost edge <= x.
	lo, hi := 0, len(edges)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if edges[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// AddBin counts one observation directly into bin i, for callers that have
// already computed BinIndex to feed a second tally in the same pass (the KLD
// detectors' training bins each value once for both the global X histogram
// and its week's distribution). Negative indices — BinIndex's NaN
// sentinel — are ignored, matching Add.
func (h *Histogram) AddBin(i int) {
	if i < 0 {
		return
	}
	h.counts[i]++
	h.total++
}

// Probabilities returns the relative frequency of each bin: the count
// normalized by the total number of observations (the p(X^(j)) of Eq. 12).
// If no observations were added, every probability is zero.
func (h *Histogram) Probabilities() []float64 {
	p := make([]float64, len(h.counts))
	if h.total == 0 {
		return p
	}
	n := float64(h.total)
	for i, c := range h.counts {
		p[i] = float64(c) / n
	}
	return p
}

// Distribution bins the sample xs against this histogram's edges and returns
// the resulting relative frequencies without disturbing the histogram's own
// counts. This is the operation used to form each X_i distribution from the
// frozen X edges.
func (h *Histogram) Distribution(xs []float64) []float64 {
	return h.DistributionInto(make([]float64, len(h.counts)), xs)
}

// DistributionInto is Distribution writing into a caller-provided slice,
// which must have length Bins(). Counts below 2^53 are exact in float64, so
// accumulating them directly in dst yields bit-identical probabilities to
// the integer-count path. NaN observations are ignored, matching Add.
func (h *Histogram) DistributionInto(dst []float64, xs []float64) []float64 {
	for i := range dst {
		dst[i] = 0
	}
	var total int
	for _, x := range xs {
		i := h.BinIndex(x)
		if i < 0 {
			continue
		}
		dst[i]++
		total++
	}
	if total == 0 {
		return dst
	}
	n := float64(total)
	for i := range dst {
		dst[i] /= n
	}
	return dst
}

// String renders a compact textual summary of the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("Histogram{bins=%d, range=[%g,%g], n=%d}",
		h.Bins(), h.edges[0], h.edges[len(h.edges)-1], h.total)
}
