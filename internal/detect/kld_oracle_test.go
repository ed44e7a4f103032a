package detect

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/stats"
	"repro/internal/timeseries"
)

// histogramOf bins every value of data against the given edges.
func histogramOf(data, edges []float64) (*stats.Histogram, error) {
	h, err := stats.NewHistogram(edges)
	if err != nil {
		return nil, err
	}
	for _, x := range data {
		h.AddBin(h.BinIndex(x))
	}
	return h, nil
}

// referenceKLDDetector is the readable two-pass construction of Section
// VII-D, kept as the oracle for the production constructor: histogram all
// of X, then bin every training week X_i again against the frozen edges
// and measure it against X.
func referenceKLDDetector(matrix *timeseries.WeekMatrix, cfg KLDConfig) (*KLDDetector, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if matrix == nil || matrix.Rows() < 2 {
		return nil, fmt.Errorf("detect: KLD detector needs >= 2 training weeks")
	}
	var hist *stats.Histogram
	var err error
	switch cfg.Binning {
	case EqualFrequency:
		var edges []float64
		if edges, err = stats.QuantileEdges(matrix.Flat(), cfg.Bins); err == nil {
			hist, err = histogramOf(matrix.Flat(), edges)
		}
	default:
		lo, hi := stats.MinMax(matrix.Flat())
		hist, err = histogramOf(matrix.Flat(), stats.LinearEdges(lo, hi, cfg.Bins))
	}
	if err != nil {
		return nil, fmt.Errorf("detect: KLD histogram: %w", err)
	}
	xNorm, err := stats.KLBaseline(hist.Probabilities(), cfg.KL)
	if err != nil {
		return nil, fmt.Errorf("detect: KLD baseline: %w", err)
	}
	d := &KLDDetector{
		cfg:     cfg,
		hist:    hist,
		xProbs:  hist.Probabilities(),
		xNorm:   xNorm,
		trainK:  make([]float64, matrix.Rows()),
		refWeek: matrix.Row(matrix.Rows() - 1).Clone(),
		scratch: &sync.Pool{New: func() any { return &kldScratch{} }},
	}
	for i := 0; i < matrix.Rows(); i++ {
		probs := hist.Distribution(matrix.Row(i))
		var ki float64
		switch cfg.Divergence {
		case SymmetricKL:
			ki, err = stats.SymmetricKLDivergence(probs, d.xProbs, cfg.KL)
		case JensenShannon:
			ki, err = stats.JensenShannonDivergence(probs, d.xProbs, cfg.KL)
		default:
			ki, err = stats.KLDivergence(probs, d.xProbs, cfg.KL)
		}
		if err != nil {
			return nil, fmt.Errorf("detect: training week %d: %w", i, err)
		}
		d.trainK[i] = ki
	}
	d.threshold = stats.Percentile(d.trainK, 100*(1-cfg.Significance))
	if math.IsNaN(d.threshold) {
		return nil, fmt.Errorf("detect: KLD threshold undefined")
	}
	return d, nil
}

// referencePriceKLDDetector is the readable construction of the
// price-conditioned detector (Section VIII-F3): partition every training
// value by its slot's tier, histogram each tier, then score every week as
// the sum of its per-tier divergences.
func referencePriceKLDDetector(matrix *timeseries.WeekMatrix, cfg PriceKLDConfig) (*PriceKLDDetector, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if matrix == nil || matrix.Rows() < 2 {
		return nil, fmt.Errorf("detect: price-KLD detector needs >= 2 training weeks")
	}
	slotTier := make([]int, timeseries.SlotsPerWeek)
	for s := range slotTier {
		tier := cfg.Tier(s)
		if tier < 0 || tier >= cfg.NTiers {
			return nil, fmt.Errorf("detect: tier function returned %d for slot %d (NTiers=%d)", tier, s, cfg.NTiers)
		}
		slotTier[s] = tier
	}
	partition := func(week timeseries.Series) [][]float64 {
		vals := make([][]float64, cfg.NTiers)
		for s, v := range week {
			tier := slotTier[s%timeseries.SlotsPerWeek]
			vals[tier] = append(vals[tier], v)
		}
		return vals
	}
	d := &PriceKLDDetector{
		cfg:       cfg,
		slotTier:  slotTier,
		hists:     make([]*stats.Histogram, cfg.NTiers),
		tierProbs: make([][]float64, cfg.NTiers),
		trainK:    make([]float64, matrix.Rows()),
		refWeek:   matrix.Row(matrix.Rows() - 1).Clone(),
	}
	for tier, vals := range partition(timeseries.Series(matrix.Flat())) {
		if len(vals) == 0 {
			return nil, fmt.Errorf("detect: price tier %d has no training slots", tier)
		}
		lo, hi := stats.MinMax(vals)
		h, err := histogramOf(vals, stats.LinearEdges(lo, hi, cfg.Bins))
		if err != nil {
			return nil, fmt.Errorf("detect: tier %d histogram: %w", tier, err)
		}
		d.hists[tier] = h
		d.tierProbs[tier] = h.Probabilities()
	}
	for i := 0; i < matrix.Rows(); i++ {
		for tier, vals := range partition(matrix.Row(i)) {
			kl, err := stats.KLDivergence(d.hists[tier].Distribution(vals), d.tierProbs[tier], cfg.KL)
			if err != nil {
				err = fmt.Errorf("detect: tier %d divergence: %w", tier, err)
				return nil, fmt.Errorf("detect: training week %d: %w", i, err)
			}
			d.trainK[i] += kl
		}
	}
	d.threshold = stats.Percentile(d.trainK, 100*(1-cfg.Significance))
	if math.IsNaN(d.threshold) {
		return nil, fmt.Errorf("detect: price-KLD threshold undefined")
	}
	return d, nil
}

// oracleMatrix draws a training matrix that stresses binning: heavy-tailed
// readings, exact zeros, constant rows, integer readings that land exactly
// on the edges of a [0, bins] range, and occasional NaN and ±Inf.
func oracleMatrix(t *testing.T, rng *rand.Rand, bins int) *timeseries.WeekMatrix {
	t.Helper()
	rows := 2 + rng.Intn(9)
	series := make(timeseries.Series, rows*timeseries.SlotsPerWeek)
	onEdges := rng.Intn(3) == 0
	for i := 0; i < rows; i++ {
		row := series[i*timeseries.SlotsPerWeek : (i+1)*timeseries.SlotsPerWeek]
		constant := rng.Intn(6) == 0
		level := rng.ExpFloat64()
		for s := range row {
			switch {
			case constant:
				row[s] = level
			case onEdges:
				row[s] = float64(rng.Intn(bins + 1))
			case rng.Intn(8) == 0:
				row[s] = 0
			default:
				row[s] = level * math.Exp(rng.NormFloat64())
			}
		}
	}
	if onEdges {
		// Pin the range to [0, bins] so the integer readings sit on edges.
		series[0], series[1] = 0, float64(bins)
	}
	switch rng.Intn(12) {
	case 0:
		series[rng.Intn(len(series))] = math.NaN()
	case 1:
		series[rng.Intn(len(series))] = math.Inf(1)
	case 2:
		series[rng.Intn(len(series))] = math.Inf(-1)
	case 3:
		// A whole week of missing readings.
		w := rng.Intn(rows)
		for s := 0; s < timeseries.SlotsPerWeek; s++ {
			series[w*timeseries.SlotsPerWeek+s] = math.NaN()
		}
	}
	m, err := timeseries.NewWeekMatrix(series, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameErr requires both constructors to fail identically or both succeed.
func sameErr(t *testing.T, label string, got, want error) bool {
	t.Helper()
	switch {
	case got == nil && want == nil:
		return true
	case got == nil || want == nil || got.Error() != want.Error():
		t.Errorf("%s: production error %v, reference error %v", label, got, want)
	}
	return false
}

// TestKLDTrainingMatchesReference: the production KLD constructor — one
// binning pass feeding both X and the week tallies — reproduces the
// two-pass reference bit for bit for every bin count, binning strategy and
// divergence: bin edges, X counts and probabilities, every training
// divergence, and the threshold.
func TestKLDTrainingMatchesReference(t *testing.T) {
	rng := stats.NewRand(1)
	compared := 0
	for trial := 0; trial < 150; trial++ {
		bins := []int{1, 2, 3, 10, 17}[trial%5]
		cfg := KLDConfig{
			Bins:         bins,
			Binning:      BinStrategy(rng.Intn(2)),
			Divergence:   DivergenceKind(rng.Intn(3)),
			Significance: []float64{0.01, 0.05, 0.1, 0.5}[rng.Intn(4)],
		}
		m := oracleMatrix(t, rng, bins)
		label := fmt.Sprintf("trial %d (%d rows, %+v)", trial, m.Rows(), cfg)
		got, gerr := NewKLDDetectorFromMatrix(m, cfg)
		want, werr := referenceKLDDetector(m, cfg)
		if !sameErr(t, label, gerr, werr) {
			continue
		}
		compared++
		if !sameBits(got.BinEdges(), want.BinEdges()) {
			t.Errorf("%s: bin edges differ", label)
		}
		// Equal totals here and equal X distributions below pin equal counts.
		if got.hist.String() != want.hist.String() {
			t.Errorf("%s: X histogram %v, reference %v", label, got.hist, want.hist)
		}
		if !sameBits(got.XDistribution(), want.XDistribution()) {
			t.Errorf("%s: X distribution differs", label)
		}
		if !sameBits(got.TrainingDivergences(), want.TrainingDivergences()) {
			t.Errorf("%s: training divergences differ:\n got %v\nwant %v", label, got.trainK, want.trainK)
		}
		if math.Float64bits(got.threshold) != math.Float64bits(want.threshold) {
			t.Errorf("%s: threshold %v, reference %v", label, got.threshold, want.threshold)
		}
		if !sameBits(got.refWeek, want.refWeek) {
			t.Errorf("%s: reference week differs", label)
		}
	}
	if compared < 100 {
		t.Errorf("only %d of 150 trials trained; the generator is too hostile to cover the success path", compared)
	}
}

// TestPriceKLDTrainingMatchesReference: the production price-KLD
// constructor — per-tier ranges, then one binning pass with no copy of the
// training values — reproduces the partition-and-rebin reference bit for
// bit: per-tier edges, counts and probabilities, every training
// divergence, and the threshold.
func TestPriceKLDTrainingMatchesReference(t *testing.T) {
	rng := stats.NewRand(2)
	compared := 0
	for trial := 0; trial < 150; trial++ {
		bins := []int{1, 2, 3, 10, 17}[trial%5]
		nTiers := 2 + rng.Intn(2)
		// Random contiguous tier blocks, like a TOU schedule; every tier
		// owns at least one slot.
		cut1 := 1 + rng.Intn(timeseries.SlotsPerWeek-2)
		cut2 := cut1 + 1 + rng.Intn(timeseries.SlotsPerWeek-cut1-1)
		tierOf := func(s int) int {
			switch {
			case s < cut1:
				return 0
			case s < cut2 || nTiers == 2:
				return 1
			default:
				return 2
			}
		}
		cfg := PriceKLDConfig{
			Bins:         bins,
			NTiers:       nTiers,
			Tier:         tierOf,
			Significance: []float64{0.01, 0.05, 0.1, 0.5}[rng.Intn(4)],
		}
		m := oracleMatrix(t, rng, bins)
		label := fmt.Sprintf("trial %d (%d rows, %d bins, %d tiers)", trial, m.Rows(), bins, nTiers)
		got, gerr := NewPriceKLDDetectorFromMatrix(m, cfg)
		want, werr := referencePriceKLDDetector(m, cfg)
		if !sameErr(t, label, gerr, werr) {
			continue
		}
		compared++
		for tier := range want.hists {
			gh, wh := got.hists[tier], want.hists[tier]
			if !sameBits(gh.Edges(), wh.Edges()) {
				t.Errorf("%s: tier %d edges differ", label, tier)
			}
			// Equal totals here and equal probabilities below pin equal counts.
			if gh.String() != wh.String() {
				t.Errorf("%s: tier %d histogram %v, reference %v", label, tier, gh, wh)
			}
			if !sameBits(got.tierProbs[tier], want.tierProbs[tier]) {
				t.Errorf("%s: tier %d probabilities differ", label, tier)
			}
		}
		if !sameBits(got.trainK, want.trainK) {
			t.Errorf("%s: training divergences differ:\n got %v\nwant %v", label, got.trainK, want.trainK)
		}
		if math.Float64bits(got.threshold) != math.Float64bits(want.threshold) {
			t.Errorf("%s: threshold %v, reference %v", label, got.threshold, want.threshold)
		}
		if !sameBits(got.refWeek, want.refWeek) {
			t.Errorf("%s: reference week differs", label)
		}
	}
	if compared < 100 {
		t.Errorf("only %d of 150 trials trained; the generator is too hostile to cover the success path", compared)
	}
}

// TestPriceKLDTrainingRejectsEmptyTier: a tier function that leaves a tier
// without slots is refused, by production and reference alike.
func TestPriceKLDTrainingRejectsEmptyTier(t *testing.T) {
	m := oracleMatrix(t, stats.NewRand(3), 10)
	cfg := PriceKLDConfig{NTiers: 3, Tier: func(s int) int { return s % 2 }}
	_, gerr := NewPriceKLDDetectorFromMatrix(m, cfg)
	_, werr := referencePriceKLDDetector(m, cfg)
	if gerr == nil {
		t.Fatal("a tier without slots must be refused")
	}
	sameErr(t, "empty tier", gerr, werr)
}
