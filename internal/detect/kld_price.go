package detect

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/stats"
	"repro/internal/timeseries"
)

// TierFunc assigns a price tier (0..NTiers-1) to a half-hour slot of the
// week. For the paper's two-tier Nightsaver TOU scheme, use
// pricing.Nightsaver().TierOf wrapped to the weekly slot; for RTP systems,
// use a quantized price trace (pricing.QuantizeRTP).
type TierFunc func(slotOfWeek int) int

// PriceKLDConfig parameterizes the price-conditioned KLD detector.
type PriceKLDConfig struct {
	// Bins per tier histogram (default 10).
	Bins int
	// Significance as for KLDConfig (default 0.05).
	Significance float64
	// NTiers is the number of price tiers (>= 2 for the detector to add
	// information beyond the plain KLD detector).
	NTiers int
	// Tier maps weekly slots to tiers. Required.
	Tier TierFunc
	// KL configures the divergence computation.
	KL stats.KLOptions
}

func (c PriceKLDConfig) withDefaults() PriceKLDConfig {
	if c.Bins == 0 {
		c.Bins = 10
	}
	if c.Significance == 0 {
		c.Significance = 0.05
	}
	if c.KL == (stats.KLOptions{}) {
		c.KL = stats.DefaultKLOptions()
	}
	return c
}

// Validate checks the configuration.
func (c PriceKLDConfig) Validate() error {
	if c.Bins < 1 {
		return fmt.Errorf("detect: price-KLD bins must be >= 1, got %d", c.Bins)
	}
	if c.Significance <= 0 || c.Significance >= 1 {
		return fmt.Errorf("detect: significance %g outside (0, 1)", c.Significance)
	}
	if c.NTiers < 1 {
		return fmt.Errorf("detect: need >= 1 price tier, got %d", c.NTiers)
	}
	if c.Tier == nil {
		return fmt.Errorf("detect: tier function is required")
	}
	return nil
}

// PriceKLDDetector conditions the KLD detector on the electricity price
// (Section VIII-F3): the X distribution is split into one distribution per
// price tier, and a week's statistic is the sum of per-tier divergences.
// The Optimal Swap attack preserves the week's *overall* reading
// distribution but moves large readings from the peak tier to the off-peak
// tier, so the per-tier distributions shift in opposite directions and the
// summed divergence spikes.
type PriceKLDDetector struct {
	maskedEval
	cfg       PriceKLDConfig
	slotTier  []int              // tier per weekly slot
	tierSlots [][]int            // slot indices per tier, increasing order
	hists     []*stats.Histogram // frozen per-tier histograms of X
	tierProbs [][]float64        // per-tier X distributions
	trainK    []float64
	refWeek   timeseries.Series // final training week, the imputation anchor
	threshold float64
	scratch   *sync.Pool // *priceKLDScratch, shared across derived detectors
}

// priceKLDScratch holds reusable buffers for the per-tier scoring hot path.
type priceKLDScratch struct {
	vals  []float64
	probs []float64
	kl    stats.KLScratch
}

// NewPriceKLDDetector trains the detector.
func NewPriceKLDDetector(train timeseries.Series, cfg PriceKLDConfig) (*PriceKLDDetector, error) {
	if err := cfg.withDefaults().Validate(); err != nil {
		return nil, err
	}
	if train.Weeks() < 2 {
		return nil, fmt.Errorf("detect: price-KLD detector needs >= 2 training weeks, got %d", train.Weeks())
	}
	if err := train.Validate(); err != nil {
		return nil, fmt.Errorf("detect: training series: %w", err)
	}
	matrix, err := timeseries.NewWeekMatrix(train, 0)
	if err != nil {
		return nil, fmt.Errorf("detect: price-KLD training: %w", err)
	}
	return NewPriceKLDDetectorFromMatrix(matrix, cfg)
}

// NewPriceKLDDetectorFromMatrix trains the detector from an already-built
// training week matrix, so a suite can share one matrix across detectors.
func NewPriceKLDDetectorFromMatrix(matrix *timeseries.WeekMatrix, cfg PriceKLDConfig) (*PriceKLDDetector, error) {
	return newPriceKLDDetector(matrix, cfg, &kldTrainScratch{})
}

// newPriceKLDDetector trains the detector in two passes over the training
// matrix and no copy of it: the first finds each tier's value range, the
// second bins every value once into both its tier's X histogram and its
// week's tier tally. Each tier's range is scanned in row-major order, as a
// MinMax over the tier's values would scan them, and integer tallies
// normalize exactly, so every artifact is bit-identical to partitioning the
// values by tier and binning X and each week separately.
func newPriceKLDDetector(matrix *timeseries.WeekMatrix, cfg PriceKLDConfig, sc *kldTrainScratch) (*PriceKLDDetector, error) {
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
	tierSlots := make([][]int, cfg.NTiers)
	for s, tier := range slotTier {
		tierSlots[tier] = append(tierSlots[tier], s)
	}

	rows, tiers := matrix.Rows(), cfg.NTiers
	lo, hi := make([]float64, tiers), make([]float64, tiers)
	for tier, slots := range tierSlots {
		if len(slots) > 0 {
			lo[tier], hi[tier] = matrix.Row(0)[slots[0]], matrix.Row(0)[slots[0]]
		}
	}
	for i := 0; i < rows; i++ {
		for s, v := range matrix.Row(i) {
			tier := slotTier[s]
			if v < lo[tier] {
				lo[tier] = v
			}
			if v > hi[tier] {
				hi[tier] = v
			}
		}
	}
	d := &PriceKLDDetector{
		cfg:       cfg,
		slotTier:  slotTier,
		tierSlots: tierSlots,
		hists:     make([]*stats.Histogram, tiers),
		tierProbs: make([][]float64, tiers),
		trainK:    make([]float64, rows),
		refWeek:   matrix.Row(rows - 1).Clone(),
		scratch:   &sync.Pool{New: func() any { return &priceKLDScratch{} }},
	}
	for tier, slots := range tierSlots {
		if len(slots) == 0 {
			return nil, fmt.Errorf("detect: price tier %d has no training slots", tier)
		}
		h, err := stats.NewHistogram(stats.LinearEdges(lo[tier], hi[tier], cfg.Bins))
		if err != nil {
			return nil, fmt.Errorf("detect: tier %d histogram: %w", tier, err)
		}
		d.hists[tier] = h
	}

	bins := cfg.Bins
	tally := sc.tallies(rows * tiers * bins)
	for i := 0; i < rows; i++ {
		week := tally[i*tiers*bins : (i+1)*tiers*bins]
		for s, v := range matrix.Row(i) {
			tier := slotTier[s]
			idx := d.hists[tier].BinIndex(v)
			if idx < 0 {
				continue
			}
			d.hists[tier].AddBin(idx)
			week[tier*bins+idx]++
		}
	}
	for tier, h := range d.hists {
		d.tierProbs[tier] = h.Probabilities()
	}

	for i := 0; i < rows; i++ {
		var ki float64
		for tier := 0; tier < tiers; tier++ {
			off := (i*tiers + tier) * bins
			kl, err := stats.KLDivergenceWith(normalizeTally(tally[off:off+bins]), d.tierProbs[tier], cfg.KL, &sc.kl)
			if err != nil {
				err = fmt.Errorf("detect: tier %d divergence: %w", tier, err)
				return nil, fmt.Errorf("detect: training week %d: %w", i, err)
			}
			ki += kl
		}
		d.trainK[i] = ki
	}
	d.threshold = stats.Percentile(d.trainK, 100*(1-cfg.Significance))
	if math.IsNaN(d.threshold) {
		return nil, fmt.Errorf("detect: price-KLD threshold undefined")
	}
	d.initEval(d)
	return d, nil
}

// WithSignificance derives a detector sharing this one's per-tier histograms
// and training divergences but thresholding at a different significance
// level; only the percentile is recomputed.
func (d *PriceKLDDetector) WithSignificance(alpha float64) (*PriceKLDDetector, error) {
	cfg := d.cfg
	cfg.Significance = alpha
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := &PriceKLDDetector{
		cfg:       cfg,
		slotTier:  d.slotTier,
		tierSlots: d.tierSlots,
		hists:     d.hists,
		tierProbs: d.tierProbs,
		trainK:    d.trainK, // stats.Percentile copies before sorting
		refWeek:   d.refWeek,
		scratch:   d.scratch,
	}
	out.threshold = stats.Percentile(out.trainK, 100*(1-alpha))
	if math.IsNaN(out.threshold) {
		return nil, fmt.Errorf("detect: price-KLD threshold undefined")
	}
	out.initEval(out)
	return out, nil
}

// Name implements Detector.
func (d *PriceKLDDetector) Name() string {
	return fmt.Sprintf("price-kld-%g%%", 100*d.cfg.Significance)
}

// Divergence computes the summed per-tier divergence of a week. The
// single-week case — every Table II/III scoring call — gathers each tier's
// values through pooled scratch buffers and allocates nothing; partial or
// multi-week inputs fall back to the general partition.
func (d *PriceKLDDetector) Divergence(week timeseries.Series) (float64, error) {
	if len(week) == timeseries.SlotsPerWeek {
		return d.divergenceWeek(week)
	}
	tierVals := make([][]float64, d.cfg.NTiers)
	for s, v := range week {
		tier := d.slotTier[s%timeseries.SlotsPerWeek]
		tierVals[tier] = append(tierVals[tier], v)
	}
	var total float64
	for tier, vals := range tierVals {
		if len(vals) == 0 {
			continue
		}
		probs := d.hists[tier].Distribution(vals)
		kl, err := stats.KLDivergence(probs, d.tierProbs[tier], d.cfg.KL)
		if err != nil {
			return math.NaN(), fmt.Errorf("detect: tier %d divergence: %w", tier, err)
		}
		total += kl
	}
	return total, nil
}

// divergenceWeek scores exactly one week. Tier slot indices are increasing,
// so the gathered value sequence matches the append-order partition of the
// general path and the result is bit-identical.
func (d *PriceKLDDetector) divergenceWeek(week timeseries.Series) (float64, error) {
	sc := d.scratch.Get().(*priceKLDScratch)
	defer d.scratch.Put(sc)
	if cap(sc.vals) < timeseries.SlotsPerWeek {
		sc.vals = make([]float64, timeseries.SlotsPerWeek)
	}
	var total float64
	for tier, slots := range d.tierSlots {
		if len(slots) == 0 {
			continue
		}
		vals := sc.vals[:len(slots)]
		for i, s := range slots {
			vals[i] = week[s]
		}
		h := d.hists[tier]
		if cap(sc.probs) < h.Bins() {
			sc.probs = make([]float64, h.Bins())
		}
		probs := h.DistributionInto(sc.probs[:h.Bins()], vals)
		kl, err := stats.KLDivergenceWith(probs, d.tierProbs[tier], d.cfg.KL, &sc.kl)
		if err != nil {
			return math.NaN(), fmt.Errorf("detect: tier %d divergence: %w", tier, err)
		}
		total += kl
	}
	return total, nil
}

// referenceWeek implements detectorCore.
func (d *PriceKLDDetector) referenceWeek() timeseries.Series { return d.refWeek }

// detectWeek implements detectorCore.
func (d *PriceKLDDetector) detectWeek(week timeseries.Series) (Verdict, error) {
	if err := validateWeek(week); err != nil {
		return Verdict{}, err
	}
	ka, err := d.Divergence(week)
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{
		Score:     ka,
		Threshold: d.threshold,
		Anomalous: ka > d.threshold,
	}
	if v.Anomalous {
		v.Reason = fmt.Sprintf("price-conditioned KL divergence %.4g bits exceeds threshold %.4g",
			ka, d.threshold)
	}
	return v, nil
}
