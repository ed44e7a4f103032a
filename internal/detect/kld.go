package detect

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/stats"
	"repro/internal/timeseries"
)

// DivergenceKind selects the dissimilarity measure the detector thresholds.
// The paper uses plain KL divergence (Eq. 12); the alternatives are
// provided for the design-choice ablation (BenchmarkAblationDivergence).
type DivergenceKind int

// Supported divergence measures.
const (
	// KullbackLeibler is D(week ‖ X), the paper's Eq. 12.
	KullbackLeibler DivergenceKind = iota
	// SymmetricKL is D(week ‖ X) + D(X ‖ week).
	SymmetricKL
	// JensenShannon is the bounded, symmetric JS divergence.
	JensenShannon
)

// String names the divergence kind.
func (k DivergenceKind) String() string {
	switch k {
	case KullbackLeibler:
		return "kl"
	case SymmetricKL:
		return "symmetric-kl"
	case JensenShannon:
		return "jensen-shannon"
	default:
		return fmt.Sprintf("DivergenceKind(%d)", int(k))
	}
}

// BinStrategy selects how the X distribution's histogram edges are placed.
type BinStrategy int

// Bin strategies.
const (
	// EqualWidth spans the training range with B equal-width bins — the
	// paper's construction.
	EqualWidth BinStrategy = iota
	// EqualFrequency places edges at training-data quantiles so each bin
	// carries the same training mass (ablation alternative).
	EqualFrequency
)

// String names the strategy.
func (s BinStrategy) String() string {
	switch s {
	case EqualWidth:
		return "equal-width"
	case EqualFrequency:
		return "equal-frequency"
	default:
		return fmt.Sprintf("BinStrategy(%d)", int(s))
	}
}

// KLDConfig parameterizes the Kullback-Leibler divergence detector of
// Section VII-D.
type KLDConfig struct {
	// Bins is the histogram bin count B (default 10, the paper's choice).
	Bins int
	// Binning selects edge placement (default EqualWidth, the paper's).
	Binning BinStrategy
	// Significance is the upper-tail significance level α of the threshold
	// on the training KLD distribution: 0.05 selects the 95th percentile,
	// 0.10 the 90th (default 0.05).
	Significance float64
	// Divergence selects the dissimilarity measure (default
	// KullbackLeibler, the paper's choice).
	Divergence DivergenceKind
	// KL configures the divergence computation (default: log2 with light
	// smoothing, matching Eq. 12 with finite handling of empty bins).
	KL stats.KLOptions
}

func (c KLDConfig) withDefaults() KLDConfig {
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
func (c KLDConfig) Validate() error {
	if c.Bins < 1 {
		return fmt.Errorf("detect: KLD bins must be >= 1, got %d", c.Bins)
	}
	if c.Significance <= 0 || c.Significance >= 1 {
		return fmt.Errorf("detect: significance %g outside (0, 1)", c.Significance)
	}
	return nil
}

// KLDDetector is the paper's main contribution (Section VII-D): it
// histograms the full training matrix X with B frozen bins, computes the
// divergence K_i = D(X_i ‖ X) for every training week, and flags a new week
// whose divergence K_A exceeds the (1-α)-percentile of the training KLD
// distribution. The method is non-parametric — it assumes nothing about the
// underlying consumption distribution.
type KLDDetector struct {
	maskedEval
	cfg       KLDConfig
	hist      *stats.Histogram
	xProbs    []float64         // the X distribution
	xNorm     []float64         // X normalised once for the KL divergence (stats.KLBaseline)
	trainK    []float64         // K_i per training week
	refWeek   timeseries.Series // final training week, the imputation anchor
	threshold float64
	scratch   *sync.Pool // *kldScratch, shared across derived detectors
}

// kldScratch holds reusable buffers for the KL scoring hot path.
type kldScratch struct {
	probs []float64
	kl    stats.KLScratch
}

// NewKLDDetector trains the detector on the consumer's historic readings.
func NewKLDDetector(train timeseries.Series, cfg KLDConfig) (*KLDDetector, error) {
	if err := cfg.withDefaults().Validate(); err != nil {
		return nil, err
	}
	if train.Weeks() < 2 {
		return nil, fmt.Errorf("detect: KLD detector needs >= 2 training weeks, got %d", train.Weeks())
	}
	if err := train.Validate(); err != nil {
		return nil, fmt.Errorf("detect: training series: %w", err)
	}
	matrix, err := timeseries.NewWeekMatrix(train, 0)
	if err != nil {
		return nil, fmt.Errorf("detect: KLD training: %w", err)
	}
	return NewKLDDetectorFromMatrix(matrix, cfg)
}

// NewKLDDetectorFromMatrix trains the detector from an already-built
// training week matrix, letting a suite share one matrix across every
// detector row instead of re-slicing the series per construction.
func NewKLDDetectorFromMatrix(matrix *timeseries.WeekMatrix, cfg KLDConfig) (*KLDDetector, error) {
	return newKLDDetector(matrix, cfg, &kldTrainScratch{})
}

// kldTrainScratch holds the KLD training buffers, reused across consumers
// by each population-trainer worker.
type kldTrainScratch struct {
	tally []float64 // per-week bin tallies, normalized in place
	kl    stats.KLScratch
}

// tallies returns a zeroed n-float tally buffer.
func (sc *kldTrainScratch) tallies(n int) []float64 {
	if cap(sc.tally) < n {
		sc.tally = make([]float64, n)
	}
	t := sc.tally[:n]
	for i := range t {
		t[i] = 0
	}
	return t
}

// newKLDDetector trains the detector binning each training value exactly
// once: the bin index feeds both the global X histogram and the value's
// week tally. Integer counts are exact in float64, so each normalized week
// tally equals the week's DistributionInto bit for bit, and the histogram,
// X distribution, training divergences and threshold are those of binning
// X and then every X_i separately.
func newKLDDetector(matrix *timeseries.WeekMatrix, cfg KLDConfig, sc *kldTrainScratch) (*KLDDetector, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if matrix == nil || matrix.Rows() < 2 {
		return nil, fmt.Errorf("detect: KLD detector needs >= 2 training weeks")
	}
	var edges []float64
	var err error
	switch cfg.Binning {
	case EqualFrequency:
		edges, err = stats.QuantileEdges(matrix.Flat(), cfg.Bins)
	default:
		lo, hi := stats.MinMax(matrix.Flat())
		edges = stats.LinearEdges(lo, hi, cfg.Bins)
	}
	if err != nil {
		return nil, fmt.Errorf("detect: KLD histogram: %w", err)
	}
	hist, err := stats.NewHistogram(edges)
	if err != nil {
		return nil, fmt.Errorf("detect: KLD histogram: %w", err)
	}
	rows, bins := matrix.Rows(), hist.Bins()
	tally := sc.tallies(rows * bins)
	for i := 0; i < rows; i++ {
		week := tally[i*bins : (i+1)*bins]
		for _, v := range matrix.Row(i) {
			idx := hist.BinIndex(v)
			if idx < 0 {
				continue
			}
			hist.AddBin(idx)
			week[idx]++
		}
	}
	xProbs := hist.Probabilities()
	xNorm, err := stats.KLBaseline(xProbs, cfg.KL)
	if err != nil {
		return nil, fmt.Errorf("detect: KLD baseline: %w", err)
	}
	d := &KLDDetector{
		cfg:     cfg,
		hist:    hist,
		xProbs:  xProbs,
		xNorm:   xNorm,
		trainK:  make([]float64, rows),
		refWeek: matrix.Row(rows - 1).Clone(),
		scratch: &sync.Pool{New: func() any { return &kldScratch{} }},
	}
	for i := 0; i < rows; i++ {
		ki, err := d.divergenceOf(normalizeTally(tally[i*bins:(i+1)*bins]), &sc.kl)
		if err != nil {
			return nil, fmt.Errorf("detect: training week %d: %w", i, err)
		}
		d.trainK[i] = ki
	}
	d.threshold = stats.Percentile(d.trainK, 100*(1-cfg.Significance))
	if math.IsNaN(d.threshold) {
		return nil, fmt.Errorf("detect: KLD threshold undefined")
	}
	d.initEval(d)
	return d, nil
}

// normalizeTally turns integer-valued bin counts into relative frequencies
// in place. Their sum is the exact count of binned observations, so the
// division reproduces Histogram.DistributionInto bit for bit.
func normalizeTally(tally []float64) []float64 {
	var total float64
	for _, c := range tally {
		total += c
	}
	if total > 0 {
		for j := range tally {
			tally[j] /= total
		}
	}
	return tally
}

// WithSignificance derives a detector that shares this one's histogram, X
// distribution, and training divergences but thresholds at a different
// significance level α. Only the percentile is recomputed, so deriving the
// second (and further) significance rows of Table II costs O(weeks log weeks)
// instead of a full retrain.
func (d *KLDDetector) WithSignificance(alpha float64) (*KLDDetector, error) {
	cfg := d.cfg
	cfg.Significance = alpha
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := &KLDDetector{
		cfg:     cfg,
		hist:    d.hist,
		xProbs:  d.xProbs,
		xNorm:   d.xNorm,
		trainK:  d.trainK, // stats.Percentile copies before sorting
		refWeek: d.refWeek,
		scratch: d.scratch,
	}
	out.threshold = stats.Percentile(out.trainK, 100*(1-alpha))
	if math.IsNaN(out.threshold) {
		return nil, fmt.Errorf("detect: KLD threshold undefined")
	}
	out.initEval(out)
	return out, nil
}

// Name implements Detector.
func (d *KLDDetector) Name() string {
	if d.cfg.Divergence != KullbackLeibler {
		return fmt.Sprintf("%s-%g%%", d.cfg.Divergence, 100*d.cfg.Significance)
	}
	return fmt.Sprintf("kld-%g%%", 100*d.cfg.Significance)
}

// Divergence computes K = D(week ‖ X) in bits using the frozen bin edges
// (Eq. 12), or the configured alternative measure. The week is binned
// through a pooled scratch buffer, so the KL path (the paper's default, and
// the one every Table II/III cell exercises) allocates nothing.
func (d *KLDDetector) Divergence(week timeseries.Series) (float64, error) {
	sc := d.scratch.Get().(*kldScratch)
	if cap(sc.probs) < d.hist.Bins() {
		sc.probs = make([]float64, d.hist.Bins())
	}
	k, err := d.divergenceOf(d.hist.DistributionInto(sc.probs[:d.hist.Bins()], week), &sc.kl)
	d.scratch.Put(sc)
	return k, err
}

// divergenceOf measures a binned week distribution against X. The KL case
// is the one the compact stream scores with too: both divide by the X
// baseline normalised once at training.
func (d *KLDDetector) divergenceOf(probs []float64, kl *stats.KLScratch) (float64, error) {
	switch d.cfg.Divergence {
	case SymmetricKL:
		return stats.SymmetricKLDivergence(probs, d.xProbs, d.cfg.KL)
	case JensenShannon:
		return stats.JensenShannonDivergence(probs, d.xProbs, d.cfg.KL)
	default:
		return stats.KLDivergenceToBaseline(probs, d.xNorm, d.cfg.KL, kl)
	}
}

// TrainingDivergences returns a copy of the K_i values (the KLD
// distribution of Fig. 4(b)).
func (d *KLDDetector) TrainingDivergences() []float64 {
	out := make([]float64, len(d.trainK))
	copy(out, d.trainK)
	return out
}

// BinEdges returns the frozen histogram edges of the X distribution.
func (d *KLDDetector) BinEdges() []float64 { return d.hist.Edges() }

// XDistribution returns the baseline X distribution probabilities.
func (d *KLDDetector) XDistribution() []float64 {
	out := make([]float64, len(d.xProbs))
	copy(out, d.xProbs)
	return out
}

// WeekDistribution bins an arbitrary week with the frozen X edges,
// returning its relative frequencies (an X_i distribution, Fig. 4(a)).
func (d *KLDDetector) WeekDistribution(week timeseries.Series) []float64 {
	return d.hist.Distribution(week)
}

// referenceWeek implements detectorCore.
func (d *KLDDetector) referenceWeek() timeseries.Series { return d.refWeek }

// detectWeek implements detectorCore: the null hypothesis that the week is
// normal is rejected when K_A exceeds the (1-α)-percentile threshold.
func (d *KLDDetector) detectWeek(week timeseries.Series) (Verdict, error) {
	if err := validateWeek(week); err != nil {
		return Verdict{}, err
	}
	ka, err := d.Divergence(week)
	if err != nil {
		return Verdict{}, err
	}
	v := kldJudge(ka, d.threshold)
	if v.Anomalous {
		v.Reason = kldReason(ka, d.threshold, d.cfg.Significance)
	}
	return v, nil
}

// kldJudge is the KLD judgement without reason text. Shared by detectWeek
// and the compact streaming state, so their score, threshold and flag are
// bit-identical for identical windows; the stream renders the reason only
// when asked (CompactKLDStream.Reason), in kldReason's words.
func kldJudge(ka, threshold float64) Verdict {
	return Verdict{
		Score:     ka,
		Threshold: threshold,
		Anomalous: ka > threshold,
	}
}

// kldReason words a flagged KLD verdict.
func kldReason(ka, threshold, significance float64) string {
	return fmt.Sprintf("KL divergence %.4g bits exceeds the %g%%-significance threshold %.4g",
		ka, 100*significance, threshold)
}
