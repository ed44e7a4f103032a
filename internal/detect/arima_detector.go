package detect

import (
	"fmt"

	"repro/internal/arima"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// ARIMAConfig parameterizes the ARIMA and Integrated ARIMA detectors.
type ARIMAConfig struct {
	// Order selects the ARIMA order. The zero value selects by AIC over
	// arima.DefaultCandidates.
	Order arima.Order
	// Level is the confidence level of the per-reading interval (default
	// 0.95, the standard choice in ref [2]).
	Level float64
	// CalibrationWeeks is how many trailing training weeks are replayed to
	// calibrate the tolerated violation fraction (default 8).
	CalibrationWeeks int
	// ViolationMargin is added to the calibrated violation fraction to set
	// the decision threshold (default 0.05).
	ViolationMargin float64
}

func (c ARIMAConfig) withDefaults() ARIMAConfig {
	if c.Level == 0 {
		c.Level = 0.95
	}
	if c.CalibrationWeeks == 0 {
		c.CalibrationWeeks = 8
	}
	if c.ViolationMargin == 0 {
		c.ViolationMargin = 0.05
	}
	return c
}

// ARIMADetector is the first-level detector of ref [2]: each new reading is
// compared against the confidence interval of a one-step ARIMA forecast
// conditioned on previously *reported* readings. Because the forecast is
// conditioned on reported data, a false-data injection poisons the model
// and drags the interval along with the attack vector — the feedback loop
// the paper exploits to show this detector's weakness (Section VIII-B1).
type ARIMADetector struct {
	maskedEval
	cfg       ARIMAConfig
	model     *arima.Model
	train     timeseries.Series
	warm      *arima.Predictor // predictor state after consuming the full training series
	z         float64          // confidence-interval quantile for cfg.Level
	threshold float64          // tolerated fraction of out-of-interval readings
	peak      float64          // largest training reading, a proxy for service size
}

// NewARIMADetector fits the model on a private copy of the training series
// and calibrates the violation threshold over the trailing training weeks.
func NewARIMADetector(train timeseries.Series, cfg ARIMAConfig) (*ARIMADetector, error) {
	cfg = cfg.withDefaults()
	if err := validateARIMATrain(train); err != nil {
		return nil, err
	}
	train = train.Clone()
	tf, err := fitARIMA(train, cfg.Order, arima.NewWorkspace())
	if err != nil {
		return nil, err
	}
	return newARIMADetectorFromTrained(train, cfg, tf)
}

func validateARIMATrain(train timeseries.Series) error {
	if train.Weeks() < 2 {
		return fmt.Errorf("detect: ARIMA detector needs >= 2 training weeks, got %d", train.Weeks())
	}
	if err := train.Validate(); err != nil {
		return fmt.Errorf("detect: training series: %w", err)
	}
	return nil
}

// fitARIMA is the one ARIMA fit switch behind every detector constructor: a
// fixed order (non-zero) is fitted directly; otherwise the full default
// candidate grid is searched. The fit aliases train and ws, so both must
// stay untouched while it is in use.
func fitARIMA(train timeseries.Series, order arima.Order, ws *arima.Workspace) (*arima.TrainedFit, error) {
	var tf *arima.TrainedFit
	var err error
	if order != (arima.Order{}) {
		tf, err = arima.FitTrained(train, order, ws)
	} else {
		tf, err = arima.SelectOrderTrained(train, arima.DefaultCandidates(), ws)
	}
	if err != nil {
		return nil, fmt.Errorf("detect: fitting ARIMA: %w", err)
	}
	return tf, nil
}

// newARIMADetectorFromTrained is the one ARIMA-detector assembly. It
// calibrates the violation threshold by replaying the trailing training
// weeks — recording each week's violation fraction and tolerating the worst
// observed plus a margin, which keeps the false-positive rate on normal
// weeks low without hand-tuned constants — and warms the predictor that
// Tracker clones. Both predictors are placed from the fit's retained state
// in O(P+Q+D) (tf.PredictorAt(t) equals model.NewPredictor(train[:t]) bit
// for bit) instead of replaying the training series. train is retained
// as-is, not cloned: the caller owns it and must keep it immutable while
// the detector lives.
func newARIMADetectorFromTrained(train timeseries.Series, cfg ARIMAConfig, tf *arima.TrainedFit) (*ARIMADetector, error) {
	d := &ARIMADetector{
		cfg:   cfg,
		model: tf.Model,
		train: train,
		z:     stats.StdNormalQuantile(0.5 + cfg.Level/2),
	}
	for _, v := range train {
		if v > d.peak {
			d.peak = v
		}
	}
	calWeeks := cfg.CalibrationWeeks
	if calWeeks > train.Weeks()-1 {
		calWeeks = train.Weeks() - 1
	}
	worst := 0.0
	if calWeeks > 0 {
		start := (train.Weeks() - calWeeks) * timeseries.SlotsPerWeek
		pred, err := tf.PredictorAt(start)
		if err != nil {
			return nil, fmt.Errorf("detect: warming predictor: %w", err)
		}
		tracker := &CITracker{pred: pred, z: d.z}
		for w := 0; w < calWeeks; w++ {
			violations := 0
			for s := 0; s < timeseries.SlotsPerWeek; s++ {
				v := train[start+w*timeseries.SlotsPerWeek+s]
				lo, hi := tracker.Bounds()
				if v < lo || v > hi {
					violations++
				}
				tracker.Observe(v)
			}
			frac := float64(violations) / timeseries.SlotsPerWeek
			if frac > worst {
				worst = frac
			}
		}
	}
	d.threshold = worst + cfg.ViolationMargin

	warm, err := tf.PredictorAt(len(train))
	if err != nil {
		return nil, fmt.Errorf("detect: warming predictor: %w", err)
	}
	d.warm = warm
	d.initEval(d)
	return d, nil
}

// Name implements Detector.
func (d *ARIMADetector) Name() string { return "arima" }

// Model exposes the fitted model (used by attack generators replicating the
// utility's detector, Section VIII-B1).
func (d *ARIMADetector) Model() *arima.Model { return d.model }

// Threshold returns the calibrated tolerated violation fraction.
func (d *ARIMADetector) Threshold() float64 { return d.threshold }

// HistoricPeak returns the largest demand in the training series, used by
// attack generators as a proxy for the consumer's service capacity.
func (d *ARIMADetector) HistoricPeak() float64 { return d.peak }

// referenceWeek implements detectorCore: the final training week is the
// trusted imputation anchor.
func (d *ARIMADetector) referenceWeek() timeseries.Series {
	return d.train[len(d.train)-timeseries.SlotsPerWeek:]
}

// detectWeek implements detectorCore: the week is flagged when the fraction
// of readings falling outside the rolling confidence interval exceeds the
// calibrated threshold.
func (d *ARIMADetector) detectWeek(week timeseries.Series) (Verdict, error) {
	if err := validateWeek(week); err != nil {
		return Verdict{}, err
	}
	tracker, err := d.Tracker()
	if err != nil {
		return Verdict{}, err
	}
	violations := 0
	for _, v := range week {
		lo, hi := tracker.Bounds()
		if v < lo || v > hi {
			violations++
		}
		tracker.Observe(v)
	}
	frac := float64(violations) / timeseries.SlotsPerWeek
	verdict := Verdict{
		Score:     frac,
		Threshold: d.threshold,
		Anomalous: frac > d.threshold,
	}
	if verdict.Anomalous {
		verdict.Reason = fmt.Sprintf("%.1f%% of readings outside the %.0f%% confidence interval",
			100*frac, 100*d.cfg.Level)
	}
	return verdict, nil
}

// Tracker returns a confidence-interval tracker warmed on the full training
// series, positioned to judge the first reading after training. The tracker
// is a cheap clone of the detector's pre-warmed predictor state.
func (d *ARIMADetector) Tracker() (*CITracker, error) {
	return &CITracker{pred: d.warm.Clone(), z: d.z}, nil
}

// CITracker exposes the rolling one-step confidence interval. The utility's
// detector and Mallory's replica both advance one of these over the
// *reported* reading stream; feeding it attack readings reproduces the
// model-poisoning feedback described in the paper.
type CITracker struct {
	pred *arima.Predictor
	z    float64
}

// Bounds returns the confidence interval for the next reading, floored at
// zero because demand is nonnegative.
func (t *CITracker) Bounds() (lo, hi float64) {
	point, sigma := t.pred.PredictNext()
	lo = point - t.z*sigma
	hi = point + t.z*sigma
	if lo < 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	return lo, hi
}

// Observe advances the tracker with the reported reading.
func (t *CITracker) Observe(v float64) { t.pred.Observe(v) }

// IntegratedARIMAConfig parameterizes the Integrated ARIMA detector.
type IntegratedARIMAConfig struct {
	ARIMA ARIMAConfig
	// MeanTolerance widens the [min, max] band of training-week means
	// (relative, default 0.05).
	MeanTolerance float64
	// VarianceTolerance widens the variance band (relative, default 0.25).
	VarianceTolerance float64
}

func (c IntegratedARIMAConfig) withDefaults() IntegratedARIMAConfig {
	c.ARIMA = c.ARIMA.withDefaults()
	if c.MeanTolerance == 0 {
		c.MeanTolerance = 0.05
	}
	if c.VarianceTolerance == 0 {
		c.VarianceTolerance = 0.25
	}
	return c
}

// IntegratedARIMADetector augments the ARIMA detector with checks on the
// mean and variance of the candidate week against the range observed across
// training weeks — the mitigation ref [2] added against the plain ARIMA
// attack. The paper shows it is in turn circumvented by the Integrated
// ARIMA attack, which motivates the KLD detector.
type IntegratedARIMADetector struct {
	maskedEval
	cfg    IntegratedARIMAConfig
	inner  *ARIMADetector
	meanLo float64
	meanHi float64
	varHi  float64
}

// NewIntegratedARIMADetector trains the combined detector.
func NewIntegratedARIMADetector(train timeseries.Series, cfg IntegratedARIMAConfig) (*IntegratedARIMADetector, error) {
	cfg = cfg.withDefaults()
	inner, err := NewARIMADetector(train, cfg.ARIMA)
	if err != nil {
		return nil, err
	}
	matrix, err := timeseries.NewWeekMatrix(train, 0)
	if err != nil {
		return nil, fmt.Errorf("detect: integrated ARIMA training: %w", err)
	}
	return NewIntegratedARIMADetectorWithInner(inner, matrix, cfg)
}

// NewIntegratedARIMADetectorWithInner builds the integrated detector around
// an already-trained inner ARIMA detector and training week matrix, so a
// suite that trains both detector rows (plus the attacker's replicas) fits
// the ARIMA grid and replays the calibration weeks exactly once. cfg.ARIMA
// is ignored — the inner detector carries its own configuration.
func NewIntegratedARIMADetectorWithInner(inner *ARIMADetector, matrix *timeseries.WeekMatrix, cfg IntegratedARIMAConfig) (*IntegratedARIMADetector, error) {
	cfg = cfg.withDefaults()
	if inner == nil {
		return nil, fmt.Errorf("detect: nil inner ARIMA detector")
	}
	if matrix == nil || matrix.Rows() < 1 {
		return nil, fmt.Errorf("detect: integrated ARIMA training: empty week matrix")
	}
	means := matrix.RowMeans()
	vars := matrix.RowVariances()
	d := &IntegratedARIMADetector{
		cfg:    cfg,
		inner:  inner,
		meanLo: stats.Min(means) * (1 - cfg.MeanTolerance),
		meanHi: stats.Max(means) * (1 + cfg.MeanTolerance),
		varHi:  stats.Max(vars) * (1 + cfg.VarianceTolerance),
	}
	if d.meanLo < 0 {
		d.meanLo = 0
	}
	d.initEval(d)
	return d, nil
}

// Name implements Detector.
func (d *IntegratedARIMADetector) Name() string { return "integrated-arima" }

// MeanBounds returns the tolerated band for the candidate week's mean —
// public because the Integrated ARIMA *attack* is defined in terms of these
// very thresholds (Section VIII-B1/B2).
func (d *IntegratedARIMADetector) MeanBounds() (lo, hi float64) { return d.meanLo, d.meanHi }

// VarianceCap returns the tolerated upper bound on the week's variance.
func (d *IntegratedARIMADetector) VarianceCap() float64 { return d.varHi }

// Inner exposes the underlying ARIMA detector.
func (d *IntegratedARIMADetector) Inner() *ARIMADetector { return d.inner }

// referenceWeek implements detectorCore.
func (d *IntegratedARIMADetector) referenceWeek() timeseries.Series {
	return d.inner.referenceWeek()
}

// detectWeek implements detectorCore. The inner check goes straight to the
// ARIMA detector's core judgement so the integrated verdict is counted once.
func (d *IntegratedARIMADetector) detectWeek(week timeseries.Series) (Verdict, error) {
	if err := validateWeek(week); err != nil {
		return Verdict{}, err
	}
	base, err := d.inner.detectWeek(week)
	if err != nil {
		return Verdict{}, err
	}
	if base.Anomalous {
		base.Reason = "arima: " + base.Reason
		return base, nil
	}
	mean, std := stats.MeanStd(week)
	variance := std * std
	switch {
	case mean < d.meanLo || mean > d.meanHi:
		return Verdict{
			Anomalous: true,
			Score:     mean,
			Threshold: d.meanHi,
			Reason: fmt.Sprintf("week mean %.4g outside historic band [%.4g, %.4g]",
				mean, d.meanLo, d.meanHi),
		}, nil
	case variance > d.varHi:
		return Verdict{
			Anomalous: true,
			Score:     variance,
			Threshold: d.varHi,
			Reason:    fmt.Sprintf("week variance %.4g above historic cap %.4g", variance, d.varHi),
		}, nil
	}
	// Report the mean-proximity as the score for diagnostics.
	score := 0.0
	if d.meanHi > d.meanLo {
		score = (mean - d.meanLo) / (d.meanHi - d.meanLo)
	}
	return Verdict{Score: score, Threshold: 1}, nil
}
