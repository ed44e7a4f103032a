package detect

import (
	"fmt"

	"repro/internal/timeseries"
)

// detectorCore is the surface each concrete detector implements: its name,
// its judgement over a full trusted week, and the trusted reference week
// that anchors imputation. Everything else — the public Detect/DetectMasked
// pair, the coverage gate, imputation, and verdict metrics — is provided
// once by the embedded maskedEval, so masked evaluation is the single code
// path through every detector.
type detectorCore interface {
	Name() string
	// detectWeek runs the detector's ordinary judgement on a validated,
	// fully-trusted candidate week.
	detectWeek(week timeseries.Series) (Verdict, error)
	// referenceWeek returns the trusted week used as the imputation anchor,
	// typically the final training week.
	referenceWeek() timeseries.Series
}

// maskedEval is embedded by every detector and supplies the shared
// Detect/DetectMasked implementation plus verdict instrumentation.
type maskedEval struct {
	core detectorCore
	met  *detectorMetrics
}

// initEval wires the embedded evaluator to its outer detector. It must be
// the last step of construction: instruments are labelled by Name(), which
// may depend on configuration set earlier in the constructor.
func (e *maskedEval) initEval(c detectorCore) {
	e.core = c
	e.met = newDetectorMetrics(c.Name())
}

// Detect implements Detector as the thin all-OK-mask wrapper around
// DetectMasked.
func (e *maskedEval) Detect(week timeseries.Series) (Verdict, error) {
	return e.DetectMasked(week, nil, QualityPolicy{})
}

// DetectMasked implements Detector: gate on trusted coverage, impute the
// surviving gaps against the detector's trusted reference week, then run the
// detector's ordinary judgement on the filled week. A nil or all-OK mask is
// exactly the unmasked path. The zero QualityPolicy selects the package
// defaults.
func (e *maskedEval) DetectMasked(week timeseries.Series, mask timeseries.Mask, policy QualityPolicy) (Verdict, error) {
	v, err := e.evalMasked(week, mask, policy)
	e.met.observe(v, err)
	return v, err
}

func (e *maskedEval) evalMasked(week timeseries.Series, mask timeseries.Mask, policy QualityPolicy) (Verdict, error) {
	policy = policy.withDefaults()
	if err := policy.Validate(); err != nil {
		return Verdict{}, err
	}
	if len(mask) == 0 {
		return e.core.detectWeek(week)
	}
	if len(mask) != len(week) {
		return Verdict{}, fmt.Errorf("detect: mask length %d does not match week length %d",
			len(mask), len(week))
	}
	if mask.AllOK() {
		return e.core.detectWeek(week)
	}
	if len(week) != timeseries.SlotsPerWeek {
		return Verdict{}, fmt.Errorf("detect: candidate week has %d readings, want %d",
			len(week), timeseries.SlotsPerWeek)
	}
	cov := mask.Coverage()
	if cov < policy.MinCoverage {
		return Verdict{
			Inconclusive: true,
			Reason: fmt.Sprintf("coverage %.1f%% below the %.0f%% gate: %d of %d readings untrusted — verdict inconclusive, meter flagged for investigation as faulty",
				100*cov, 100*policy.MinCoverage, mask.CountBad(), timeseries.SlotsPerWeek),
		}, nil
	}
	filled, _, err := timeseries.ImputeWeek(week, mask, e.core.referenceWeek(), policy.Impute)
	if err != nil {
		return Verdict{}, fmt.Errorf("detect: imputing masked week: %w", err)
	}
	// Corrupt observations may carry non-finite or negative values; they are
	// replaced above, so the filled week must satisfy the ordinary contract.
	v, err := e.core.detectWeek(filled)
	if err != nil {
		return Verdict{}, err
	}
	if v.Anomalous {
		v.Reason = fmt.Sprintf("%s (judged at %.1f%% coverage, %s imputation)",
			v.Reason, 100*cov, policy.Impute)
	}
	return v, nil
}

// Interface compliance checks: every detector provides the full contract.
var (
	_ Detector = (*ARIMADetector)(nil)
	_ Detector = (*IntegratedARIMADetector)(nil)
	_ Detector = (*KLDDetector)(nil)
	_ Detector = (*PriceKLDDetector)(nil)
	_ Detector = (*PCADetector)(nil)
)
