// Package detect implements F-DETA's electricity-theft detectors:
//
//   - the ARIMA detector of ref [2] (rolling one-step confidence-interval
//     check on individual readings, Section VII-C);
//   - the Integrated ARIMA detector of ref [2] (ARIMA check plus historic
//     mean/variance window checks);
//   - the paper's Kullback-Leibler divergence detector over weekly reading
//     distributions (Section VII-D), the main contribution;
//   - the price-conditioned KLD detector that splits distributions by
//     electricity-price tier to catch load-shifting attacks
//     (Section VIII-F3); and
//   - a PCA subspace detector in the spirit of ref [3], included as an
//     additional baseline.
//
// All detectors share the same contract: they are trained once per consumer
// on that consumer's historic (trusted) readings and then judge candidate
// weeks of 336 reported readings. Training state is immutable after
// construction, so one trained detector may be used from multiple goroutines.
package detect

import (
	"fmt"

	"repro/internal/timeseries"
)

// Verdict is the outcome of evaluating one candidate week.
type Verdict struct {
	// Anomalous reports whether the detector flags the week.
	Anomalous bool
	// Inconclusive reports that the detector declined to judge the week
	// because too few trusted readings were available (the coverage gate of
	// masked detection). An inconclusive verdict is never Anomalous: flagging
	// a consumer on a week the meter mostly failed to deliver would turn
	// every outage into a theft accusation. Section V-B's faulty-vs-
	// compromised distinction demands the explicit third state instead.
	Inconclusive bool
	// untrusted is the number of untrusted window slots behind a streaming
	// coverage verdict, so that StreamDetector.Reason can word it later.
	untrusted uint16
	// Score is the detector's test statistic for the week (violation
	// fraction, KL divergence, reconstruction error, ...).
	Score float64
	// Threshold is the decision boundary Score was compared against.
	Threshold float64
	// Reason is a short human-readable explanation for flagged weeks.
	Reason string
}

// Detector judges candidate weeks of reported readings for one consumer.
// Masked evaluation is the contract's single code path: Detect(week) is
// exactly DetectMasked with a nil (all-OK) mask.
type Detector interface {
	// Name identifies the detector in tables and logs.
	Name() string
	// Detect evaluates one candidate week (exactly timeseries.SlotsPerWeek
	// readings) of reported consumption.
	Detect(week timeseries.Series) (Verdict, error)
	// DetectMasked evaluates one candidate week under a quality mask:
	// readings flagged Missing or Corrupt are imputed (above the coverage
	// gate) or the verdict is declared inconclusive (below it). A nil or
	// all-OK mask is exactly Detect. The zero QualityPolicy selects the
	// package defaults.
	DetectMasked(week timeseries.Series, mask timeseries.Mask, policy QualityPolicy) (Verdict, error)
}

// validateWeek enforces the detectors' shared input contract.
func validateWeek(week timeseries.Series) error {
	if len(week) != timeseries.SlotsPerWeek {
		return fmt.Errorf("detect: candidate week has %d readings, want %d",
			len(week), timeseries.SlotsPerWeek)
	}
	return week.Validate()
}
