package detect

import (
	"fmt"

	"repro/internal/arima"
	"repro/internal/timeseries"
)

// SuiteConfig parameterizes a TrainedSuite. The zero value reproduces the
// defaults of every individual detector constructor.
type SuiteConfig struct {
	// ARIMA configures the shared ARIMA fit, calibration, and both the
	// plain and integrated detector rows.
	ARIMA ARIMAConfig
	// Integrated configures the mean/variance bands of the integrated
	// detector. Its embedded ARIMA field is ignored — the suite's single
	// ARIMA detector is shared as the inner detector.
	Integrated IntegratedARIMAConfig
	// KLD configures the histogram and divergence of the KLD detectors.
	// Significance selects the base detector; other significance levels are
	// derived via WithSignificance at no retraining cost.
	KLD KLDConfig
	// PriceKLD configures the price-conditioned KLD detectors. The
	// price-conditioned rows are only trained when Tier is non-nil.
	PriceKLD PriceKLDConfig
}

// TrainedSuite fits every artifact the Table II/III protocol needs from one
// training series exactly once: one ARIMA grid fit + calibration replay
// (shared by the ARIMA detector, the integrated detector's inner, and —
// through them — the attacker's replicas), one week matrix, and one
// histogram per KLD detector family. The seed pipeline refitted the
// 7-candidate ARIMA grid twice per consumer and rebuilt the week matrix
// five times; the suite is the fit-once replacement.
//
// All accessors return shared instances. Detectors are stateless across
// Detect calls (each detection pass clones a pre-warmed predictor or uses
// pooled scratch), so the shared instances are safe for concurrent use on
// different weeks.
type TrainedSuite struct {
	train      timeseries.Series
	matrix     *timeseries.WeekMatrix
	arimaDet   *ARIMADetector
	integrated *IntegratedARIMADetector
	kldBase    *KLDDetector
	priceBase  *PriceKLDDetector
}

// newSuiteFromTrained is the one suite assembly, used by the population
// trainer (and the tests' one-series NewTrainedSuite): it builds every
// detector row from a retained fit and the training week matrix, training
// both KLD detectors in the scratch's reusable tally buffers. train and
// matrix are retained as-is, not copied: the population trainer passes
// views of its storage, which must stay immutable while the suite lives.
func newSuiteFromTrained(train timeseries.Series, matrix *timeseries.WeekMatrix,
	cfg SuiteConfig, tf *arima.TrainedFit, sc *trainScratch) (*TrainedSuite, error) {
	arimaDet, err := newARIMADetectorFromTrained(train, cfg.ARIMA.withDefaults(), tf)
	if err != nil {
		return nil, err
	}
	integrated, err := NewIntegratedARIMADetectorWithInner(arimaDet, matrix, cfg.Integrated)
	if err != nil {
		return nil, err
	}
	kldBase, err := newKLDDetector(matrix, cfg.KLD, &sc.kld)
	if err != nil {
		return nil, err
	}
	s := &TrainedSuite{
		train:      train,
		matrix:     matrix,
		arimaDet:   arimaDet,
		integrated: integrated,
		kldBase:    kldBase,
	}
	if cfg.PriceKLD.Tier != nil {
		s.priceBase, err = newPriceKLDDetector(matrix, cfg.PriceKLD, &sc.kld)
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ARIMA returns the shared ARIMA detector.
func (s *TrainedSuite) ARIMA() *ARIMADetector { return s.arimaDet }

// Integrated returns the shared integrated ARIMA detector. Its inner
// detector is the same instance ARIMA() returns.
func (s *TrainedSuite) Integrated() *IntegratedARIMADetector { return s.integrated }

// KLD returns a KLD detector thresholded at significance alpha. The base
// significance returns the suite's shared detector; other levels share its
// histogram and training divergences and recompute only the percentile.
func (s *TrainedSuite) KLD(alpha float64) (*KLDDetector, error) {
	//lint:ignore floatcmp significance levels are assigned literals, never computed; exact match selects the pre-built detector
	if alpha == s.kldBase.cfg.Significance {
		return s.kldBase, nil
	}
	return s.kldBase.WithSignificance(alpha)
}

// PriceKLD returns a price-conditioned KLD detector at significance alpha.
// It errors when the suite was built without a PriceKLD tier function.
func (s *TrainedSuite) PriceKLD(alpha float64) (*PriceKLDDetector, error) {
	if s.priceBase == nil {
		return nil, fmt.Errorf("detect: suite trained without a price tier function")
	}
	//lint:ignore floatcmp significance levels are assigned literals, never computed; exact match selects the pre-built detector
	if alpha == s.priceBase.cfg.Significance {
		return s.priceBase, nil
	}
	return s.priceBase.WithSignificance(alpha)
}
