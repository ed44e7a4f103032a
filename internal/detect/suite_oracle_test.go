package detect

import (
	"fmt"

	"repro/internal/arima"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// This file keeps the cold suite assembly as a readable reference for the
// production one (newSuiteFromTrained). It fits through the public arima
// entry points, places fresh predictors from its own retained fit (arima's
// tests check PredictorAt against a cold replay of the history), and
// trains the KLD rows with the two-pass references of kld_oracle_test.go,
// so it shares no assembly code with the population trainer.

// oracleTrainedSuite trains a suite the cold way: one ARIMA grid fit (or a
// fixed-order fit), the calibration replay, one week matrix, and the
// reference KLD constructions.
func oracleTrainedSuite(train timeseries.Series, cfg SuiteConfig) (*TrainedSuite, error) {
	acfg := cfg.ARIMA.withDefaults()
	if err := validateARIMATrain(train); err != nil {
		return nil, err
	}
	var tf *arima.TrainedFit
	var err error
	if acfg.Order == (arima.Order{}) {
		tf, err = arima.SelectOrderTrained(train, arima.DefaultCandidates(), arima.NewWorkspace())
	} else {
		tf, err = arima.FitTrained(train, acfg.Order, arima.NewWorkspace())
	}
	if err != nil {
		return nil, fmt.Errorf("detect: fitting ARIMA: %w", err)
	}
	arimaDet, err := oracleARIMADetector(train, acfg, tf)
	if err != nil {
		return nil, err
	}
	matrix, err := timeseries.NewWeekMatrix(train, 0)
	if err != nil {
		return nil, fmt.Errorf("detect: suite training: %w", err)
	}
	integrated, err := NewIntegratedARIMADetectorWithInner(arimaDet, matrix, cfg.Integrated)
	if err != nil {
		return nil, err
	}
	kldBase, err := referenceKLDDetector(matrix, cfg.KLD)
	if err != nil {
		return nil, err
	}
	kldBase.initEval(kldBase)
	s := &TrainedSuite{
		train:      arimaDet.train,
		matrix:     matrix,
		arimaDet:   arimaDet,
		integrated: integrated,
		kldBase:    kldBase,
	}
	if cfg.PriceKLD.Tier != nil {
		s.priceBase, err = referencePriceKLDDetector(matrix, cfg.PriceKLD)
		if err != nil {
			return nil, err
		}
		s.priceBase.initEval(s.priceBase)
	}
	return s, nil
}

// oracleARIMADetector assembles the ARIMA detector for a retained fit: the
// calibration tracker is placed after the weeks before the calibration
// window, and the detector's predictor after the whole series.
func oracleARIMADetector(train timeseries.Series, cfg ARIMAConfig, tf *arima.TrainedFit) (*ARIMADetector, error) {
	d := &ARIMADetector{
		cfg:   cfg,
		model: tf.Model,
		train: train.Clone(),
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
		tracker, err := d.trackerAt(tf, start)
		if err != nil {
			return nil, err
		}
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
		return nil, fmt.Errorf("detect: placing predictor: %w", err)
	}
	d.warm = warm
	d.initEval(d)
	return d, nil
}

// trackerAt places a fresh confidence-interval tracker at position t of a
// retained fit, independent of the detector's warmed predictor.
func (d *ARIMADetector) trackerAt(tf *arima.TrainedFit, t int) (*CITracker, error) {
	pred, err := tf.PredictorAt(t)
	if err != nil {
		return nil, fmt.Errorf("detect: placing predictor: %w", err)
	}
	return &CITracker{pred: pred, z: d.z}, nil
}
