package detect

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/timeseries"
)

// SetMetricsRegistry selects the registry that subsequently constructed
// detectors register their instruments on. A nil registry restores the
// process default. Observation never perturbs verdicts, only counts them.
func SetMetricsRegistry(r *obs.Registry) {
	if r == nil {
		r = obs.Default()
	}
	metricsReg.Store(r)
}

// MetricsRegistry returns the registry new detectors instrument into.
func MetricsRegistry() *obs.Registry { return metricsReg.Load() }

// NewTrainedSuite trains the shared artifacts on a private copy of the
// consumer's historic readings. It is the population trainer's path for one
// consumer: the same fit switch and the same suite assembly, with fresh
// scratch.
func NewTrainedSuite(train timeseries.Series, cfg SuiteConfig) (*TrainedSuite, error) {
	if err := validateARIMATrain(train); err != nil {
		return nil, err
	}
	train = train.Clone()
	matrix, err := timeseries.NewWeekMatrix(train, 0)
	if err != nil {
		return nil, fmt.Errorf("detect: suite training: %w", err)
	}
	sc := newTrainScratch()
	tf, err := fitARIMA(train, cfg.ARIMA.Order, sc.ws)
	if err != nil {
		return nil, err
	}
	return newSuiteFromTrained(train, matrix, cfg, tf, sc)
}
