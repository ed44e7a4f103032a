package detect

import (
	"sync/atomic"

	"repro/internal/obs"
)

// metricsReg is the registry detector instruments are created on. It
// defaults to the process-wide obs registry; SetMetricsRegistry redirects
// detectors constructed afterwards (the evaluation pipeline points it at a
// per-run registry so an admin endpoint can export it).
var metricsReg atomic.Pointer[obs.Registry]

func init() {
	metricsReg.Store(obs.Default())
}

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

// The detector instrument names. Package-level constants (lint-enforced:
// fdetalint's metricnames check) so the fdeta_detect_* namespace is
// auditable in one place.
const (
	metricVerdicts     = "fdeta_detect_verdicts_total"
	metricDetectErrors = "fdeta_detect_errors_total"
	metricScore        = "fdeta_detect_score"
)

// The population-trainer instrument names (the fdeta_train_* namespace,
// also owned by this package).
const (
	metricTrainConsumers = "fdeta_train_consumers_total"
	metricTrainWorkers   = "fdeta_train_workers"
)

// trainerMetrics are the population trainer's instruments.
type trainerMetrics struct {
	trainedOK  *obs.Counter
	trainedErr *obs.Counter
	workers    *obs.Gauge
}

func newTrainerMetrics() *trainerMetrics {
	reg := metricsReg.Load()
	return &trainerMetrics{
		trainedOK: reg.Counter(metricTrainConsumers,
			"consumers processed by the population trainer, by result", obs.L("result", "ok")),
		trainedErr: reg.Counter(metricTrainConsumers,
			"consumers processed by the population trainer, by result", obs.L("result", "error")),
		workers: reg.Gauge(metricTrainWorkers,
			"worker-pool size of the most recent population training run"),
	}
}

func (m *trainerMetrics) observeWorkers(n int) {
	if m == nil {
		return
	}
	m.workers.Set(float64(n))
}

func (m *trainerMetrics) observeRun(s PopulationStats) {
	if m == nil {
		return
	}
	m.trainedOK.Add(int64(s.Consumers - s.Failed))
	m.trainedErr.Add(int64(s.Failed))
}

// scoreBuckets span the detectors' test statistics: violation fractions in
// [0, 1], KLD scores of a few bits, and PCA residual norms up to tens.
var scoreBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25}

// detectorMetrics are the shared per-detector-name instruments bumped by the
// maskedEval path. A nil receiver is inert, so partially constructed
// detectors never crash on instrumentation.
type detectorMetrics struct {
	anomalous    *obs.Counter
	normal       *obs.Counter
	inconclusive *obs.Counter
	errors       *obs.Counter
	score        *obs.Histogram
}

func newDetectorMetrics(name string) *detectorMetrics {
	reg := metricsReg.Load()
	det := obs.L("detector", name)
	return &detectorMetrics{
		anomalous: reg.Counter(metricVerdicts,
			"verdicts issued per detector and outcome", det, obs.L("verdict", "anomalous")),
		normal: reg.Counter(metricVerdicts,
			"verdicts issued per detector and outcome", det, obs.L("verdict", "normal")),
		inconclusive: reg.Counter(metricVerdicts,
			"verdicts issued per detector and outcome", det, obs.L("verdict", "inconclusive")),
		errors: reg.Counter(metricDetectErrors,
			"detection calls that returned an error", det),
		score: reg.Histogram(metricScore,
			"test-statistic distribution of definite verdicts", scoreBuckets, det),
	}
}

func (m *detectorMetrics) observe(v Verdict, err error) {
	if m == nil {
		return
	}
	switch {
	case err != nil:
		m.errors.Inc()
	case v.Inconclusive:
		m.inconclusive.Inc()
	case v.Anomalous:
		m.anomalous.Inc()
		m.score.Observe(v.Score)
	default:
		m.normal.Inc()
		m.score.Observe(v.Score)
	}
}
