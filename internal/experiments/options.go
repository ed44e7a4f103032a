// Package experiments contains the harnesses that regenerate every table
// and figure in the paper's evaluation (Section VIII):
//
//   - Table I  — the attack-class feasibility matrix, verified by concrete
//     constructions rather than echoed constants;
//   - Table II — Metric 1: the percentage of consumers for whom each
//     detector caught each attack class;
//   - Table III — Metric 2: the maximum electricity and money an attacker
//     gains in one week against each detector;
//   - Fig. 3   — attack-vector illustrations for one consumer;
//   - Fig. 4   — the X/X_i/attack distributions and the KLD distribution
//     with its percentile thresholds;
//   - the Section VIII-B3 dataset validation (peak-heavy fraction);
//   - the fault sweep: Metric 1 against the fraction of readings lost; and
//   - extensions the paper defers or omits: the bin-count, training-length,
//     divergence and bin-placement ablations, the PCA baseline of ref [3],
//     streaming time-to-detection, the false-positive calibration and
//     multi-victim spreading.
//
// The experiment protocol follows Section VIII: per consumer, detectors
// are trained on the training split; the Integrated ARIMA attack is drawn
// `Trials` times and the maximum-profit vector kept; a detector *fails* for
// a consumer when it misses the attack week or flags the consumer's normal
// test week (the false-positive penalty of Section VIII-E); and a failed
// detector concedes the attacker's full gain for that consumer. Every
// experiment trains through the evaluation's one population-training pass,
// and those outside the tables judge the evaluation's own Class-1B draw
// (protocol.go).
package experiments

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pricing"
)

// Options parameterizes an evaluation run.
type Options struct {
	// Dataset selects the consumer population. Defaults to the paper's
	// 500-consumer, 74-week population.
	Dataset dataset.Config
	// TrainWeeks is the training-split size (paper: 60 of 74).
	TrainWeeks int
	// Trials is the number of Integrated-ARIMA attack draws per consumer
	// (paper: 50).
	Trials int
	// Scheme is the TOU pricing scheme (paper: Electric Ireland
	// Nightsaver).
	Scheme pricing.TOU
	// MaxConsumers caps how many consumers are evaluated (0 = all). Tests
	// and quick runs use a subsample.
	MaxConsumers int
	// Seed drives attack sampling.
	Seed int64
	// Parallelism bounds concurrent per-consumer evaluations (0 = GOMAXPROCS).
	Parallelism int
	// Strict restores fail-fast semantics: the first consumer whose
	// evaluation errors (or panics) aborts the whole run. The default is to
	// quarantine the offending consumer, finish everyone else, and report
	// the quarantine alongside the tables — one pathological trace should
	// not cost a multi-hour run.
	Strict bool
	// Checkpoint is the path of a JSON progress file. When set, each
	// completed consumer is recorded (atomic write), and a later run with
	// equivalent options resumes from it instead of re-evaluating. Empty
	// disables checkpointing.
	Checkpoint string
	// Fault optionally injects reading faults into the population before
	// evaluation (the fault plan's FromWeek keeps training data pristine
	// when set to TrainWeeks). A zero plan leaves the data untouched and
	// the results bit-identical to a fault-free run.
	Fault fault.Plan
	// Quality governs masked detection of faulted weeks: the coverage gate
	// below which verdicts are inconclusive and the imputation policy for
	// gaps above it. The zero value selects the detect package defaults.
	Quality detect.QualityPolicy
	// Metrics receives the run's fdeta_eval_* instruments (stage timings,
	// worker utilization, consumer results). Nil selects obs.Default().
	// Excluded from the checkpoint fingerprint: scraping a run does not
	// invalidate its resume state.
	Metrics *obs.Registry `json:"-"`
	// Clock is the timing source behind stage timings, worker-utilization
	// accounting, and the run summary. Nil selects the wall clock; tests
	// inject a fake to pin timing-derived fields. Timings never influence
	// verdicts, so the clock — like Metrics — is excluded from the
	// checkpoint fingerprint.
	Clock obs.Clock `json:"-"`
}

// clock returns the configured timing source, defaulting to the wall
// clock. The evaluation code reads time only through this accessor — the
// determinism lint forbids direct time.Now/Since calls in this package.
func (o Options) clock() obs.Clock {
	if o.Clock == nil {
		return obs.Wall()
	}
	return o.Clock
}

// PaperOptions reproduces the paper's full protocol.
func PaperOptions() Options {
	return Options{
		Dataset:    dataset.PaperConfig(),
		TrainWeeks: 60,
		Trials:     50,
		Scheme:     pricing.Nightsaver(),
		Seed:       2016,
	}
}

// QuickOptions is a scaled-down protocol for tests and smoke runs: fewer
// consumers, shorter histories, fewer trials — same code path.
func QuickOptions() Options {
	return Options{
		Dataset: dataset.Config{
			Residential:  20,
			SMEs:         3,
			Unclassified: 2,
			Weeks:        30,
			VacationRate: 0.005,
			PartyRate:    0.004,
			Seed:         2016,
		},
		TrainWeeks: 28,
		Trials:     8,
		Scheme:     pricing.Nightsaver(),
		Seed:       2016,
	}
}

// Validate checks the options.
func (o Options) Validate() error {
	if err := o.Dataset.Validate(); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	if o.TrainWeeks < 2 || o.TrainWeeks >= o.Dataset.Weeks {
		return fmt.Errorf("experiments: train weeks %d must be in [2, %d)", o.TrainWeeks, o.Dataset.Weeks)
	}
	if o.Trials < 1 {
		return fmt.Errorf("experiments: trials must be >= 1, got %d", o.Trials)
	}
	if o.MaxConsumers < 0 {
		return fmt.Errorf("experiments: negative consumer cap")
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("experiments: negative parallelism")
	}
	if err := o.Fault.Validate(); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	if err := o.Quality.Validate(); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}
