package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pricing"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// DetectorID names the detector rows of Tables II and III.
type DetectorID string

// The four detector rows of the paper's tables.
const (
	DetARIMA      DetectorID = "arima"
	DetIntegrated DetectorID = "integrated-arima"
	DetKLD5       DetectorID = "kld-5"
	DetKLD10      DetectorID = "kld-10"
)

// DetectorIDs lists the rows in table order.
func DetectorIDs() []DetectorID {
	return []DetectorID{DetARIMA, DetIntegrated, DetKLD5, DetKLD10}
}

// Label renders the detector name as the paper prints it.
func (d DetectorID) Label() string {
	switch d {
	case DetARIMA:
		return "ARIMA detector"
	case DetIntegrated:
		return "Integrated ARIMA detector"
	case DetKLD5:
		return "KLD detector (5% significance)"
	case DetKLD10:
		return "KLD detector (10% significance)"
	default:
		return string(d)
	}
}

// Scenario names the attack columns of Tables II and III.
type Scenario string

// The three evaluated attack scenarios (Section VII-A explains why 1A and
// 4B are excluded from the data-driven evaluation).
const (
	Scen1B   Scenario = "1B"
	Scen2A2B Scenario = "2A/2B"
	Scen3A3B Scenario = "3A/3B"
)

// Scenarios lists the columns in table order.
func Scenarios() []Scenario { return []Scenario{Scen1B, Scen2A2B, Scen3A3B} }

// ConsumerOutcome records one detector×scenario evaluation for one consumer.
type ConsumerOutcome struct {
	ConsumerID int
	// Detected is true when the detector flagged the attack week.
	Detected bool
	// FalsePositive is true when the detector flagged the consumer's
	// normal test week.
	FalsePositive bool
	// Inconclusive is true when a verdict was declined for lack of trusted
	// readings (coverage below the quality gate). The detector has not
	// caught the attack in that case, so inconclusive outcomes count as
	// failures for Metric 1 — that is exactly the detection-degradation
	// effect the fault sweep measures — but the flag lets reports separate
	// "missed" from "could not judge, meter referred as faulty".
	Inconclusive bool
	// StolenKWh is the energy Mallory gains from this consumer in the
	// attack week if the detector fails (Section VIII-E's full penalty).
	StolenKWh float64
	// ProfitUSD is the corresponding monetary gain.
	ProfitUSD float64
}

// Failed applies the Section VIII-E rule.
func (c ConsumerOutcome) Failed() bool { return !c.Detected || c.FalsePositive }

// Cell aggregates a detector×scenario column pair.
type Cell struct {
	Detector DetectorID
	Scenario Scenario
	Outcomes []ConsumerOutcome
}

// DetectionRate is Metric 1: the fraction of consumers for whom the
// detector succeeded (attack caught, no false positive).
func (c *Cell) DetectionRate() float64 {
	if len(c.Outcomes) == 0 {
		return 0
	}
	ok := 0
	for _, o := range c.Outcomes {
		if !o.Failed() {
			ok++
		}
	}
	return float64(ok) / float64(len(c.Outcomes))
}

// InconclusiveCount is the number of consumers whose verdicts were
// declined for lack of trusted readings.
func (c *Cell) InconclusiveCount() int {
	n := 0
	for _, o := range c.Outcomes {
		if o.Inconclusive {
			n++
		}
	}
	return n
}

// TotalStolenKWh sums stolen energy across failed consumers (the paper's
// Metric 2 for Attack Class 1B).
func (c *Cell) TotalStolenKWh() float64 {
	var sum float64
	for _, o := range c.Outcomes {
		if o.Failed() {
			sum += o.StolenKWh
		}
	}
	return sum
}

// MaxStolenKWh is the largest single-consumer stolen energy among failures
// (Metric 2 for Classes 2A/2B).
func (c *Cell) MaxStolenKWh() (kwh float64, consumerID int) {
	for _, o := range c.Outcomes {
		if o.Failed() && o.StolenKWh > kwh {
			kwh = o.StolenKWh
			consumerID = o.ConsumerID
		}
	}
	return kwh, consumerID
}

// TotalProfitUSD sums profit across failed consumers.
func (c *Cell) TotalProfitUSD() float64 {
	var sum float64
	for _, o := range c.Outcomes {
		if o.Failed() {
			sum += o.ProfitUSD
		}
	}
	return sum
}

// MaxProfitUSD is the largest single-consumer profit among failures
// (Metric 2 for Classes 3A/3B).
func (c *Cell) MaxProfitUSD() (usd float64, consumerID int) {
	for _, o := range c.Outcomes {
		if o.Failed() && o.ProfitUSD > usd {
			usd = o.ProfitUSD
			consumerID = o.ConsumerID
		}
	}
	return usd, consumerID
}

// Quarantine records a consumer whose evaluation errored or panicked and
// was excluded from the tables (non-strict runs only).
type Quarantine struct {
	ConsumerID int
	Err        string
}

// Evaluation is the complete result set behind Tables II and III.
type Evaluation struct {
	Options   Options
	Consumers int
	// Quarantined lists the consumers excluded from the tables because
	// their evaluation failed, sorted by ID. Empty on a healthy run.
	Quarantined []Quarantine
	// Summary is the run-level accounting: stage timings, worker
	// utilization, and consumer results.
	Summary RunSummary
	cells   map[DetectorID]map[Scenario]*Cell
}

// Cell fetches one detector×scenario cell.
func (e *Evaluation) Cell(d DetectorID, s Scenario) (*Cell, error) {
	row, ok := e.cells[d]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown detector %q", d)
	}
	cell, ok := row[s]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown scenario %q", s)
	}
	return cell, nil
}

// consumerEval is everything computed for one consumer.
type consumerEval struct {
	id       int
	outcomes map[DetectorID]map[Scenario]ConsumerOutcome
	err      error

	// Stage timings in nanoseconds. Zero for consumers resumed from a
	// checkpoint (their work was paid for by an earlier run).
	trainNS  int64
	attackNS int64
	detectNS int64
	totalNS  int64
}

// evalHook, when non-nil, runs at the start of every consumer evaluation.
// It is a test seam: crash-safety tests install a hook that panics for a
// chosen consumer to prove the worker pool contains the blast radius.
var evalHook func(c *dataset.Consumer)

// evaluateConsumerSafe runs one consumer's evaluation with panic
// containment: a panicking detector (or attack model, or hook) becomes an
// ordinary per-consumer error instead of crashing the whole run. A consumer
// whose split or training failed evaluates to that error.
func evaluateConsumerSafe(c *dataset.Consumer, opts Options, tc *trainedConsumer) (ce consumerEval) {
	defer func() {
		if r := recover(); r != nil {
			ce = consumerEval{id: c.ID, err: fmt.Errorf("panic: %v", r)}
		}
	}()
	if evalHook != nil {
		evalHook(c)
	}
	if tc.err != nil {
		return consumerEval{id: c.ID, err: tc.err}
	}
	return evaluateConsumer(c, opts, tc)
}

// suiteConfig is the one detector-suite configuration the evaluation
// protocol trains.
func suiteConfig(opts Options) detect.SuiteConfig {
	tierFn := func(slotOfWeek int) int {
		return int(opts.Scheme.TierOf(timeseries.Slot(slotOfWeek)))
	}
	return detect.SuiteConfig{
		KLD:      detect.KLDConfig{Significance: 0.05},
		PriceKLD: detect.PriceKLDConfig{NTiers: 2, Tier: tierFn, Significance: 0.05},
	}
}

// splitConsumer produces the training input and test artifacts of one
// consumer: the (possibly imputation-repaired) training split, the test
// split, and the normal test week's quality mask (nil when fully trusted).
func splitConsumer(c *dataset.Consumer, opts Options) (train, test timeseries.Series, normalMask timeseries.Mask, err error) {
	train, test, err = c.Demand.Split(opts.TrainWeeks)
	if err != nil {
		return nil, nil, nil, err
	}
	if test.Weeks() < 1 {
		return nil, nil, nil, fmt.Errorf("no test weeks")
	}
	// Quality-annotated populations (fault injection, real AMI imports):
	// repair the training split by imputation — detectors need a full
	// history — and carry the test week's mask into detection so verdicts
	// honour the coverage gate.
	if c.Quality != nil {
		trainMask, testMask, err := c.Quality.Split(opts.TrainWeeks)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("quality mask: %w", err)
		}
		if !trainMask.AllOK() {
			train, _, err = timeseries.ImputeSeries(train, trainMask, opts.Quality.Impute)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("repairing training split: %w", err)
			}
		}
		if wk := testMask.MustWeek(0); !wk.AllOK() {
			normalMask = wk
		}
	}
	return train, test, normalMask, nil
}

// trainedConsumer is one consumer's training split, test split, normal
// test-week quality mask (nil when fully trusted) and trained detector
// suite, or the error that stopped them.
type trainedConsumer struct {
	train, test timeseries.Series
	normalMask  timeseries.Mask
	suite       *detect.TrainedSuite
	err         error
}

// trainConsumers splits the consumers marked in need and trains all their
// detector suites in one population-trainer pass, byte-identical to
// training each consumer alone. A consumer whose split or training fails
// (or panics) carries its error, a training error wrapped as "detector
// suite: ..."; a failure of the population as a whole fails the call. busy
// is the split and training work in worker-seconds.
func trainConsumers(consumers []dataset.Consumer, need []bool, opts Options, par int) (out []trainedConsumer, busy float64, err error) {
	out = make([]trainedConsumer, len(consumers))
	var trains []timeseries.Series
	var idx []int
	clk := opts.clock()
	start := clk.Now()
	for i := range consumers {
		if !need[i] {
			continue
		}
		tc := &out[i]
		tc.train, tc.test, tc.normalMask, tc.err = splitConsumer(&consumers[i], opts)
		if tc.err == nil {
			trains = append(trains, tc.train)
			idx = append(idx, i)
		}
	}
	if len(trains) == 0 {
		return out, 0, nil
	}
	busy = clk.Since(start).Seconds()
	trainer := detect.NewPopulationTrainer(detect.PopulationConfig{
		Suite:   suiteConfig(opts),
		Workers: par,
		Clock:   clk,
	})
	res, err := trainer.TrainSeries(trains, opts.TrainWeeks)
	if err != nil {
		return nil, 0, fmt.Errorf("experiments: training detector suites: %w", err)
	}
	for j, i := range idx {
		out[i].suite = res.Suites[j]
		if res.Errors[j] != nil {
			out[i].err = fmt.Errorf("detector suite: %w", res.Errors[j])
		}
	}
	return out, busy + res.BusySeconds, nil
}

// RunEvaluation executes the full Table II/III protocol.
//
// Failure semantics: by default a consumer whose evaluation errors or
// panics is quarantined — recorded on Evaluation.Quarantined and excluded
// from the tables — and the run completes; it fails only when *every*
// consumer is quarantined. Options.Strict restores fail-fast. When
// Options.Checkpoint is set, finished consumers are persisted after each
// completion and an interrupted run resumes where it stopped.
func RunEvaluation(opts Options) (*Evaluation, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	clk := opts.clock()
	wallStart := clk.Now()
	met := newEvalMetrics(opts.Metrics)
	ds, err := dataset.Generate(opts.Dataset)
	if err != nil {
		return nil, err
	}
	if err := opts.Fault.Inject(ds); err != nil {
		return nil, err
	}
	consumers := ds.Consumers
	if opts.MaxConsumers > 0 && opts.MaxConsumers < len(consumers) {
		consumers = consumers[:opts.MaxConsumers]
	}

	cp, resumed, err := newCheckpointer(opts.Checkpoint, opts)
	if err != nil {
		return nil, err
	}

	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(consumers) {
		par = len(consumers)
	}
	met.workers.Set(float64(par))

	// Every consumer still to evaluate trains in one population pass before
	// the per-consumer protocol; the population trainer registers its
	// fdeta_train_* instruments on the detect metrics registry. Resumed
	// consumers are not trained.
	need := make([]bool, len(consumers))
	for i := range consumers {
		_, done := resumed[consumers[i].ID]
		need[i] = !done
	}
	trained, trainBusy, err := trainConsumers(consumers, need, opts, par)
	if err != nil {
		return nil, err
	}

	// Workers acquire the semaphore inside their goroutine so the spawn
	// loop never blocks. In strict mode the first consumer error is
	// propagated immediately: remaining workers see the closed stop channel
	// and exit before starting their (expensive) evaluation. In the default
	// quarantine mode only infrastructure errors (checkpoint I/O) stop the
	// run early; consumer failures are collected and reported at the end.
	evals := make([]consumerEval, len(consumers))
	var wg sync.WaitGroup
	sem := make(chan struct{}, par)
	stop := make(chan struct{})
	errCh := make(chan error, 1)
	var stopOnce sync.Once
	abort := func(err error) {
		stopOnce.Do(func() {
			errCh <- err
			close(stop)
		})
	}
	nresumed := 0
	for i := range consumers {
		if ce, ok := resumed[consumers[i].ID]; ok {
			evals[i] = ce
			nresumed++
			met.resumed.Inc()
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case <-stop:
				return
			case sem <- struct{}{}:
			}
			defer func() { <-sem }()
			start := clk.Now()
			ce := evaluateConsumerSafe(&consumers[i], opts, &trained[i])
			ce.totalNS = clk.Since(start).Nanoseconds()
			evals[i] = ce
			// Bump instruments as workers finish so a live run can be
			// watched over the admin endpoint.
			met.observeConsumer(ce)
			if ce.err != nil && opts.Strict {
				abort(fmt.Errorf("experiments: consumer %d: %w", ce.id, ce.err))
				return
			}
			if err := cp.record(ce); err != nil {
				abort(err)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case err := <-errCh:
		// Workers that were already mid-evaluation when the abort fired keep
		// running; wait them out so no goroutine outlives this call still
		// touching the caller's world (the metrics registry, the checkpoint
		// file, the evalHook test seam). stop is closed, so queued workers
		// exit without starting, and stopOnce drops any further abort.
		<-done
		return nil, err
	case <-done:
	}
	// A worker may have errored in the same instant done closed; the error
	// still wins.
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	ev := &Evaluation{
		Options: opts,
		cells:   make(map[DetectorID]map[Scenario]*Cell),
	}
	var firstErr error
	for _, ce := range evals {
		if ce.err == nil {
			ev.Consumers++
			continue
		}
		ev.Quarantined = append(ev.Quarantined, Quarantine{ConsumerID: ce.id, Err: ce.err.Error()})
		if opts.Strict || firstErr == nil {
			firstErr = fmt.Errorf("experiments: consumer %d: %w", ce.id, ce.err)
		}
		if opts.Strict {
			return nil, firstErr
		}
	}
	sort.Slice(ev.Quarantined, func(i, j int) bool {
		return ev.Quarantined[i].ConsumerID < ev.Quarantined[j].ConsumerID
	})
	if ev.Consumers == 0 && firstErr != nil {
		// Every consumer failed: the run produced nothing, so surface the
		// failure instead of an empty table.
		return nil, firstErr
	}
	for _, d := range DetectorIDs() {
		ev.cells[d] = make(map[Scenario]*Cell)
		for _, s := range Scenarios() {
			ev.cells[d][s] = &Cell{Detector: d, Scenario: s}
		}
	}
	for _, ce := range evals {
		if ce.err != nil {
			continue
		}
		for d, row := range ce.outcomes {
			for s, o := range row {
				cell := ev.cells[d][s]
				cell.Outcomes = append(cell.Outcomes, o)
			}
		}
	}
	// Deterministic ordering regardless of scheduling.
	for _, row := range ev.cells {
		for _, cell := range row {
			sort.Slice(cell.Outcomes, func(i, j int) bool {
				return cell.Outcomes[i].ConsumerID < cell.Outcomes[j].ConsumerID
			})
		}
	}

	// Run-level accounting. Busy time is the training pass's worker-seconds
	// plus the per-consumer wall time summed over workers; resumed consumers
	// contribute nothing.
	wall := clk.Since(wallStart).Seconds()
	sum := RunSummary{
		Consumers:   ev.Consumers,
		Quarantined: len(ev.Quarantined),
		Resumed:     nresumed,
		Parallelism: par,
		WallSeconds: wall,
	}
	sum.Stage.Train = trainBusy
	var busyNS int64
	for _, ce := range evals {
		sum.Stage.Train += float64(ce.trainNS) / 1e9
		sum.Stage.Attack += float64(ce.attackNS) / 1e9
		sum.Stage.Detect += float64(ce.detectNS) / 1e9
		sum.Inconclusive += ce.inconclusiveCount()
		busyNS += ce.totalNS
	}
	if wall > 0 && par > 0 {
		sum.WorkerUtilization = (trainBusy + float64(busyNS)/1e9) / (wall * float64(par))
	}
	met.utilization.Set(sum.WorkerUtilization)
	ev.Summary = sum
	if opts.Checkpoint != "" {
		if err := sum.WriteFile(opts.Checkpoint + ".summary.json"); err != nil {
			// A summary is a convenience artifact: losing it should not cost
			// the tables of a long run.
			obs.Logger("eval").Warn("writing run summary", "err", err)
		}
	}
	return ev, nil
}

// evaluateConsumer runs the per-consumer protocol on a trained consumer.
func evaluateConsumer(c *dataset.Consumer, opts Options, tc *trainedConsumer) consumerEval {
	ce := consumerEval{id: c.ID, outcomes: make(map[DetectorID]map[Scenario]ConsumerOutcome)}
	fail := func(err error) consumerEval {
		ce.err = err
		return ce
	}
	clk := opts.clock()
	stageStart := clk.Now()

	normalWeek, normalMask := tc.test.MustWeek(0), tc.normalMask
	attackStart := timeseries.Slot(len(tc.train))

	// The suite was trained once: one ARIMA grid fit + calibration and one
	// week matrix shared by every detector row (and, below, by the
	// attacker's replicas). The 10%-significance rows derive from the 5%
	// ones by recomputing only the percentile threshold.
	suite := tc.suite
	arimaDet := suite.ARIMA()
	integDet := suite.Integrated()
	kld5, err := suite.KLD(0.05)
	if err != nil {
		return fail(fmt.Errorf("kld5: %w", err))
	}
	kld10, err := suite.KLD(0.10)
	if err != nil {
		return fail(fmt.Errorf("kld10: %w", err))
	}
	priceKLD5, err := suite.PriceKLD(0.05)
	if err != nil {
		return fail(fmt.Errorf("price kld5: %w", err))
	}
	priceKLD10, err := suite.PriceKLD(0.10)
	if err != nil {
		return fail(fmt.Errorf("price kld10: %w", err))
	}
	ce.trainNS = clk.Since(stageStart).Nanoseconds()
	stageStart = clk.Now()

	// Generate the attack vectors.
	rng := stats.SplitRand(opts.Seed, int64(c.ID))

	// Class 1B and 2A/2B: worst-of-N Integrated ARIMA attack.
	vec1B, err := worstIntegrated(integDet, attack.Up, opts, rng, func(vec timeseries.Series) (float64, error) {
		// Mallory's profit from victim over-report: what the victim is
		// overbilled (Eq. 10 summed = α).
		return pricing.NeighbourLoss(opts.Scheme, normalWeek, vec, attackStart)
	})
	if err != nil {
		return fail(fmt.Errorf("1B attack: %w", err))
	}
	vec2A, err := worstIntegrated(integDet, attack.Down, opts, rng, func(vec timeseries.Series) (float64, error) {
		return pricing.Profit(opts.Scheme, normalWeek, vec, attackStart)
	})
	if err != nil {
		return fail(fmt.Errorf("2A/2B attack: %w", err))
	}
	// ARIMA attacks (for the ARIMA-detector row of Table III): the
	// strongest attack that still evades the weakest detector.
	arimaUp, err := attack.ARIMAAttack(arimaDet, attack.Up, 0)
	if err != nil {
		return fail(fmt.Errorf("arima up: %w", err))
	}
	arimaDown, err := attack.ARIMAAttack(arimaDet, attack.Down, 0)
	if err != nil {
		return fail(fmt.Errorf("arima down: %w", err))
	}
	// Classes 3A/3B: the Optimal Swap of the consumer's real test week.
	swap, err := attack.OptimalSwap(normalWeek, opts.Scheme)
	if err != nil {
		return fail(fmt.Errorf("swap: %w", err))
	}
	ce.attackNS = clk.Since(stageStart).Nanoseconds()
	stageStart = clk.Now()

	// Gains per scenario and attack vector.
	gain1B := func(vec timeseries.Series) (kwh, usd float64, err error) {
		kwh, err = pricing.StolenEnergy(vec, normalWeek) // victim over-report: stolen = Σ(D'_n - D_n)+
		if err != nil {
			return 0, 0, err
		}
		usd, err = pricing.NeighbourLoss(opts.Scheme, normalWeek, vec, attackStart)
		return kwh, usd, err
	}
	gain2A := func(vec timeseries.Series) (kwh, usd float64, err error) {
		kwh, err = pricing.StolenEnergy(normalWeek, vec)
		if err != nil {
			return 0, 0, err
		}
		usd, err = pricing.Profit(opts.Scheme, normalWeek, vec, attackStart)
		return kwh, usd, err
	}
	gainSwap := func(vec timeseries.Series) (kwh, usd float64, err error) {
		usd, err = pricing.Profit(opts.Scheme, normalWeek, vec, attackStart)
		if err != nil {
			return 0, 0, err
		}
		return 0, usd, nil // a pure swap steals no net energy
	}

	// Detector sets per scenario: the KLD rows use the price-conditioned
	// variant for the load-shifting column (Section VIII-F3).
	type detPair struct {
		id  DetectorID
		det detect.Detector
	}
	weekDetectors := []detPair{
		{DetARIMA, arimaDet},
		{DetIntegrated, integDet},
		{DetKLD5, kld5},
		{DetKLD10, kld10},
	}
	swapDetectors := []detPair{
		{DetARIMA, arimaDet},
		{DetIntegrated, integDet},
		{DetKLD5, priceKLD5},
		{DetKLD10, priceKLD10},
	}

	// The vector each detector row is attacked with (Table III logic: the
	// attacker uses the strongest attack that the row's detector family is
	// known to miss — the CI-riding ARIMA attack against the plain ARIMA
	// detector, the Integrated ARIMA attack against everything else).
	vectorFor := func(d DetectorID, s Scenario) timeseries.Series {
		switch s {
		case Scen1B:
			if d == DetARIMA {
				return arimaUp
			}
			return vec1B
		case Scen2A2B:
			if d == DetARIMA {
				return arimaDown
			}
			return vec2A
		default:
			return swap
		}
	}
	gainFor := func(s Scenario) func(timeseries.Series) (float64, float64, error) {
		switch s {
		case Scen1B:
			return gain1B
		case Scen2A2B:
			return gain2A
		default:
			return gainSwap
		}
	}

	for _, s := range Scenarios() {
		dets := weekDetectors
		if s == Scen3A3B {
			dets = swapDetectors
		}
		gain := gainFor(s)
		for _, dp := range dets {
			vec := vectorFor(dp.id, s)
			// The meter's physical faults corrupt whatever the attacker
			// programmed it to report, so the observed attack week is the
			// tampered vector with the same fault pattern overlaid.
			obsVec, err := fault.Overlay(vec, normalWeek, normalMask)
			if err != nil {
				return fail(fmt.Errorf("%s fault overlay: %w", s, err))
			}
			attacked, err := dp.det.DetectMasked(obsVec, normalMask, opts.Quality)
			if err != nil {
				return fail(fmt.Errorf("%s on %s attack: %w", dp.id, s, err))
			}
			normal, err := dp.det.DetectMasked(normalWeek, normalMask, opts.Quality)
			if err != nil {
				return fail(fmt.Errorf("%s on normal week: %w", dp.id, err))
			}
			o := ConsumerOutcome{
				ConsumerID:    c.ID,
				Detected:      attacked.Anomalous,
				FalsePositive: normal.Anomalous,
				Inconclusive:  attacked.Inconclusive || normal.Inconclusive,
			}
			if o.Failed() {
				kwh, usd, err := gain(vec)
				if err != nil {
					return fail(fmt.Errorf("%s gain: %w", s, err))
				}
				o.StolenKWh, o.ProfitUSD = kwh, usd
			}
			if ce.outcomes[dp.id] == nil {
				ce.outcomes[dp.id] = make(map[Scenario]ConsumerOutcome)
			}
			ce.outcomes[dp.id][s] = o
		}
	}
	ce.detectNS = clk.Since(stageStart).Nanoseconds()
	return ce
}

// worstIntegrated draws opts.Trials Integrated-ARIMA vectors and keeps the
// maximum-profit one among those Mallory's replica of the Integrated ARIMA
// detector does not flag (Section VIII-B's 50-trial protocol plus the
// attacker's self-check).
func worstIntegrated(det *detect.IntegratedARIMADetector, dir attack.Direction, opts Options,
	rng interface{ Int63() int64 }, profit func(timeseries.Series) (float64, error)) (timeseries.Series, error) {
	base := rng.Int63()
	// Trial t draws SplitRand(base, t)'s stream from one reseeded generator.
	trialRNG := stats.NewRand(0)
	vec, _, err := attack.WorstCaseEvading(opts.Trials, func(trial int) (timeseries.Series, error) {
		trialRNG.Seed(stats.SplitSeed(base, int64(trial)))
		return attack.IntegratedARIMAAttack(det, dir, attack.IntegratedARIMAConfig{}, trialRNG)
	}, profit, det.Detect)
	return vec, err
}
