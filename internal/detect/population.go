package detect

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/arima"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// PopulationConfig parameterizes a PopulationTrainer.
type PopulationConfig struct {
	// Suite configures every consumer's detector suite, exactly as
	// NewTrainedSuite would receive it.
	Suite SuiteConfig
	// Workers bounds the worker pool (default GOMAXPROCS). Each worker owns
	// one reusable arima.Workspace plus KLD scratch, so steady-state
	// training allocations are O(workers), not O(consumers).
	Workers int
	// Clock times each consumer's training for PopulationResult.BusySeconds
	// (default the wall clock). It never affects a trained suite.
	Clock obs.Clock
}

func (c PopulationConfig) withDefaults() PopulationConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Clock == nil {
		c.Clock = obs.Wall()
	}
	return c
}

// PopulationStats summarizes one training run.
type PopulationStats struct {
	// Consumers is the number of consumers attempted.
	Consumers int
	// Failed counts consumers whose training returned an error or
	// panicked.
	Failed int
}

// PopulationResult carries the trained suites in consumer order.
type PopulationResult struct {
	// Suites[i] is consumer i's trained suite, nil when Errors[i] is set.
	Suites []*TrainedSuite
	// Errors[i] is consumer i's training error, nil on success.
	Errors []error
	// Stats summarizes the run.
	Stats PopulationStats
	// BusySeconds is the time the workers spent training consumers, summed
	// over workers (worker-seconds, not wall time). Unlike Stats it depends
	// on the machine and the worker count.
	BusySeconds float64
}

// PopulationTrainer trains detector suites for whole consumer populations.
// It exists because a per-consumer NewTrainedSuite loop repeats work across
// a population: every consumer copies its series and grows megabytes of
// fresh fitting scratch. The trainer trains on views of one
// PopulationMatrix and amortizes the ARIMA workspace and the KLD tally
// buffers to O(workers). Per consumer it runs the same fit switch and suite
// assembly as NewTrainedSuite, so every suite is byte-identical to
// NewTrainedSuite's.
//
// Results are deterministic for any worker count: each consumer's training
// depends only on its own series, and lands in its own result slot.
type PopulationTrainer struct {
	cfg     PopulationConfig
	metrics *trainerMetrics
}

// NewPopulationTrainer builds a trainer. Instruments are registered on the
// detect metrics registry current at construction time.
func NewPopulationTrainer(cfg PopulationConfig) *PopulationTrainer {
	return &PopulationTrainer{cfg: cfg.withDefaults(), metrics: newTrainerMetrics()}
}

// TrainSeries packs the series into a PopulationMatrix (weeks <= 0 selects
// the shortest series' complete weeks) and trains it.
func (t *PopulationTrainer) TrainSeries(series []timeseries.Series, weeks int) (*PopulationResult, error) {
	pop, err := timeseries.PopulationFromSeries(series, weeks)
	if err != nil {
		return nil, err
	}
	return t.Train(pop)
}

// Train fits a detector suite for every consumer in the population on the
// worker pool. Workers pull indices from a channel; each index's result
// lands in its own slot, so scheduling never affects the output. A consumer
// whose training panics gets the panic as its error, and the worker carries
// on with fresh scratch. The returned suites alias the population's storage
// (training series and week matrices are views), so the matrix must not be
// mutated while the suites are in use.
func (t *PopulationTrainer) Train(pop *timeseries.PopulationMatrix) (*PopulationResult, error) {
	if pop == nil || pop.Consumers() == 0 {
		return nil, fmt.Errorf("detect: empty population")
	}
	n := pop.Consumers()
	res := &PopulationResult{
		Suites: make([]*TrainedSuite, n),
		Errors: make([]error, n),
		Stats:  PopulationStats{Consumers: n},
	}
	workers := t.cfg.Workers
	if workers > n {
		workers = n
	}
	t.metrics.observeWorkers(workers)

	// Buffered to the whole population: the feeder enqueues everything
	// without parking, then the workers drain at their own pace.
	work := make(chan int, n)
	busy := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(busy *float64) {
			defer wg.Done()
			sc := newTrainScratch()
			for i := range work {
				start := t.cfg.Clock.Now()
				suite, err := t.trainOneSafe(pop, i, sc)
				*busy += t.cfg.Clock.Since(start).Seconds()
				if errors.Is(err, errTrainPanic) {
					sc = newTrainScratch()
				}
				res.Suites[i], res.Errors[i] = suite, err
			}
		}(&busy[w])
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()

	for _, b := range busy {
		res.BusySeconds += b
	}
	for _, err := range res.Errors {
		if err != nil {
			res.Stats.Failed++
		}
	}
	t.metrics.observeRun(res.Stats)
	return res, nil
}

// trainHook, when non-nil, runs before each consumer's training with the
// consumer's population index. It is a test seam: panic-containment tests
// install a hook that panics for a chosen consumer.
var trainHook func(i int)

// errTrainPanic marks a training error that was a recovered panic.
var errTrainPanic = errors.New("panic")

// trainOneSafe is trainOne with panic containment: a panicking consumer
// becomes that consumer's error instead of crashing the process.
func (t *PopulationTrainer) trainOneSafe(pop *timeseries.PopulationMatrix, i int,
	sc *trainScratch) (suite *TrainedSuite, err error) {
	defer func() {
		if r := recover(); r != nil {
			suite, err = nil, fmt.Errorf("%w: %v", errTrainPanic, r)
		}
	}()
	if trainHook != nil {
		trainHook(i)
	}
	return t.trainOne(pop, i, sc)
}

// trainOne fits one consumer's suite with worker-local scratch.
func (t *PopulationTrainer) trainOne(pop *timeseries.PopulationMatrix, i int, sc *trainScratch) (*TrainedSuite, error) {
	train := pop.Series(i)
	if err := validateARIMATrain(train); err != nil {
		return nil, err
	}
	tf, err := fitARIMA(train, t.cfg.Suite.ARIMA.Order, sc.ws)
	if err != nil {
		return nil, err
	}
	return newSuiteFromTrained(train, pop.Matrix(i), t.cfg.Suite, tf, sc)
}

// trainScratch is one worker's reusable training state.
type trainScratch struct {
	ws  *arima.Workspace
	kld kldTrainScratch
}

func newTrainScratch() *trainScratch {
	return &trainScratch{ws: arima.NewWorkspace()}
}
