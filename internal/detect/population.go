package detect

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/arima"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// TrainMode selects how the population trainer picks ARIMA orders.
type TrainMode int

const (
	// WarmStartMargin (the default) clusters consumers by consumption shape,
	// fits each cluster seed with the full candidate grid, and warm-starts
	// every other member from the seed's winning order: the warm order is
	// accepted — and the rest of the grid skipped — when its AIC beats the
	// cheapest competing candidate by at least -AICMargin. Detection
	// artifacts may differ from cold-start training only where the AIC race
	// was within the margin.
	WarmStartMargin TrainMode = iota
	// WarmStartExact runs the full candidate grid for every consumer. The
	// resulting suites are byte-identical to per-consumer NewTrainedSuite;
	// the speedup over a NewTrainedSuite loop comes only from scratch reuse,
	// training on views instead of copies, and the worker pool.
	WarmStartExact
)

// String names the mode.
func (m TrainMode) String() string {
	switch m {
	case WarmStartMargin:
		return "warm-margin"
	case WarmStartExact:
		return "exact"
	default:
		return fmt.Sprintf("TrainMode(%d)", int(m))
	}
}

// PopulationConfig parameterizes a PopulationTrainer.
type PopulationConfig struct {
	// Suite configures every consumer's detector suite, exactly as
	// NewTrainedSuite would receive it.
	Suite SuiteConfig
	// Workers bounds the worker pool (default GOMAXPROCS). Each worker owns
	// one reusable arima.Workspace plus KLD scratch, so steady-state
	// training allocations are O(workers), not O(consumers).
	Workers int
	// Mode selects warm-start (default) or exact training.
	Mode TrainMode
	// AICMargin is the warm-start acceptance margin in AIC units (default
	// 2, the conventional "models within 2 AIC are equivalent" rule).
	// Negative disables screening: any successful warm fit is accepted.
	AICMargin float64
	// ClusterTolerance is the largest mean absolute deviation between
	// mean-normalized seasonal profiles that still joins a consumer to an
	// existing cluster (default 0.15).
	ClusterTolerance float64
	// MaxClusters caps the number of clusters; once reached, consumers join
	// the nearest cluster regardless of tolerance (default 64).
	MaxClusters int
	// Candidates is the ARIMA order grid (default arima.DefaultCandidates).
	// Exact mode is byte-identical to NewTrainedSuite only with the default
	// grid, because that is the grid NewTrainedSuite searches.
	Candidates []arima.Order
	// Clock times each consumer's training for PopulationResult.BusySeconds
	// (default the wall clock). It never affects a trained suite.
	Clock obs.Clock
}

func (c PopulationConfig) withDefaults() PopulationConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.AICMargin == 0 {
		c.AICMargin = 2
	}
	if c.ClusterTolerance <= 0 {
		c.ClusterTolerance = 0.15
	}
	if c.MaxClusters <= 0 {
		c.MaxClusters = 64
	}
	if c.Candidates == nil {
		c.Candidates = arima.DefaultCandidates()
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
	// Clusters is the number of shape clusters formed (0 in exact mode or
	// when a fixed order sidesteps selection).
	Clusters int
	// WarmHits counts consumers whose cluster's warm order was accepted.
	WarmHits int
	// WarmMisses counts consumers that fell back to the full grid after a
	// warm attempt.
	WarmMisses int
	// GridFitsSkipped is the total number of candidate fits the warm starts
	// avoided.
	GridFitsSkipped int
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

// workerStats is one worker's share of a run.
type workerStats struct {
	PopulationStats
	busySeconds float64
}

// PopulationTrainer trains detector suites for whole consumer populations.
// It exists because a per-consumer NewTrainedSuite loop repeats work across
// a population: every consumer copies its series, grows megabytes of fresh
// fitting scratch, and re-fits a 7-candidate ARIMA grid even when its
// neighbors already revealed the winning order. The trainer trains on views
// of one PopulationMatrix, amortizes the ARIMA workspace and the KLD tally
// buffers to O(workers), and — in warm-start mode — shares grid-search
// outcomes within shape clusters. Per consumer it runs the same fit switch
// and suite assembly as NewTrainedSuite.
//
// Results are deterministic for any worker count: clustering is a serial
// pass in consumer index order, and each consumer's training depends only
// on its own series plus its cluster seed's winning order.
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

// Train fits a detector suite for every consumer in the population. The
// returned suites alias the population's storage (training series and week
// matrices are views), so the matrix must not be mutated while the suites
// are in use.
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

	// assignment[i] >= 0 names consumer i's cluster; -1 means the consumer
	// trains with the full grid (exact mode, fixed order, or a degenerate
	// profile that cannot be normalized).
	assignment := make([]int, n)
	var clusters []*popCluster
	warmStarting := t.cfg.Mode == WarmStartMargin &&
		t.cfg.Suite.ARIMA.Order == (arima.Order{}) && len(t.cfg.Candidates) > 1
	if warmStarting {
		clusters = t.cluster(pop, assignment)
		res.Stats.Clusters = len(clusters)
	} else {
		for i := range assignment {
			assignment[i] = -1
		}
	}

	workers := t.cfg.Workers
	if workers > n {
		workers = n
	}
	t.metrics.observeWorkers(workers)

	// Phase 1: cluster seeds (and, when not warm-starting, every consumer)
	// run the full candidate grid. Seeds record their winning order for
	// phase 2.
	perWorker := make([]workerStats, workers)
	seeds := make([]int, 0, len(clusters))
	for _, c := range clusters {
		assignment[c.leader] = -1 // seeds never warm-start
		seeds = append(seeds, c.leader)
	}
	phase1 := seeds
	if !warmStarting {
		phase1 = make([]int, n)
		for i := range phase1 {
			phase1[i] = i
		}
	}
	t.runPhase(pop, phase1, assignment, clusters, res, perWorker, workers)
	for _, c := range clusters {
		if res.Errors[c.leader] == nil {
			c.order = res.Suites[c.leader].Model().Order
			c.ok = true
		}
	}

	// Phase 2: followers warm-start from their seed's winning order.
	if warmStarting {
		followers := make([]int, 0, n-len(seeds))
		for i := 0; i < n; i++ {
			if res.Suites[i] == nil && res.Errors[i] == nil {
				followers = append(followers, i)
			}
		}
		t.runPhase(pop, followers, assignment, clusters, res, perWorker, workers)
	}

	for _, s := range perWorker {
		res.Stats.WarmHits += s.WarmHits
		res.Stats.WarmMisses += s.WarmMisses
		res.Stats.GridFitsSkipped += s.GridFitsSkipped
		res.BusySeconds += s.busySeconds
	}
	for _, err := range res.Errors {
		if err != nil {
			res.Stats.Failed++
		}
	}
	t.metrics.observeRun(res.Stats)
	return res, nil
}

// runPhase trains the given consumer indices on the worker pool. Workers
// pull indices from a channel; each index's result lands in its own slot,
// so scheduling never affects the output. A consumer whose training panics
// gets the panic as its error, and the worker carries on with fresh scratch.
func (t *PopulationTrainer) runPhase(pop *timeseries.PopulationMatrix, indices []int,
	assignment []int, clusters []*popCluster, res *PopulationResult,
	perWorker []workerStats, workers int) {
	if len(indices) == 0 {
		return
	}
	if workers > len(indices) {
		workers = len(indices)
	}
	// Buffered to the full index list: the feeder enqueues everything
	// without parking, then the workers drain at their own pace.
	work := make(chan int, len(indices))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(st *workerStats) {
			defer wg.Done()
			sc := newTrainScratch()
			for i := range work {
				var warm *arima.Order
				if ci := assignment[i]; ci >= 0 && clusters[ci].ok {
					warm = &clusters[ci].order
				}
				start := t.cfg.Clock.Now()
				suite, sel, err := t.trainOneSafe(pop, i, warm, sc)
				st.busySeconds += t.cfg.Clock.Since(start).Seconds()
				if errors.Is(err, errTrainPanic) {
					sc = newTrainScratch()
				}
				res.Suites[i], res.Errors[i] = suite, err
				if err == nil && sel != nil {
					if sel.WarmAccepted {
						st.WarmHits++
					} else {
						st.WarmMisses++
					}
					st.GridFitsSkipped += sel.FitsSkipped
				}
			}
		}(&perWorker[w])
	}
	for _, i := range indices {
		work <- i
	}
	close(work)
	wg.Wait()
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
	warm *arima.Order, sc *trainScratch) (suite *TrainedSuite, sel *arima.WarmSelection, err error) {
	defer func() {
		if r := recover(); r != nil {
			suite, sel, err = nil, nil, fmt.Errorf("%w: %v", errTrainPanic, r)
		}
	}()
	if trainHook != nil {
		trainHook(i)
	}
	return t.trainOne(pop, i, warm, sc)
}

// trainOne fits one consumer's suite with worker-local scratch. The
// returned WarmSelection is nil when no warm start was attempted (warm is
// nil).
func (t *PopulationTrainer) trainOne(pop *timeseries.PopulationMatrix, i int,
	warm *arima.Order, sc *trainScratch) (*TrainedSuite, *arima.WarmSelection, error) {
	train := pop.Series(i)
	if err := validateARIMATrain(train); err != nil {
		return nil, nil, err
	}
	tf, sel, err := fitARIMA(train, t.cfg.Suite.ARIMA.Order, t.cfg.Candidates, warm, t.cfg.AICMargin, sc.ws)
	if err != nil {
		return nil, nil, err
	}
	suite, err := newSuiteFromTrained(train, pop.Matrix(i), t.cfg.Suite, tf, sc)
	if err != nil {
		return nil, nil, err
	}
	return suite, sel, nil
}

// popCluster is one shape cluster: a seed consumer whose full grid search
// elects the warm-start order for the members.
type popCluster struct {
	leader  int
	profile []float64 // mean-normalized seasonal profile of the leader
	order   arima.Order
	ok      bool
}

// cluster assigns every consumer to a shape cluster with one serial pass in
// index order (deterministic leader clustering): a consumer joins the
// nearest existing cluster within ClusterTolerance, else founds a new one
// until MaxClusters, after which it joins the nearest unconditionally.
// Consumers whose profile cannot be mean-normalized (non-positive or
// non-finite mean) are assigned -1 and train with the full grid.
func (t *PopulationTrainer) cluster(pop *timeseries.PopulationMatrix, assignment []int) []*popCluster {
	var clusters []*popCluster
	profile := make(timeseries.Series, timeseries.SlotsPerWeek)
	for i := 0; i < pop.Consumers(); i++ {
		pop.Matrix(i).SeasonalProfileInto(profile)
		var mean float64
		for _, v := range profile {
			mean += v
		}
		mean /= float64(len(profile))
		if !(mean > 0) || math.IsInf(mean, 0) {
			assignment[i] = -1
			continue
		}
		for j := range profile {
			profile[j] /= mean
		}
		best, bestDist := -1, math.Inf(1)
		for ci, c := range clusters {
			if d := profileDistance(profile, c.profile); d < bestDist {
				best, bestDist = ci, d
			}
		}
		switch {
		case best >= 0 && (bestDist <= t.cfg.ClusterTolerance || len(clusters) >= t.cfg.MaxClusters):
			assignment[i] = best
		default:
			leaderProfile := make([]float64, len(profile))
			copy(leaderProfile, profile)
			clusters = append(clusters, &popCluster{leader: i, profile: leaderProfile})
			assignment[i] = len(clusters) - 1
		}
	}
	return clusters
}

// profileDistance is the mean absolute deviation between two normalized
// seasonal profiles.
func profileDistance(a, b []float64) float64 {
	var sum float64
	for j := range a {
		sum += math.Abs(a[j] - b[j])
	}
	return sum / float64(len(a))
}

// trainScratch is one worker's reusable training state.
type trainScratch struct {
	ws  *arima.Workspace
	kld kldTrainScratch
}

func newTrainScratch() *trainScratch {
	return &trainScratch{ws: arima.NewWorkspace()}
}
