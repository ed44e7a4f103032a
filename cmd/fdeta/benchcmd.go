package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/arima"
	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// BenchResult is one benchmark's record in a BENCH_<date>.json report.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// GOMAXPROCS and Workers record the parallelism each entry actually
	// ran with: GOMAXPROCS at measurement time, and the worker-pool size
	// used (1 for single-threaded component benchmarks). The seed snapshots
	// pinned gomaxprocs only at report level, which made parallel wins
	// invisible in the trajectory.
	GOMAXPROCS int `json:"gomaxprocs"`
	Workers    int `json:"workers"`
	// Metrics carries headline numbers reported via b.ReportMetric (e.g.
	// detection rates), so a perf regression that also changes results is
	// visible in the same file.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// BenchReport is the machine-readable benchmark-trajectory record. One file
// is written per `fdeta bench` run; committing them under results/bench
// gives the repo a perf history that future PRs extend.
type BenchReport struct {
	Date       string        `json:"date"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Protocol   string        `json:"protocol"` // "quick" or "full"
	Label      string        `json:"label,omitempty"`
	Results    []BenchResult `json:"results"`
}

// bench is one entry in a benchmark suite: the worker-pool size it runs
// with (recorded per result) and an optional post hook that derives extra
// metrics — e.g. consumers-per-second — from the raw BenchmarkResult.
type bench struct {
	name    string
	workers int
	fn      func(b *testing.B)
	post    func(r testing.BenchmarkResult, res *BenchResult)
}

// cmdBench runs the component and table benchmarks in-process (via
// testing.Benchmark) and writes a BENCH_<date>.json trajectory record.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	rf := bindRunFlags(fs)
	full := fs.Bool("full", false, "benchmark the paper's full protocol (500 consumers, 50 trials)")
	population := fs.Bool("population", false, "benchmark population-scale training (consumers-per-second) instead of the component suite")
	popConsumers := fs.Int("consumers", 10000, "population size for -population")
	popWeeks := fs.Int("trainweeks", 28, "training weeks per consumer for -population")
	label := fs.String("label", "", "free-form label recorded in the report (e.g. a commit id)")
	dir := fs.String("dir", "results/bench", "directory for the default output path")
	out := fs.String("o", "", "explicit output path (default <dir>/BENCH_<date>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := experiments.QuickOptions()
	protocol := "quick"
	if *full {
		opts = experiments.PaperOptions()
		protocol = "full"
	}

	// One consumer's series for the component benchmarks — the same fixture
	// bench_test.go uses.
	ds, err := dataset.Generate(dataset.Config{Residential: 1, Weeks: 30, Seed: 5})
	if err != nil {
		return err
	}
	train, test, err := ds.Consumers[0].Demand.Split(28)
	if err != nil {
		return err
	}
	week := test.MustWeek(0)
	tierFn := func(slot int) int { return int(opts.Scheme.TierOf(timeseries.Slot(slot))) }
	suiteCfg := detect.SuiteConfig{
		KLD:      detect.KLDConfig{Significance: 0.05},
		PriceKLD: detect.PriceKLDConfig{NTiers: 2, Tier: tierFn, Significance: 0.05},
	}

	// Table benchmarks run the evaluation worker pool; everything else in
	// the component suite is single-threaded.
	evalWorkers := runtime.GOMAXPROCS(0)
	if opts.MaxConsumers > 0 && opts.MaxConsumers < evalWorkers {
		evalWorkers = opts.MaxConsumers
	}
	benches := []bench{
		{name: "TableII", workers: evalWorkers, fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev, err := experiments.RunEvaluation(opts)
				if err != nil {
					b.Fatal(err)
				}
				cell, err := ev.Cell(experiments.DetKLD5, experiments.Scen1B)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*cell.DetectionRate(), "kld5-1B-%")
			}
		}},
		{name: "TableIII", workers: evalWorkers, fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev, err := experiments.RunEvaluation(opts)
				if err != nil {
					b.Fatal(err)
				}
				_, kv, err := experiments.Headline(ev)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(kv, "kld-reduction-%")
			}
		}},
		{name: "SelectOrder", workers: 1, fn: func(b *testing.B) {
			candidates := arima.DefaultCandidates()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := arima.SelectOrder(train, candidates); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "ARIMADetectorTrain", workers: 1, fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := detect.NewARIMADetector(train, detect.ARIMAConfig{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "TrainedSuite", workers: 1, fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := detect.NewTrainedSuite(train, suiteCfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "KLDTrain", workers: 1, fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := detect.NewKLDDetector(train, detect.KLDConfig{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "KLDDetect", workers: 1, fn: func(b *testing.B) {
			det, err := detect.NewKLDDetector(train, detect.KLDConfig{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.Detect(week); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "PriceKLDDetect", workers: 1, fn: func(b *testing.B) {
			det, err := detect.NewPriceKLDDetector(train, detect.PriceKLDConfig{NTiers: 2, Tier: tierFn})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.Detect(week); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "ARIMADetect", workers: 1, fn: func(b *testing.B) {
			det, err := detect.NewARIMADetector(train, detect.ARIMAConfig{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.Detect(week); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "IntegratedARIMAAttack", workers: 1, fn: func(b *testing.B) {
			det, err := detect.NewIntegratedARIMADetector(train, detect.IntegratedARIMAConfig{})
			if err != nil {
				b.Fatal(err)
			}
			rng := stats.NewRand(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := attack.IntegratedARIMAAttack(det, attack.Up, attack.IntegratedARIMAConfig{}, rng); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}

	if *population {
		protocol = "population"
		benches, err = populationBenches(*popConsumers, *popWeeks)
		if err != nil {
			return err
		}
	}

	report := BenchReport{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Protocol:   protocol,
		Label:      *label,
	}
	err = rf.run(func() error {
		for _, bm := range benches {
			fmt.Printf("benchmarking %-22s ", bm.name)
			r := testing.Benchmark(bm.fn)
			res := BenchResult{
				Name:        bm.name,
				Iterations:  r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				GOMAXPROCS:  runtime.GOMAXPROCS(0),
				Workers:     bm.workers,
			}
			if len(r.Extra) > 0 {
				res.Metrics = make(map[string]float64, len(r.Extra))
				for k, v := range r.Extra {
					res.Metrics[k] = v
				}
			}
			if bm.post != nil {
				bm.post(r, &res)
			}
			report.Results = append(report.Results, res)
			fmt.Printf("%12.0f ns/op  %8d allocs/op  %10d B/op\n",
				res.NsPerOp, res.AllocsPerOp, res.BytesPerOp)
		}
		return nil
	})
	if err != nil {
		return err
	}

	path := *out
	if path == "" {
		path = filepath.Join(*dir, "BENCH_"+report.Date+".json")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%s protocol, %s)\n", path, protocol, report.GoVersion)
	return nil
}

// populationBenches builds the -population suite: the naive baseline and
// the PopulationTrainer in warm-start and exact modes. The baseline is a
// serial loop of NewTrainedSuite calls, one per consumer: each call runs the
// trainer's exact-mode code for one consumer on a private copy of its
// series, with a fresh workspace and fresh KLD scratch, on one goroutine —
// no scratch reuse across consumers, no warm start, no worker pool. Every entry reports consumers_per_sec; the trainer
// entries add clustering/warm-start stats and their speedup over naive.
// Dataset generation and matrix packing happen once, outside the timed
// regions — the benchmark measures training, not synthesis.
func populationBenches(consumers, weeks int) ([]bench, error) {
	if consumers < 1 {
		return nil, fmt.Errorf("bench: -consumers must be >= 1, got %d", consumers)
	}
	// The paper's population mix: ~80% residential, ~10% SMEs, remainder
	// unclassified.
	res := consumers * 8 / 10
	smes := consumers / 10
	ds, err := dataset.Generate(dataset.Config{
		Residential:  res,
		SMEs:         smes,
		Unclassified: consumers - res - smes,
		Weeks:        weeks,
		Seed:         2016,
	})
	if err != nil {
		return nil, err
	}
	series := make([]timeseries.Series, len(ds.Consumers))
	for i := range ds.Consumers {
		series[i] = ds.Consumers[i].Demand
	}
	pop, err := timeseries.PopulationFromSeries(series, weeks)
	if err != nil {
		return nil, err
	}
	// KLD-only suite: the naive comparator is the plain per-consumer
	// constructor, which this config keeps identical in work done.
	suiteCfg := detect.SuiteConfig{KLD: detect.KLDConfig{Significance: 0.05}}
	workers := runtime.GOMAXPROCS(0)

	var naiveNs float64
	perSec := func(_ testing.BenchmarkResult, r *BenchResult) {
		if r.Metrics == nil {
			r.Metrics = make(map[string]float64)
		}
		r.Metrics["consumers_per_sec"] = float64(consumers) * 1e9 / r.NsPerOp
		if naiveNs > 0 && r.Name != "PopulationNaive" {
			r.Metrics["speedup_vs_naive"] = naiveNs / r.NsPerOp
		}
	}
	trainerBench := func(name string, mode detect.TrainMode) bench {
		var stats detect.PopulationStats
		return bench{name: name, workers: workers, fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := detect.NewPopulationTrainer(detect.PopulationConfig{
					Suite:   suiteCfg,
					Workers: workers,
					Mode:    mode,
				})
				out, err := tr.Train(pop)
				if err != nil {
					b.Fatal(err)
				}
				if out.Stats.Failed > 0 {
					b.Fatalf("%d consumers failed to train", out.Stats.Failed)
				}
				stats = out.Stats
			}
		}, post: func(r testing.BenchmarkResult, res *BenchResult) {
			perSec(r, res)
			res.Metrics["clusters"] = float64(stats.Clusters)
			res.Metrics["warm_hits"] = float64(stats.WarmHits)
			res.Metrics["warm_misses"] = float64(stats.WarmMisses)
			res.Metrics["grid_fits_skipped"] = float64(stats.GridFitsSkipped)
		}}
	}

	return []bench{
		{name: "PopulationNaive", workers: 1, fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for c := 0; c < pop.Consumers(); c++ {
					if _, err := detect.NewTrainedSuite(pop.Series(c), suiteCfg); err != nil {
						b.Fatal(err)
					}
				}
			}
		}, post: func(r testing.BenchmarkResult, res *BenchResult) {
			perSec(r, res)
			naiveNs = res.NsPerOp
		}},
		trainerBench("PopulationTrainWarm", detect.WarmStartMargin),
		trainerBench("PopulationTrainExact", detect.WarmStartExact),
	}, nil
}
