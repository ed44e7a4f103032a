// Package repro_test is the benchmark harness that regenerates every table
// and figure of the paper (see DESIGN.md's per-experiment index):
//
//	BenchmarkTableI            — Table I (attack-class feasibility)
//	BenchmarkTableII           — Table II (Metric 1, detection percentages)
//	BenchmarkTableIII          — Table III (Metric 2, attacker gains)
//	BenchmarkFig3              — Fig. 3 attack-vector series
//	BenchmarkFig4              — Fig. 4 distributions + KLD thresholds
//	BenchmarkDatasetValidation — the Section VIII-B3 peak-heavy statistic
//	BenchmarkAblationBins      — KLD bin-count sweep (paper future work)
//	BenchmarkAblationTrainLen  — training-length sweep
//
// plus component microbenchmarks for the hot paths (KLD scoring, ARIMA
// fitting, population training, attack generation, balance checking).
//
// Benchmarks default to the scaled-down Quick protocol so `go test -bench=.`
// terminates promptly; set FDETA_BENCH_FULL=1 to run the paper's full
// 500-consumer, 50-trial protocol.
package repro_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/arima"
	"repro/internal/attack"
	"repro/internal/billing"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/experiments"
	"repro/internal/pricing"
	"repro/internal/stats"
	"repro/internal/timeseries"
	"repro/internal/topology"
)

// benchOptions selects the evaluation protocol for table benchmarks.
func benchOptions() experiments.Options {
	if os.Getenv("FDETA_BENCH_FULL") != "" {
		return experiments.PaperOptions()
	}
	return experiments.QuickOptions()
}

// printOnce guards the one-time table printouts so repeated benchmark
// iterations do not spam the log.
var printOnce sync.Map

func printTable(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n=== %s ===\n%s\n", key, text)
	}
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.VerifyTableI(1)
		if err != nil {
			b.Fatal(err)
		}
		printTable("TABLE I", experiments.FormatTableI(rows))
	}
}

func runEvaluation(b *testing.B) *experiments.Evaluation {
	b.Helper()
	ev, err := experiments.RunEvaluation(benchOptions())
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ev := runEvaluation(b)
		out, err := experiments.FormatTableII(ev)
		if err != nil {
			b.Fatal(err)
		}
		printTable("TABLE II (Metric 1)", out)
		// Report the KLD-5% 1B success rate as the headline metric.
		cell, err := ev.Cell(experiments.DetKLD5, experiments.Scen1B)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*cell.DetectionRate(), "kld5-1B-%")
	}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ev := runEvaluation(b)
		out, err := experiments.FormatTableIII(ev)
		if err != nil {
			b.Fatal(err)
		}
		printTable("TABLE III (Metric 2)", out)
		iv, kv, err := experiments.Headline(ev)
		if err != nil {
			b.Fatal(err)
		}
		printTable("HEADLINE", fmt.Sprintf(
			"Integrated-ARIMA cuts 1B theft %.1f%% vs ARIMA (paper: ~78%%)\nKLD cuts a further %.1f%% (paper: 94.8%%)\n", iv, kv))
		b.ReportMetric(kv, "kld-reduction-%")
	}
}

func BenchmarkFig3(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		data, err := experiments.GenerateFig3(opts, 1000)
		if err != nil {
			b.Fatal(err)
		}
		printTable("FIG 3", fmt.Sprintf(
			"consumer %d: actual %.1f kWh/wk, 1B vector %.1f kWh/wk, 2A vector %.1f kWh/wk (series: fdeta fig3 -o fig3.csv)",
			data.ConsumerID, data.Actual.Energy(), data.Attack1B.Energy(), data.Attack2A.Energy()))
	}
}

func BenchmarkFig4(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		data, err := experiments.GenerateFig4(opts, 1000, 10)
		if err != nil {
			b.Fatal(err)
		}
		printTable("FIG 4", fmt.Sprintf(
			"consumer %d: attack KLD %.3f bits vs 95th-pct threshold %.3f (paper: 0.765 vs 0.144)",
			data.ConsumerID, data.AttackKLD, data.Pct95))
		b.ReportMetric(data.AttackKLD, "attack-KLD-bits")
	}
}

func BenchmarkDatasetValidation(b *testing.B) {
	cfg := benchOptions().Dataset
	for i := 0; i < b.N; i++ {
		rep, err := experiments.ValidateDataset(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printTable("VIII-B3 VALIDATION", fmt.Sprintf(
			"peak-heavy fraction %.1f%% (paper: 94.4%%)", 100*rep.PeakHeavyFraction))
		b.ReportMetric(100*rep.PeakHeavyFraction, "peak-heavy-%")
	}
}

func BenchmarkAblationBins(b *testing.B) {
	opts := benchOptions()
	opts.MaxConsumers = 12
	bins := []int{4, 10, 20, 40}
	for i := 0; i < b.N; i++ {
		points, err := experiments.BinSweep(opts, bins)
		if err != nil {
			b.Fatal(err)
		}
		var out string
		for _, p := range points {
			out += fmt.Sprintf("B=%-3d detection %.0f%%  FP %.0f%%  success %.0f%%\n",
				p.Bins, 100*p.DetectionRate, 100*p.FalsePosRate, 100*p.SuccessRate)
		}
		printTable("ABLATION: KLD bin count", out)
	}
}

func BenchmarkAblationTrainLen(b *testing.B) {
	opts := benchOptions()
	opts.MaxConsumers = 12
	weeks := []int{8, 16, opts.TrainWeeks}
	for i := 0; i < b.N; i++ {
		points, err := experiments.TrainLengthSweep(opts, weeks)
		if err != nil {
			b.Fatal(err)
		}
		var out string
		for _, p := range points {
			out += fmt.Sprintf("train=%-3d success %.0f%%\n", p.TrainWeeks, 100*p.SuccessRate)
		}
		printTable("ABLATION: training length", out)
	}
}

func BenchmarkTimeToDetection(b *testing.B) {
	opts := benchOptions()
	opts.MaxConsumers = 12
	for i := 0; i < b.N; i++ {
		sum, err := experiments.TimeToDetection(opts)
		if err != nil {
			b.Fatal(err)
		}
		printTable("TIME TO DETECTION (streaming KLD)", fmt.Sprintf(
			"detected in-week %.0f%%, median %.0f slots (%.1f h) — week bound is 336 slots",
			100*sum.DetectedFrac, sum.MedianSlots, sum.MedianHours))
		b.ReportMetric(sum.MedianSlots, "median-slots")
	}
}

func BenchmarkAblationDivergence(b *testing.B) {
	opts := benchOptions()
	opts.MaxConsumers = 12
	for i := 0; i < b.N; i++ {
		points, err := experiments.DivergenceSweep(opts)
		if err != nil {
			b.Fatal(err)
		}
		var out string
		for _, p := range points {
			out += fmt.Sprintf("%-15s detection %.0f%%  FP %.0f%%  success %.0f%%\n",
				p.Kind, 100*p.DetectionRate, 100*p.FalsePosRate, 100*p.SuccessRate)
		}
		printTable("ABLATION: divergence measure", out)
	}
}

func BenchmarkFalsePositiveProfile(b *testing.B) {
	opts := benchOptions()
	opts.MaxConsumers = 12
	for i := 0; i < b.N; i++ {
		points, err := experiments.FalsePositiveProfile(opts)
		if err != nil {
			b.Fatal(err)
		}
		var out string
		for _, p := range points {
			out += fmt.Sprintf("%-16s nominal %.0f%%  measured FP %.1f%% over %d consumer-weeks\n",
				p.Detector, 100*p.Significance, 100*p.FPRate, p.ConsumerWeeks)
		}
		printTable("CALIBRATION: false-positive profile", out)
	}
}

func BenchmarkBaselineComparison(b *testing.B) {
	opts := benchOptions()
	opts.MaxConsumers = 12
	for i := 0; i < b.N; i++ {
		points, err := experiments.BaselineComparison(opts)
		if err != nil {
			b.Fatal(err)
		}
		var out string
		for _, p := range points {
			out += fmt.Sprintf("%-18s detection %.0f%%  FP %.0f%%  success %.0f%%\n",
				p.Detector, 100*p.DetectionRate, 100*p.FalsePosRate, 100*p.SuccessRate)
		}
		printTable("EXTENSION: detector-family comparison (KLD vs PCA ref [3])", out)
	}
}

func BenchmarkSpreadSweep(b *testing.B) {
	opts := benchOptions()
	opts.MaxConsumers = 12
	for i := 0; i < b.N; i++ {
		points, err := experiments.SpreadSweep(opts, 200, []int{1, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
		var out string
		for _, p := range points {
			out += fmt.Sprintf("victims=%-2d per-victim %.0f kWh  victim-detection %.0f%%  scheme-caught %.0f%%\n",
				p.Victims, p.PerVictimKWh, 100*p.VictimDetectionRate, 100*p.SchemeCaughtRate)
		}
		printTable("EXTENSION: multi-victim spreading", out)
	}
}

func BenchmarkAblationBinStrategy(b *testing.B) {
	opts := benchOptions()
	opts.MaxConsumers = 12
	for i := 0; i < b.N; i++ {
		points, err := experiments.BinStrategySweep(opts)
		if err != nil {
			b.Fatal(err)
		}
		var out string
		for _, p := range points {
			out += fmt.Sprintf("%-16s detection %.0f%%  FP %.0f%%  success %.0f%%\n",
				p.Strategy, 100*p.DetectionRate, 100*p.FalsePosRate, 100*p.SuccessRate)
		}
		printTable("ABLATION: bin placement (equal-width vs equal-frequency)", out)
	}
}

func BenchmarkCIRidingComparison(b *testing.B) {
	opts := benchOptions()
	opts.MaxConsumers = 12
	for i := 0; i < b.N; i++ {
		res, err := experiments.CIRidingComparison(opts)
		if err != nil {
			b.Fatal(err)
		}
		printTable("EXTENSION: band-riding hauls (poisonable ARIMA vs frozen seasonal-naive)",
			fmt.Sprintf("ARIMA %.0f kWh vs seasonal-naive %.0f kWh (median per-consumer ratio %.1fx)",
				res.ARIMAHaulKWh, res.NaiveHaulKWh, res.MedianRatio))
		b.ReportMetric(res.MedianRatio, "haul-ratio")
	}
}

// --- Component microbenchmarks -------------------------------------------

// benchSeries caches one consumer's series for the microbenchmarks.
var (
	benchSeriesOnce sync.Once
	benchTrain      timeseries.Series
	benchWeek       timeseries.Series
)

func loadBenchSeries(b *testing.B) (timeseries.Series, timeseries.Series) {
	b.Helper()
	benchSeriesOnce.Do(func() {
		ds, err := dataset.Generate(dataset.Config{Residential: 1, Weeks: 30, Seed: 5})
		if err != nil {
			panic(err)
		}
		train, test, err := ds.Consumers[0].Demand.Split(28)
		if err != nil {
			panic(err)
		}
		benchTrain, benchWeek = train, test.MustWeek(0)
	})
	return benchTrain, benchWeek
}

func BenchmarkKLDTrain(b *testing.B) {
	train, _ := loadBenchSeries(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := detect.NewKLDDetector(train, detect.KLDConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKLDDetect(b *testing.B) {
	train, week := loadBenchSeries(b)
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
}

func BenchmarkARIMAFit(b *testing.B) {
	train, _ := loadBenchSeries(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := detect.NewARIMADetector(train, detect.ARIMAConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectOrder(b *testing.B) {
	train, _ := loadBenchSeries(b)
	candidates := arima.DefaultCandidates()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := arima.SelectOrder(train, candidates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainedSuite trains every Table II/III detector row from one
// series — the fit-once path evaluateConsumer uses. Compare with the sum of
// BenchmarkARIMAFit (×2 in the seed pipeline) + 2×BenchmarkKLDTrain + the
// price-KLD constructions to see what sharing saves.
func BenchmarkTrainedSuite(b *testing.B) {
	train, _ := loadBenchSeries(b)
	scheme := benchOptions().Scheme
	tierFn := func(slot int) int { return int(scheme.TierOf(timeseries.Slot(slot))) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := detect.NewTrainedSuite(train, detect.SuiteConfig{
			KLD:      detect.KLDConfig{Significance: 0.05},
			PriceKLD: detect.PriceKLDConfig{NTiers: 2, Tier: tierFn, Significance: 0.05},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPopulationTrain trains a 100-consumer, 8-week fleet (the
// paper's mix: 80% residential, 10% SMEs, 10% unclassified) through the
// population trainer on GOMAXPROCS workers and reports consumers/s.
// Synthesis and matrix packing run once, outside the timed region. It fails
// when any consumer fails to train, so `make bench-population` doubles as a
// smoke of the trainer.
func BenchmarkPopulationTrain(b *testing.B) {
	const consumers, weeks = 100, 8
	ds, err := dataset.Generate(dataset.Config{
		Residential:  consumers * 8 / 10,
		SMEs:         consumers / 10,
		Unclassified: consumers - consumers*8/10 - consumers/10,
		Weeks:        weeks,
		Seed:         2016,
	})
	if err != nil {
		b.Fatal(err)
	}
	series := make([]timeseries.Series, len(ds.Consumers))
	for i := range ds.Consumers {
		series[i] = ds.Consumers[i].Demand
	}
	pop, err := timeseries.PopulationFromSeries(series, weeks)
	if err != nil {
		b.Fatal(err)
	}
	trainer := detect.NewPopulationTrainer(detect.PopulationConfig{
		Suite: detect.SuiteConfig{KLD: detect.KLDConfig{Significance: 0.05}},
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := trainer.Train(pop)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Failed > 0 {
			b.Fatalf("%d of %d consumers failed to train", res.Stats.Failed, res.Stats.Consumers)
		}
	}
	perSec := float64(b.N*pop.Consumers()) / b.Elapsed().Seconds()
	if !(perSec > 0) {
		b.Fatalf("consumers/s = %v, want > 0", perSec)
	}
	b.ReportMetric(perSec, "consumers/s")
}

func BenchmarkIntegratedARIMAAttack(b *testing.B) {
	train, _ := loadBenchSeries(b)
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
}

// BenchmarkWorstIntegrated runs one direction of the evaluation's attack
// loop at the paper's 50 trials: each trial reseeds one generator onto its
// stream, draws an Integrated ARIMA week into a reused buffer and takes
// the replica's verdict from the replay that generated it, and the most
// profitable evading week is kept.
func BenchmarkWorstIntegrated(b *testing.B) {
	train, week := loadBenchSeries(b)
	det, err := detect.NewIntegratedARIMADetector(train, detect.IntegratedARIMAConfig{})
	if err != nil {
		b.Fatal(err)
	}
	scheme := benchOptions().Scheme
	start := timeseries.Slot(len(train))
	normalBill := pricing.Bill(scheme, week, start)
	overbill := func(v timeseries.Series) (float64, error) {
		return pricing.Bill(scheme, v, start) - normalBill, nil
	}
	rng := stats.NewRand(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := int64(i)
		_, _, err := attack.WorstCaseEvading(50, func(trial int, buf timeseries.Series) (timeseries.Series, detect.Verdict, error) {
			rng.Seed(stats.SplitSeed(base, int64(trial)))
			return attack.IntegratedARIMATrial(det, attack.Up, attack.IntegratedARIMAConfig{}, rng, buf)
		}, overbill)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalSwap(b *testing.B) {
	_, week := loadBenchSeries(b)
	scheme := benchOptions().Scheme
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := attack.OptimalSwap(week, scheme); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBalanceCheckAll(b *testing.B) {
	cfg := topology.DefaultBuilderConfig()
	cfg.Consumers = 100
	tree, err := topology.BuildRandom(cfg)
	if err != nil {
		b.Fatal(err)
	}
	snap := topology.NewSnapshot()
	for _, c := range tree.Consumers() {
		snap.ConsumerActual[c.ID] = 2
		snap.ConsumerReported[c.ID] = 2
	}
	for _, n := range tree.Internals() {
		for _, ch := range n.Children {
			if ch.Kind == topology.Loss {
				snap.LossCalc[ch.ID] = 0.05
			}
		}
	}
	bc := topology.DefaultChecker()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bc.CheckAll(tree, snap); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDatasetGenerate(b *testing.B) {
	cfg := dataset.SmallConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompactKLDStreamObserve measures one live reading through the
// Section VII-D stream: rebin one slot, and rescore the window when its
// tally changed. "honest" replays the consumer's later training weeks
// (each lap a different week, so a reading often changes its slot's bin);
// "theft" is a meter reporting zero, flagged on every reading after a lap.
func BenchmarkCompactKLDStreamObserve(b *testing.B) {
	train, _ := loadBenchSeries(b)
	det, err := detect.NewKLDDetector(train, detect.KLDConfig{})
	if err != nil {
		b.Fatal(err)
	}
	live := train[timeseries.SlotsPerWeek:]
	for _, bc := range []struct {
		name    string
		reading func(i int) float64
	}{
		{"honest", func(i int) float64 { return live[i%len(live)] }},
		{"theft", func(int) float64 { return 0 }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			stream, err := det.NewCompactStream(train[:timeseries.SlotsPerWeek])
			if err != nil {
				b.Fatal(err)
			}
			var v detect.Verdict
			for i := 0; i < timeseries.SlotsPerWeek; i++ {
				if v, err = stream.Observe(bc.reading(i)); err != nil {
					b.Fatal(err)
				}
			}
			if bc.name == "theft" && !v.Anomalous {
				b.Fatalf("a zero-reporting week is not flagged: %+v", v)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stream.Observe(bc.reading(timeseries.SlotsPerWeek + i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRevenueAssurance(b *testing.B) {
	ds, err := dataset.Generate(dataset.Config{Residential: 20, Weeks: 2, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	cycle := billing.WeekCycle(0)
	reported := make(map[string]timeseries.Series, len(ds.Consumers))
	delivered := make(timeseries.Series, cycle.Slots)
	for i := range ds.Consumers {
		c := &ds.Consumers[i]
		week := c.Demand.MustWeek(0)
		reported[fmt.Sprintf("m%d", c.ID)] = week
		for s, v := range week {
			delivered[s] += v
		}
	}
	scheme := benchOptions().Scheme
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := billing.RevenueAssurance(scheme, cycle, delivered, reported, 0); err != nil {
			b.Fatal(err)
		}
	}
}
