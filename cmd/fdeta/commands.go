package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/meter"
	"repro/internal/timeseries"
	"repro/internal/topology"
)

// evalFlags holds the flags shared by the evaluation-driven subcommands,
// composing the profiling/metrics flags every long-running command binds.
type evalFlags struct {
	*runFlags
	full        bool
	consumers   int
	trials      int
	seed        int64
	parallelism int
	warmStart   bool
	strict      bool
	checkpoint  string
	faultSpec   string
}

func bindEvalFlags(fs *flag.FlagSet) *evalFlags {
	ef := &evalFlags{runFlags: bindRunFlags(fs)}
	fs.BoolVar(&ef.full, "full", false, "run the paper's full protocol (500 consumers, 74 weeks, 50 trials)")
	fs.IntVar(&ef.consumers, "consumers", 0, "cap the number of consumers evaluated (0 = all)")
	fs.IntVar(&ef.trials, "trials", 0, "override the attack trial count")
	fs.Int64Var(&ef.seed, "seed", 2016, "experiment seed")
	fs.IntVar(&ef.parallelism, "parallelism", 0, "worker goroutines for per-consumer evaluation (0 = GOMAXPROCS); results are identical at any setting")
	fs.BoolVar(&ef.warmStart, "warmstart", false, "train detector suites with clustered warm-start order selection instead of the exact full grid (metrics stay within the pinned tolerance of exact training)")
	fs.BoolVar(&ef.strict, "strict", false, "abort on the first consumer evaluation failure instead of quarantining it")
	fs.StringVar(&ef.checkpoint, "checkpoint", "", "JSON checkpoint path: per-consumer results are flushed as they finish, and rerunning with the same settings resumes from them")
	fs.StringVar(&ef.faultSpec, "fault", "", "inject meter faults into the monitored weeks, e.g. 'dropout:0.1+spike:0.01,20' (kinds: dropout, outage, stuckat, spike, clockslip)")
	return ef
}

func (ef *evalFlags) options() (experiments.Options, error) {
	opts := experiments.QuickOptions()
	if ef.full {
		opts = experiments.PaperOptions()
	}
	if ef.consumers > 0 {
		opts.MaxConsumers = ef.consumers
	}
	if ef.trials > 0 {
		opts.Trials = ef.trials
	}
	opts.Seed = ef.seed
	opts.Parallelism = ef.parallelism
	opts.WarmStart = ef.warmStart
	opts.Strict = ef.strict
	opts.Checkpoint = ef.checkpoint
	if ef.faultSpec != "" {
		scens, err := fault.Parse(ef.faultSpec)
		if err != nil {
			return opts, err
		}
		opts.Fault = fault.Plan{
			// Offset the seed so per-meter fault streams never replay the
			// per-meter attack streams (both split on (seed, meterID)).
			Seed:      opts.Seed + experiments.FaultSeedOffset,
			Scenarios: scens,
			FromWeek:  opts.TrainWeeks,
		}
	}
	return opts, nil
}

// evalRun runs the compute step of an evaluation command under the shared
// run wrapper, so profiles (and the admin endpoint's lifetime) cover the
// evaluation itself rather than result formatting.
func evalRun[T any](ef *evalFlags, f func() (T, error)) (T, error) {
	var out T
	err := ef.run(func() error {
		var err error
		out, err = f()
		return err
	})
	return out, err
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	out := fs.String("o", "dataset.csv", "output path")
	full := fs.Bool("full", false, "generate the paper-scale population (500 consumers, 74 weeks)")
	seed := fs.Int64("seed", 2016, "generation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := dataset.SmallConfig()
	if *full {
		cfg = dataset.PaperConfig()
	}
	cfg.Seed = *seed
	ds, err := dataset.Generate(cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	if err := dataset.WriteCSV(f, ds); err != nil {
		return err
	}
	fmt.Printf("wrote %d consumers x %d weeks to %s\n", len(ds.Consumers), ds.Weeks, *out)
	return f.Close()
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	full := fs.Bool("full", false, "validate the paper-scale population")
	seed := fs.Int64("seed", 2016, "generation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := dataset.SmallConfig()
	if *full {
		cfg = dataset.PaperConfig()
	}
	cfg.Seed = *seed
	rep, err := experiments.ValidateDataset(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("consumers:            %d\n", rep.Consumers)
	fmt.Printf("weeks:                %d\n", rep.Weeks)
	fmt.Printf("mean demand:          %.3f kW\n", rep.MeanDemandKW)
	fmt.Printf("total energy:         %.0f kWh\n", rep.TotalEnergyKWh)
	fmt.Printf("peak-heavy fraction:  %.1f%%  (paper reports 94.4%% for the CER data)\n",
		100*rep.PeakHeavyFraction)
	return nil
}

func cmdTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "construction seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := experiments.VerifyTableI(*seed)
	if err != nil {
		return err
	}
	fmt.Println("TABLE I: Attack Classification (verified by construction)")
	fmt.Print(experiments.FormatTableI(rows))
	return nil
}

func cmdTables(cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	ef := bindEvalFlags(fs)
	summary := fs.Bool("summary", false, "also print the Section VIII-F1 headline reductions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := ef.options()
	if err != nil {
		return err
	}
	ev, err := evalRun(ef, func() (*experiments.Evaluation, error) {
		return experiments.RunEvaluation(opts)
	})
	if err != nil {
		return err
	}
	switch cmd {
	case "table2":
		out, err := experiments.FormatTableII(ev)
		if err != nil {
			return err
		}
		fmt.Println("TABLE II: Metric 1 — % of consumers for whom the detector succeeded")
		fmt.Printf("(%d consumers, %d trials)\n", ev.Consumers, ev.Options.Trials)
		fmt.Print(out)
	case "table3":
		out, err := experiments.FormatTableIII(ev)
		if err != nil {
			return err
		}
		fmt.Println("TABLE III: Metric 2 — maximum attacker gains in one week")
		fmt.Printf("(%d consumers, %d trials; 1B column totals across consumers)\n",
			ev.Consumers, ev.Options.Trials)
		fmt.Print(out)
	}
	if *summary {
		iv, kv, err := experiments.Headline(ev)
		if err != nil {
			return err
		}
		fmt.Printf("\nheadline: Integrated-ARIMA cuts 1B theft %.1f%% vs ARIMA (paper: ~78%%);\n", iv)
		fmt.Printf("          KLD cuts a further %.1f%% vs Integrated-ARIMA (paper: 94.8%%)\n", kv)
	}
	return nil
}

func cmdFig1(args []string) error {
	fs := flag.NewFlagSet("fig1", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Fig. 1: a line tap upstream of the meter. The meter is honest but
	// only sees the downstream load, so it under-reports total consumption.
	household := timeseries.Series{1.2, 1.0, 1.4, 1.1}
	tap := timeseries.Series{2.0, 2.0, 2.0, 2.0} // Mallory's tapped load
	m, err := meter.New("honest-meter", household, meter.Config{})
	if err != nil {
		return err
	}
	fmt.Println("FIG. 1: upstream tap — the meter is honest, the report is still low")
	fmt.Println("slot  true_total_kW  metered_kW  unaccounted_kW")
	for s := range household {
		r, err := m.Report(timeseries.Slot(s))
		if err != nil {
			return err
		}
		total := household[s] + tap[s]
		fmt.Printf("%4d  %13.2f  %10.2f  %14.2f\n", s, total, r.KW, total-r.KW)
	}
	fmt.Println("\nthe tapped 2 kW never passes the meter: D'(t) < D(t) without any compromise (Prop. 1)")
	return nil
}

func cmdFig2(args []string) error {
	fs := flag.NewFlagSet("fig2", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tree, err := topology.BuildFig2()
	if err != nil {
		return err
	}
	fmt.Println("FIG. 2: radial power network as an n-ary tree")
	err = tree.Walk(func(n *topology.Node) error {
		indent := ""
		for i := 0; i < n.Depth(); i++ {
			indent += "  "
		}
		metered := ""
		if n.Kind == topology.Internal && n.Metered {
			metered = " [balance meter]"
		}
		fmt.Printf("%s%s (%s)%s\n", indent, n.ID, n.Kind, metered)
		return nil
	})
	if err != nil {
		return err
	}
	// Demonstrate additivity and the balance check.
	snap := topology.NewSnapshot()
	demand := map[string]float64{"C1": 1, "C2": 2, "C3": 3, "C4": 4, "C5": 5}
	for id, d := range demand {
		snap.ConsumerActual[id] = d
		snap.ConsumerReported[id] = d
	}
	for i, id := range []string{"L1", "L2", "L3"} {
		snap.LossCalc[id] = 0.1 * float64(i+1)
	}
	n3, err := tree.Node("N3")
	if err != nil {
		return err
	}
	fmt.Printf("\nadditivity (Eq. 4): D_N3 = D_C4 + D_C5 + D_L3 = %.1f kW\n", snap.ActualDemand(n3))
	results, err := topology.DefaultChecker().CheckAll(tree, snap)
	if err != nil {
		return err
	}
	for _, id := range []string{"N1", "N2", "N3"} {
		fmt.Printf("balance check at %s: pass=%v (mismatch %.3f kW)\n",
			id, results[id].Pass, results[id].Mismatch)
	}
	return nil
}

func cmdFig3(args []string) error {
	fs := flag.NewFlagSet("fig3", flag.ContinueOnError)
	ef := bindEvalFlags(fs)
	consumer := fs.Int("consumer", 1000, "subject consumer ID")
	out := fs.String("o", "fig3.csv", "output CSV path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := ef.options()
	if err != nil {
		return err
	}
	data, err := evalRun(ef, func() (*experiments.Fig3Data, error) {
		return experiments.GenerateFig3(opts, *consumer)
	})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	if err := data.WriteCSV(f); err != nil {
		return err
	}
	fmt.Printf("wrote Fig. 3 series for consumer %d to %s\n", *consumer, *out)
	return f.Close()
}

func cmdFig4(args []string) error {
	fs := flag.NewFlagSet("fig4", flag.ContinueOnError)
	ef := bindEvalFlags(fs)
	consumer := fs.Int("consumer", 1000, "subject consumer ID")
	bins := fs.Int("bins", 10, "histogram bin count B")
	out := fs.String("o", "fig4.csv", "output CSV path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := ef.options()
	if err != nil {
		return err
	}
	data, err := evalRun(ef, func() (*experiments.Fig4Data, error) {
		return experiments.GenerateFig4(opts, *consumer, *bins)
	})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	if err := data.WriteCSV(f); err != nil {
		return err
	}
	fmt.Printf("wrote Fig. 4 data for consumer %d to %s\n", *consumer, *out)
	fmt.Printf("attack-week KL divergence: %.3f bits (95th percentile of training: %.3f)\n",
		data.AttackKLD, data.Pct95)
	return f.Close()
}

func cmdAblateBins(args []string) error {
	fs := flag.NewFlagSet("ablate-bins", flag.ContinueOnError)
	ef := bindEvalFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := ef.options()
	if err != nil {
		return err
	}
	bins := []int{4, 6, 8, 10, 15, 20, 30, 40}
	points, err := evalRun(ef, func() ([]experiments.BinSweepPoint, error) {
		return experiments.BinSweep(opts, bins)
	})
	if err != nil {
		return err
	}
	fmt.Println("KLD bin-count ablation (Attack Class 1B, 5% significance)")
	fmt.Println("bins  detection  false-pos  success")
	for _, p := range points {
		fmt.Printf("%4d  %8.1f%%  %8.1f%%  %6.1f%%\n",
			p.Bins, 100*p.DetectionRate, 100*p.FalsePosRate, 100*p.SuccessRate)
	}
	return nil
}

func cmdAblateTrain(args []string) error {
	fs := flag.NewFlagSet("ablate-train", flag.ContinueOnError)
	ef := bindEvalFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := ef.options()
	if err != nil {
		return err
	}
	weeks := []int{}
	for _, w := range []int{6, 10, 16, 22, 28, 40, 60} {
		if w < opts.Dataset.Weeks {
			weeks = append(weeks, w)
		}
	}
	points, err := evalRun(ef, func() ([]experiments.TrainLengthPoint, error) {
		return experiments.TrainLengthSweep(opts, weeks)
	})
	if err != nil {
		return err
	}
	fmt.Println("KLD training-length ablation (Attack Class 1B, 5% significance)")
	fmt.Println("train-weeks  success")
	for _, p := range points {
		fmt.Printf("%11d  %6.1f%%\n", p.TrainWeeks, 100*p.SuccessRate)
	}
	return nil
}
