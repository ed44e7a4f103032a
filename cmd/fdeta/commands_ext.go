package main

import (
	"flag"
	"fmt"

	"repro/internal/billing"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/pricing"
	"repro/internal/timeseries"
)

func cmdTimeToDetect(args []string) error {
	fs := flag.NewFlagSet("ttd", flag.ContinueOnError)
	ef := bindExperimentFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := ef.options()
	if err != nil {
		return err
	}
	sum, err := evalRun(ef, func() (*experiments.TTDSummary, error) {
		return experiments.TimeToDetection(opts)
	})
	if err != nil {
		return err
	}
	fmt.Println("Time-to-detection for Attack Class 1B (streaming KLD, Section VII-D)")
	fmt.Printf("consumers:          %d\n", len(sum.Outcomes))
	fmt.Printf("detected in-week:   %.1f%%\n", 100*sum.DetectedFrac)
	fmt.Printf("median latency:     %.0f slots (%.1f hours)\n", sum.MedianSlots, sum.MedianHours)
	fmt.Printf("mean latency:       %.0f slots (%.1f hours)\n", sum.MeanSlots, sum.MeanSlots*timeseries.DeltaHours)
	fmt.Println("(the paper's week-long bound is 336 slots; detection typically comes far sooner)")
	return nil
}

func cmdAblateDivergence(args []string) error {
	fs := flag.NewFlagSet("ablate-divergence", flag.ContinueOnError)
	ef := bindExperimentFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := ef.options()
	if err != nil {
		return err
	}
	points, err := evalRun(ef, func() ([]experiments.DivergencePoint, error) {
		return experiments.DivergenceSweep(opts)
	})
	if err != nil {
		return err
	}
	fmt.Println("Divergence-measure ablation (Attack Class 1B, 5% significance)")
	fmt.Println("measure         detection  false-pos  success")
	for _, p := range points {
		fmt.Printf("%-15s %8.1f%%  %8.1f%%  %6.1f%%\n",
			p.Kind, 100*p.DetectionRate, 100*p.FalsePosRate, 100*p.SuccessRate)
	}
	return nil
}

func cmdBaselines(args []string) error {
	fs := flag.NewFlagSet("baselines", flag.ContinueOnError)
	ef := bindExperimentFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := ef.options()
	if err != nil {
		return err
	}
	points, err := evalRun(ef, func() ([]experiments.BaselinePoint, error) {
		return experiments.BaselineComparison(opts)
	})
	if err != nil {
		return err
	}
	fmt.Println("Detector-family comparison on Attack Class 1B (KLD vs PCA of ref [3])")
	fmt.Println("detector            detection  false-pos  success")
	for _, p := range points {
		fmt.Printf("%-18s  %8.1f%%  %8.1f%%  %6.1f%%\n",
			p.Detector, 100*p.DetectionRate, 100*p.FalsePosRate, 100*p.SuccessRate)
	}
	return nil
}

func cmdSpread(args []string) error {
	fs := flag.NewFlagSet("spread", flag.ContinueOnError)
	ef := bindExperimentFlags(fs)
	total := fs.Float64("kwh", 200, "total weekly energy to steal (kWh)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := ef.options()
	if err != nil {
		return err
	}
	counts := []int{1, 2, 4, 8}
	points, err := evalRun(ef, func() ([]experiments.SpreadPoint, error) {
		return experiments.SpreadSweep(opts, *total, counts)
	})
	if err != nil {
		return err
	}
	fmt.Printf("Multi-victim spreading of %g kWh/week (Attack Class 1B, KLD 5%%)\n", *total)
	fmt.Println("victims  kWh/victim  victim-detection  scheme-caught")
	for _, p := range points {
		fmt.Printf("%7d  %10.1f  %15.1f%%  %12.1f%%\n",
			p.Victims, p.PerVictimKWh, 100*p.VictimDetectionRate, 100*p.SchemeCaughtRate)
	}
	return nil
}

func cmdAblateBinStrategy(args []string) error {
	fs := flag.NewFlagSet("ablate-binning", flag.ContinueOnError)
	ef := bindExperimentFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := ef.options()
	if err != nil {
		return err
	}
	points, err := evalRun(ef, func() ([]experiments.BinStrategyPoint, error) {
		return experiments.BinStrategySweep(opts)
	})
	if err != nil {
		return err
	}
	fmt.Println("Bin-placement ablation (Attack Class 1B, 5% significance, B=10)")
	fmt.Println("strategy          detection  false-pos  success")
	for _, p := range points {
		fmt.Printf("%-16s  %8.1f%%  %8.1f%%  %6.1f%%\n",
			p.Strategy, 100*p.DetectionRate, 100*p.FalsePosRate, 100*p.SuccessRate)
	}
	return nil
}

func cmdFPProfile(args []string) error {
	fs := flag.NewFlagSet("fp-profile", flag.ContinueOnError)
	ef := bindExperimentFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := ef.options()
	if err != nil {
		return err
	}
	points, err := evalRun(ef, func() ([]experiments.FPPoint, error) {
		return experiments.FalsePositiveProfile(opts)
	})
	if err != nil {
		return err
	}
	fmt.Println("False-positive calibration over all normal test weeks (Section VIII-E)")
	fmt.Println("detector          nominal-α  measured-FP  consumer-weeks")
	for _, p := range points {
		nominal := "   —"
		if p.Significance > 0 {
			nominal = fmt.Sprintf("%4.0f%%", 100*p.Significance)
		}
		fmt.Printf("%-16s  %9s  %10.1f%%  %14d\n",
			p.Detector, nominal, 100*p.FPRate, p.ConsumerWeeks)
	}
	return nil
}

func cmdBill(args []string) error {
	fs := flag.NewFlagSet("bill", flag.ContinueOnError)
	seed := fs.Int64("seed", 8, "population seed")
	consumers := fs.Int("consumers", 5, "number of consumers")
	theft := fs.Float64("theft", 0, "fraction of consumption the last consumer hides (0 = honest grid)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *theft < 0 || *theft >= 1 {
		return fmt.Errorf("theft fraction must be in [0, 1)")
	}
	ds, err := dataset.Generate(dataset.Config{Residential: *consumers, Weeks: 2, Seed: *seed})
	if err != nil {
		return err
	}
	scheme := pricing.Nightsaver()
	cycle := billing.WeekCycle(0)
	reported := make(map[string]timeseries.Series, *consumers)
	delivered := make(timeseries.Series, cycle.Slots)
	var lossKWh float64
	for i := range ds.Consumers {
		c := &ds.Consumers[i]
		week := c.Demand.MustWeek(0)
		rep := week
		if *theft > 0 && i == len(ds.Consumers)-1 {
			rep = week.Scale(1 - *theft) // Class 2A under-report
		}
		reported[fmt.Sprintf("meter-%d", c.ID)] = rep
		for s, v := range week {
			delivered[s] += v
		}
	}
	for s := range delivered {
		loss := delivered[s] * 0.02
		delivered[s] += loss
		lossKWh += loss * timeseries.DeltaHours
	}
	rep, err := billing.RevenueAssurance(scheme, cycle, delivered, reported, lossKWh)
	if err != nil {
		return err
	}
	fmt.Println("Weekly statements (Nightsaver TOU):")
	for _, st := range rep.Statements {
		fmt.Printf("  %-12s %8.1f kWh  $%7.2f", st.ConsumerID, st.EnergyKWh, st.AmountUSD)
		for _, it := range st.Items {
			fmt.Printf("   [%s: %.1f kWh $%.2f]", it.Label, it.EnergyKWh, it.AmountUSD)
		}
		fmt.Println()
	}
	fmt.Println("\nRevenue assurance:")
	fmt.Printf("  delivered at root:  %10.1f kWh\n", rep.DeliveredKWh)
	fmt.Printf("  billed:             %10.1f kWh\n", rep.BilledKWh)
	fmt.Printf("  calculated losses:  %10.1f kWh\n", rep.CalculatedLossKWh)
	fmt.Printf("  UNACCOUNTED:        %10.1f kWh (%.1f%% of delivery)\n",
		rep.UnaccountedKWh, 100*rep.LossFraction())
	fmt.Printf("  revenue:            $%9.2f\n", rep.RevenueUSD)
	fmt.Printf("  estimated leakage:  $%9.2f\n", rep.EstimatedLeakageUSD)
	return nil
}
