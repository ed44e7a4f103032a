package experiments

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// DivergencePoint is one row of the divergence-measure ablation.
type DivergencePoint struct {
	Kind          detect.DivergenceKind
	DetectionRate float64
	FalsePosRate  float64
	SuccessRate   float64
}

// DivergenceSweep compares the paper's KL divergence against symmetric KL
// and Jensen-Shannon on the Attack-Class-1B protocol — an ablation of the
// design choice Section VII-D fixes without comparison.
func DivergenceSweep(opts Options) ([]DivergencePoint, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ds, err := dataset.Generate(opts.Dataset)
	if err != nil {
		return nil, err
	}
	consumers := ds.Consumers
	if opts.MaxConsumers > 0 && opts.MaxConsumers < len(consumers) {
		consumers = consumers[:opts.MaxConsumers]
	}

	kinds := []detect.DivergenceKind{detect.KullbackLeibler, detect.SymmetricKL, detect.JensenShannon}
	type prepared struct {
		train, normal, vec timeseries.Series
	}
	prep := make([]prepared, 0, len(consumers))
	for i := range consumers {
		c := &consumers[i]
		train, test, err := c.Demand.Split(opts.TrainWeeks)
		if err != nil {
			return nil, fmt.Errorf("experiments: consumer %d: %w", c.ID, err)
		}
		normal := test.MustWeek(0)
		integ, err := detect.NewIntegratedARIMADetector(train, detect.IntegratedARIMAConfig{})
		if err != nil {
			return nil, fmt.Errorf("experiments: consumer %d: %w", c.ID, err)
		}
		rng := stats.SplitRand(opts.Seed, int64(c.ID))
		vec, err := worstIntegrated(integ, attack.Up, opts, rng, func(v timeseries.Series) (float64, error) {
			return pricingNeighbourLoss(opts, normal, v, timeseries.Slot(len(train)))
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: consumer %d: %w", c.ID, err)
		}
		prep = append(prep, prepared{train, normal, vec})
	}

	points := make([]DivergencePoint, 0, len(kinds))
	for _, kind := range kinds {
		var detected, fps, success int
		for _, pc := range prep {
			det, err := detect.NewKLDDetector(pc.train, detect.KLDConfig{
				Significance: 0.05,
				Divergence:   kind,
			})
			if err != nil {
				return nil, err
			}
			va, err := det.Detect(pc.vec)
			if err != nil {
				return nil, err
			}
			vn, err := det.Detect(pc.normal)
			if err != nil {
				return nil, err
			}
			if va.Anomalous {
				detected++
			}
			if vn.Anomalous {
				fps++
			}
			if va.Anomalous && !vn.Anomalous {
				success++
			}
		}
		n := float64(len(prep))
		points = append(points, DivergencePoint{
			Kind:          kind,
			DetectionRate: float64(detected) / n,
			FalsePosRate:  float64(fps) / n,
			SuccessRate:   float64(success) / n,
		})
	}
	return points, nil
}

// BinStrategyPoint is one row of the bin-placement ablation.
type BinStrategyPoint struct {
	Strategy      detect.BinStrategy
	DetectionRate float64
	FalsePosRate  float64
	SuccessRate   float64
}

// BinStrategySweep compares the paper's equal-width histogram bins against
// equal-frequency (quantile) bins on the Attack-Class-1B protocol — a
// second axis of the binning design space whose first axis (bin count) the
// paper explicitly defers to future work.
func BinStrategySweep(opts Options) ([]BinStrategyPoint, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ds, err := dataset.Generate(opts.Dataset)
	if err != nil {
		return nil, err
	}
	consumers := ds.Consumers
	if opts.MaxConsumers > 0 && opts.MaxConsumers < len(consumers) {
		consumers = consumers[:opts.MaxConsumers]
	}
	strategies := []detect.BinStrategy{detect.EqualWidth, detect.EqualFrequency}
	counts := make([]struct{ detected, fp, success int }, len(strategies))
	for i := range consumers {
		c := &consumers[i]
		train, test, err := c.Demand.Split(opts.TrainWeeks)
		if err != nil {
			return nil, fmt.Errorf("experiments: consumer %d: %w", c.ID, err)
		}
		normal := test.MustWeek(0)
		integ, err := detect.NewIntegratedARIMADetector(train, detect.IntegratedARIMAConfig{})
		if err != nil {
			return nil, fmt.Errorf("experiments: consumer %d: %w", c.ID, err)
		}
		rng := stats.SplitRand(opts.Seed, int64(c.ID))
		vec, err := worstIntegrated(integ, attack.Up, opts, rng, func(v timeseries.Series) (float64, error) {
			return pricingNeighbourLoss(opts, normal, v, timeseries.Slot(len(train)))
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: consumer %d: %w", c.ID, err)
		}
		for si, strategy := range strategies {
			det, err := detect.NewKLDDetector(train, detect.KLDConfig{
				Significance: 0.05,
				Binning:      strategy,
			})
			if err != nil {
				return nil, err
			}
			va, err := det.Detect(vec)
			if err != nil {
				return nil, err
			}
			vn, err := det.Detect(normal)
			if err != nil {
				return nil, err
			}
			if va.Anomalous {
				counts[si].detected++
			}
			if vn.Anomalous {
				counts[si].fp++
			}
			if va.Anomalous && !vn.Anomalous {
				counts[si].success++
			}
		}
	}
	n := float64(len(consumers))
	points := make([]BinStrategyPoint, len(strategies))
	for si, strategy := range strategies {
		points[si] = BinStrategyPoint{
			Strategy:      strategy,
			DetectionRate: float64(counts[si].detected) / n,
			FalsePosRate:  float64(counts[si].fp) / n,
			SuccessRate:   float64(counts[si].success) / n,
		}
	}
	return points, nil
}

// BaselinePoint is one detector row of the detector-family comparison.
type BaselinePoint struct {
	Detector      string
	DetectionRate float64
	FalsePosRate  float64
	SuccessRate   float64
}

// BaselineComparison pits the paper's KLD detector against the PCA subspace
// detector of ref [3] (and the Integrated ARIMA baseline) on the Attack-
// Class-1B protocol. The paper cites ref [3] but never compares against it;
// this experiment fills that gap.
func BaselineComparison(opts Options) ([]BaselinePoint, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ds, err := dataset.Generate(opts.Dataset)
	if err != nil {
		return nil, err
	}
	consumers := ds.Consumers
	if opts.MaxConsumers > 0 && opts.MaxConsumers < len(consumers) {
		consumers = consumers[:opts.MaxConsumers]
	}

	type outcome struct{ detected, fp, success int }
	counts := map[string]*outcome{}
	order := []string{}
	record := func(name string, attacked, normal bool) {
		o, ok := counts[name]
		if !ok {
			o = &outcome{}
			counts[name] = o
			order = append(order, name)
		}
		if attacked {
			o.detected++
		}
		if normal {
			o.fp++
		}
		if attacked && !normal {
			o.success++
		}
	}

	for i := range consumers {
		c := &consumers[i]
		train, test, err := c.Demand.Split(opts.TrainWeeks)
		if err != nil {
			return nil, fmt.Errorf("experiments: consumer %d: %w", c.ID, err)
		}
		normal := test.MustWeek(0)
		integ, err := detect.NewIntegratedARIMADetector(train, detect.IntegratedARIMAConfig{})
		if err != nil {
			return nil, fmt.Errorf("experiments: consumer %d: %w", c.ID, err)
		}
		kld, err := detect.NewKLDDetector(train, detect.KLDConfig{Significance: 0.05})
		if err != nil {
			return nil, fmt.Errorf("experiments: consumer %d: %w", c.ID, err)
		}
		pca, err := detect.NewPCADetector(train, detect.PCAConfig{Significance: 0.05})
		if err != nil {
			return nil, fmt.Errorf("experiments: consumer %d: %w", c.ID, err)
		}
		rng := stats.SplitRand(opts.Seed, int64(c.ID))
		vec, err := worstIntegrated(integ, attack.Up, opts, rng, func(v timeseries.Series) (float64, error) {
			return pricingNeighbourLoss(opts, normal, v, timeseries.Slot(len(train)))
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: consumer %d: %w", c.ID, err)
		}
		for _, d := range []detect.Detector{integ, kld, pca} {
			va, err := d.Detect(vec)
			if err != nil {
				return nil, err
			}
			vn, err := d.Detect(normal)
			if err != nil {
				return nil, err
			}
			record(d.Name(), va.Anomalous, vn.Anomalous)
		}
	}

	n := float64(len(consumers))
	points := make([]BaselinePoint, 0, len(order))
	for _, name := range order {
		o := counts[name]
		points = append(points, BaselinePoint{
			Detector:      name,
			DetectionRate: float64(o.detected) / n,
			FalsePosRate:  float64(o.fp) / n,
			SuccessRate:   float64(o.success) / n, // the Section VIII-E rule
		})
	}
	return points, nil
}

// SpreadPoint is one point of the multi-victim spreading experiment.
type SpreadPoint struct {
	// Victims is how many neighbours the theft is spread across.
	Victims int
	// PerVictimKWh is the weekly energy over-reported onto each victim.
	PerVictimKWh float64
	// VictimDetectionRate is the fraction of victimized consumers whose
	// week the KLD detector flags.
	VictimDetectionRate float64
	// SchemeCaughtRate is the fraction of trials in which at least one
	// victim was flagged (the utility then investigates the neighbourhood).
	SchemeCaughtRate float64
}

// SpreadSweep studies the multiple-victim variant of Attack Class 1B that
// the paper's conclusion reserves for future work ("to account for the
// presence of multiple attackers"): a fixed weekly haul of stolen energy is
// spread across m victims by proportionally inflating each victim's
// reported readings. Spreading thins each victim's distortion — the sweep
// quantifies how detection decays with m, and how the neighbourhood-level
// "any victim flags" rate holds up.
func SpreadSweep(opts Options, totalKWh float64, victimCounts []int) ([]SpreadPoint, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if totalKWh <= 0 {
		return nil, fmt.Errorf("experiments: total stolen energy must be positive, got %g", totalKWh)
	}
	if len(victimCounts) == 0 {
		return nil, fmt.Errorf("experiments: no victim counts supplied")
	}
	ds, err := dataset.Generate(opts.Dataset)
	if err != nil {
		return nil, err
	}
	consumers := ds.Consumers
	if opts.MaxConsumers > 0 && opts.MaxConsumers < len(consumers) {
		consumers = consumers[:opts.MaxConsumers]
	}

	// Pre-train one KLD detector per consumer.
	type prepared struct {
		normal timeseries.Series
		det    *detect.KLDDetector
	}
	prep := make([]prepared, 0, len(consumers))
	for i := range consumers {
		c := &consumers[i]
		train, test, err := c.Demand.Split(opts.TrainWeeks)
		if err != nil {
			return nil, fmt.Errorf("experiments: consumer %d: %w", c.ID, err)
		}
		det, err := detect.NewKLDDetector(train, detect.KLDConfig{Significance: 0.05})
		if err != nil {
			return nil, fmt.Errorf("experiments: consumer %d: %w", c.ID, err)
		}
		prep = append(prep, prepared{normal: test.MustWeek(0), det: det})
	}

	points := make([]SpreadPoint, 0, len(victimCounts))
	for _, m := range victimCounts {
		if m < 1 || m > len(prep) {
			return nil, fmt.Errorf("experiments: victim count %d out of range [1, %d]", m, len(prep))
		}
		perVictim := totalKWh / float64(m)
		// Slide a window of m victims over the population so every trial
		// uses a distinct victim set.
		trials := len(prep) / m
		if trials == 0 {
			trials = 1
		}
		var victimFlags, victims, schemesCaught int
		for trial := 0; trial < trials; trial++ {
			caught := false
			for j := 0; j < m; j++ {
				pc := prep[(trial*m+j)%len(prep)]
				// Inflate the victim's week proportionally so the extra
				// energy integrates to perVictim kWh.
				weekKWh := pc.normal.Energy()
				if weekKWh <= 0 {
					continue
				}
				scale := 1 + perVictim/weekKWh
				reported := pc.normal.Scale(scale)
				v, err := pc.det.Detect(reported)
				if err != nil {
					return nil, err
				}
				victims++
				if v.Anomalous {
					victimFlags++
					caught = true
				}
			}
			if caught {
				schemesCaught++
			}
		}
		point := SpreadPoint{Victims: m, PerVictimKWh: perVictim}
		if victims > 0 {
			point.VictimDetectionRate = float64(victimFlags) / float64(victims)
		}
		point.SchemeCaughtRate = float64(schemesCaught) / float64(trials)
		points = append(points, point)
	}
	return points, nil
}
