package experiments

import (
	"fmt"

	"repro/internal/detect"
)

// DivergencePoint is one row of the divergence-measure ablation.
type DivergencePoint struct {
	Kind detect.DivergenceKind
	Rates
}

// DivergenceSweep compares the paper's KL divergence against symmetric KL
// and Jensen-Shannon on the Attack-Class-1B protocol — an ablation of the
// design choice Section VII-D fixes without comparison.
func DivergenceSweep(opts Options) ([]DivergencePoint, error) {
	subs, err := preparePopulation(opts, true)
	if err != nil {
		return nil, err
	}
	kinds := []detect.DivergenceKind{detect.KullbackLeibler, detect.SymmetricKL, detect.JensenShannon}
	points := make([]DivergencePoint, len(kinds))
	for i, kind := range kinds {
		points[i].Kind = kind
		if points[i].Rates, err = kldRates(subs, detect.KLDConfig{Significance: 0.05, Divergence: kind}); err != nil {
			return nil, err
		}
	}
	return points, nil
}

// BinStrategyPoint is one row of the bin-placement ablation.
type BinStrategyPoint struct {
	Strategy detect.BinStrategy
	Rates
}

// BinStrategySweep compares the paper's equal-width histogram bins against
// equal-frequency (quantile) bins on the Attack-Class-1B protocol — a
// second axis of the binning design space whose first axis (bin count) the
// paper explicitly defers to future work.
func BinStrategySweep(opts Options) ([]BinStrategyPoint, error) {
	subs, err := preparePopulation(opts, true)
	if err != nil {
		return nil, err
	}
	strategies := []detect.BinStrategy{detect.EqualWidth, detect.EqualFrequency}
	points := make([]BinStrategyPoint, len(strategies))
	for i, strategy := range strategies {
		points[i].Strategy = strategy
		if points[i].Rates, err = kldRates(subs, detect.KLDConfig{Significance: 0.05, Binning: strategy}); err != nil {
			return nil, err
		}
	}
	return points, nil
}

// BaselinePoint is one detector row of the detector-family comparison.
type BaselinePoint struct {
	Detector string
	Rates
}

// BaselineComparison pits the paper's KLD detector against the PCA subspace
// detector of ref [3] (and the Integrated ARIMA baseline) on the Attack-
// Class-1B protocol. The paper cites ref [3] but never compares against it;
// this experiment fills that gap. The Integrated ARIMA and KLD rows are the
// evaluation's own detectors; only PCA is trained here.
func BaselineComparison(opts Options) ([]BaselinePoint, error) {
	subs, err := preparePopulation(opts, true)
	if err != nil {
		return nil, err
	}
	families := []struct {
		name string
		det  func(s *subject) (detect.Detector, error)
	}{
		{"integrated-arima", func(s *subject) (detect.Detector, error) { return s.suite.Integrated(), nil }},
		{"kld-5%", suiteKLD5},
		{"pca", func(s *subject) (detect.Detector, error) {
			return detect.NewPCADetector(s.train, detect.PCAConfig{Significance: 0.05})
		}},
	}
	points := make([]BaselinePoint, len(families))
	for i, f := range families {
		points[i].Detector = f.name
		if points[i].Rates, err = rates(subs, f.det); err != nil {
			return nil, err
		}
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
	if totalKWh <= 0 {
		return nil, fmt.Errorf("experiments: total stolen energy must be positive, got %g", totalKWh)
	}
	if len(victimCounts) == 0 {
		return nil, fmt.Errorf("experiments: no victim counts supplied")
	}
	prep, err := preparePopulation(opts, false)
	if err != nil {
		return nil, err
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
				pc := &prep[(trial*m+j)%len(prep)]
				// Inflate the victim's week proportionally so the extra
				// energy integrates to perVictim kWh.
				weekKWh := pc.normal.Energy()
				if weekKWh <= 0 {
					continue
				}
				scale := 1 + perVictim/weekKWh
				reported := pc.normal.Scale(scale)
				det, err := pc.suite.KLD(0.05)
				if err != nil {
					return nil, err
				}
				v, err := det.Detect(reported)
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
