package experiments

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/detect"
)

// ValidationReport covers the paper's Section VIII-B3 dataset sanity check.
type ValidationReport struct {
	Consumers int
	Weeks     int
	// PeakHeavyFraction is the fraction of consumers consuming more during
	// the 9:00-24:00 peak window on over 90% of days. The paper reports
	// 94.4% for the CER data; the synthetic generator is calibrated to the
	// same regime.
	PeakHeavyFraction float64
	// MeanDemandKW and TotalEnergyKWh summarize scale.
	MeanDemandKW   float64
	TotalEnergyKWh float64
}

// ValidateDataset computes the Section VIII-B3 statistic on a generated
// population.
func ValidateDataset(cfg dataset.Config) (*ValidationReport, error) {
	ds, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	st := ds.Describe(9, 24)
	return &ValidationReport{
		Consumers:         st.Consumers,
		Weeks:             st.Weeks,
		PeakHeavyFraction: st.PeakHeavyFrac,
		MeanDemandKW:      st.MeanDemand,
		TotalEnergyKWh:    st.TotalEnergy,
	}, nil
}

// BinSweepPoint is one point of the bin-count ablation: how the KLD
// detector's success rate on the Integrated ARIMA attack and its
// false-positive rate move with B. The paper uses B=10 and defers the
// sweep to "extensions of this paper" (Section VIII-D); this implements it.
type BinSweepPoint struct {
	Bins int
	Rates
}

// BinSweep runs the Attack-Class-1B KLD evaluation across bin counts.
func BinSweep(opts Options, bins []int) ([]BinSweepPoint, error) {
	if len(bins) == 0 {
		return nil, fmt.Errorf("experiments: no bin counts supplied")
	}
	for _, b := range bins {
		if b < 1 {
			return nil, fmt.Errorf("experiments: invalid bin count %d", b)
		}
	}
	subs, err := preparePopulation(opts, true)
	if err != nil {
		return nil, err
	}
	points := make([]BinSweepPoint, len(bins))
	for i, b := range bins {
		points[i].Bins = b
		if points[i].Rates, err = kldRates(subs, detect.KLDConfig{Bins: b, Significance: 0.05}); err != nil {
			return nil, err
		}
	}
	return points, nil
}

// TrainLengthPoint is one point of the training-length ablation.
type TrainLengthPoint struct {
	TrainWeeks  int
	SuccessRate float64
}

// TrainLengthSweep measures how the KLD detector's success on Attack Class
// 1B varies with the amount of training history: each length prepares the
// population with TrainWeeks = tw and its own attack seed, Seed + tw.
func TrainLengthSweep(opts Options, weeks []int) ([]TrainLengthPoint, error) {
	if len(weeks) == 0 {
		return nil, fmt.Errorf("experiments: no training lengths supplied")
	}
	consumers, err := population(opts)
	if err != nil {
		return nil, err
	}
	points := make([]TrainLengthPoint, len(weeks))
	for i, tw := range weeks {
		o := opts
		o.TrainWeeks, o.Seed = tw, opts.Seed+int64(tw)
		if err := o.Validate(); err != nil {
			return nil, err
		}
		subs, err := prepare(consumers, o, true)
		if err != nil {
			return nil, err
		}
		r, err := rates(subs, suiteKLD5)
		if err != nil {
			return nil, err
		}
		points[i] = TrainLengthPoint{TrainWeeks: tw, SuccessRate: r.SuccessRate}
	}
	return points, nil
}
