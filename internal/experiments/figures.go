package experiments

import (
	"fmt"
	"io"

	"repro/internal/attack"
	"repro/internal/detect"
	"repro/internal/pricing"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// Fig3Data holds the series plotted in Fig. 3 of the paper for one subject
// consumer: the actual consumption week and the three attack realizations.
type Fig3Data struct {
	ConsumerID int
	// Actual is the subject's true consumption for the attack week.
	Actual timeseries.Series
	// Attack1B is the Integrated ARIMA attack vector over-reporting a
	// neighbour (Fig. 3a).
	Attack1B timeseries.Series
	// Attack2A is the Integrated ARIMA attack vector under-reporting the
	// attacker (Fig. 3b).
	Attack2A timeseries.Series
	// Attack3A is the Optimal Swap vector (Fig. 3c).
	Attack3A timeseries.Series
}

// GenerateFig3 reproduces the Fig. 3 injections for one consumer of the
// dataset (the paper illustrates Consumer 1330).
func GenerateFig3(opts Options, consumerID int) (*Fig3Data, error) {
	s, err := prepareConsumer(opts, consumerID)
	if err != nil {
		return nil, err
	}
	start := timeseries.Slot(len(s.train))
	normalBill := pricing.Bill(opts.Scheme, s.normal, start)
	vec2A, err := worstIntegrated(s.suite.Integrated(), attack.Down, opts, s.rng, func(vec timeseries.Series) (float64, error) {
		return normalBill - pricing.Bill(opts.Scheme, vec, start), nil
	})
	if err != nil {
		return nil, err
	}
	swap, err := attack.OptimalSwap(s.normal, opts.Scheme)
	if err != nil {
		return nil, err
	}
	return &Fig3Data{
		ConsumerID: consumerID,
		Actual:     s.normal.Clone(),
		Attack1B:   s.vec1B,
		Attack2A:   vec2A,
		Attack3A:   swap,
	}, nil
}

// WriteCSV emits the Fig. 3 series as CSV: slot, actual, attack vectors.
func (f *Fig3Data) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "slot,actual_kw,attack_1b_kw,attack_2a2b_kw,attack_3a3b_kw"); err != nil {
		return err
	}
	for i := range f.Actual {
		if _, err := fmt.Fprintf(w, "%d,%g,%g,%g,%g\n",
			i, f.Actual[i], f.Attack1B[i], f.Attack2A[i], f.Attack3A[i]); err != nil {
			return err
		}
	}
	return nil
}

// Fig4Data holds everything plotted in Fig. 4: the X distribution, a
// training-week X_i distribution, the attack-week distribution, the full
// training KLD distribution, and the percentile thresholds.
type Fig4Data struct {
	ConsumerID int
	// BinEdges are the frozen histogram edges (B+1 values).
	BinEdges []float64
	// XDistribution is the baseline distribution across all training weeks.
	XDistribution []float64
	// XiDistribution is the distribution of the first training week (the
	// X_1 the paper plots).
	XiDistribution []float64
	// AttackDistribution is the distribution of the Integrated ARIMA
	// attack week.
	AttackDistribution []float64
	// AttackKLD is the divergence of the attack week.
	AttackKLD float64
	// TrainKLDs is the KLD distribution over training weeks (Fig. 4b).
	TrainKLDs []float64
	// Pct90 and Pct95 are the decision thresholds marked in Fig. 4(b).
	Pct90 float64
	Pct95 float64
}

// GenerateFig4 reproduces Fig. 4 for one consumer.
func GenerateFig4(opts Options, consumerID int, bins int) (*Fig4Data, error) {
	if bins <= 0 {
		bins = 10
	}
	s, err := prepareConsumer(opts, consumerID)
	if err != nil {
		return nil, err
	}
	kld, err := detect.NewKLDDetector(s.train, detect.KLDConfig{Bins: bins, Significance: 0.05})
	if err != nil {
		return nil, err
	}
	attackKLD, err := kld.Divergence(s.vec1B)
	if err != nil {
		return nil, err
	}
	trainK := kld.TrainingDivergences()
	return &Fig4Data{
		ConsumerID:         consumerID,
		BinEdges:           kld.BinEdges(),
		XDistribution:      kld.XDistribution(),
		XiDistribution:     kld.WeekDistribution(s.train.MustWeek(0)),
		AttackDistribution: kld.WeekDistribution(s.vec1B),
		AttackKLD:          attackKLD,
		TrainKLDs:          trainK,
		Pct90:              stats.Percentile(trainK, 90),
		Pct95:              stats.Percentile(trainK, 95),
	}, nil
}

// WriteCSV emits Fig. 4(a) as CSV: per-bin probabilities for the three
// distributions, followed by a comment block carrying the Fig. 4(b) data.
func (f *Fig4Data) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "bin_lo,bin_hi,x_prob,xi_prob,attack_prob"); err != nil {
		return err
	}
	for j := 0; j < len(f.XDistribution); j++ {
		if _, err := fmt.Fprintf(w, "%g,%g,%g,%g,%g\n",
			f.BinEdges[j], f.BinEdges[j+1],
			f.XDistribution[j], f.XiDistribution[j], f.AttackDistribution[j]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# attack_kld,%g\n# pct90,%g\n# pct95,%g\n",
		f.AttackKLD, f.Pct90, f.Pct95); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "# train_klds follow: week,kld"); err != nil {
		return err
	}
	for i, k := range f.TrainKLDs {
		if _, err := fmt.Fprintf(w, "# %d,%g\n", i, k); err != nil {
			return err
		}
	}
	return nil
}
