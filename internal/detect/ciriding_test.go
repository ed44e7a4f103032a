package detect_test

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/experiments"
	"repro/internal/pricing"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// The band-anchoring experiment (EXPERIMENTS.md "Band anchoring") compares
// the ARIMA detector's band with the seasonal-naive detector's, which the
// package keeps in its tests (seasonal_naive_test.go); it lives here, in
// the package's external tests, because it also needs the attack package.

// CIRidingResult summarizes the band-riding comparison between the
// poisonable ARIMA confidence band and the trusted-history seasonal-naive
// band.
type CIRidingResult struct {
	Consumers int
	// ARIMAHaulKWh and NaiveHaulKWh are the total weekly energies of the
	// maximal band-riding vectors under each detector, summed across
	// consumers.
	ARIMAHaulKWh float64
	NaiveHaulKWh float64
	// MedianRatio is the per-consumer median of ARIMA-haul / naive-haul.
	MedianRatio float64
}

// CIRidingComparison quantifies the structural weakness the paper
// identifies in the ARIMA detector (Section VIII-B1): because its band is
// conditioned on reported readings, riding it escalates; the seasonal-naive
// band (detect.SeasonalNaiveDetector) is anchored to frozen trusted history
// and caps the haul at reference + z·sigma per slot. For each consumer both
// maximal band-riding vectors are constructed and their energies compared.
func CIRidingComparison(opts experiments.Options) (*CIRidingResult, error) {
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

	res := &CIRidingResult{Consumers: len(consumers)}
	ratios := make([]float64, 0, len(consumers))
	for i := range consumers {
		c := &consumers[i]
		train, _, err := c.Demand.Split(opts.TrainWeeks)
		if err != nil {
			return nil, fmt.Errorf("consumer %d: %w", c.ID, err)
		}
		arimaDet, err := detect.NewARIMADetector(train, detect.ARIMAConfig{})
		if err != nil {
			return nil, fmt.Errorf("consumer %d: %w", c.ID, err)
		}
		arimaVec, err := attack.ARIMAAttack(arimaDet, attack.Up, 0)
		if err != nil {
			return nil, fmt.Errorf("consumer %d: %w", c.ID, err)
		}
		naive, err := detect.NewSeasonalNaiveDetector(train, detect.SeasonalNaiveConfig{})
		if err != nil {
			return nil, fmt.Errorf("consumer %d: %w", c.ID, err)
		}
		naiveVec := make(timeseries.Series, timeseries.SlotsPerWeek)
		for s := range naiveVec {
			_, hi := naive.Bounds(s)
			naiveVec[s] = hi
		}
		a, n := arimaVec.Energy(), naiveVec.Energy()
		res.ARIMAHaulKWh += a
		res.NaiveHaulKWh += n
		if n > 0 {
			ratios = append(ratios, a/n)
		}
	}
	res.MedianRatio = stats.Percentile(ratios, 50)
	return res, nil
}

func TestCIRidingComparison(t *testing.T) {
	opts := experiments.Options{
		Dataset:    dataset.Config{Residential: 6, Weeks: 24, Seed: 2016},
		TrainWeeks: 22,
		Trials:     4,
		Scheme:     pricing.Nightsaver(),
		Seed:       2016,
	}
	res, err := CIRidingComparison(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Consumers != 6 {
		t.Fatalf("consumers = %d", res.Consumers)
	}
	if res.ARIMAHaulKWh <= 0 || res.NaiveHaulKWh <= 0 {
		t.Fatal("hauls should be positive")
	}
	// The structural result: riding the poisonable band yields a far
	// larger haul than riding the frozen band.
	if res.ARIMAHaulKWh <= res.NaiveHaulKWh {
		t.Errorf("ARIMA haul %.0f should exceed naive haul %.0f",
			res.ARIMAHaulKWh, res.NaiveHaulKWh)
	}
	if res.MedianRatio <= 1 {
		t.Errorf("median ratio = %g, want > 1", res.MedianRatio)
	}
	t.Logf("CI-riding: ARIMA %.0f kWh vs seasonal-naive %.0f kWh (median ratio %.1fx)",
		res.ARIMAHaulKWh, res.NaiveHaulKWh, res.MedianRatio)

	bad := opts
	bad.TrainWeeks = 0
	if _, err := CIRidingComparison(bad); err == nil {
		t.Error("invalid options should error")
	}
}

// BenchmarkCIRidingComparison prints the band-anchoring experiment
// (EXPERIMENTS.md "Band anchoring") on 12 consumers of the quick protocol,
// or of the paper's protocol with FDETA_BENCH_FULL=1.
func BenchmarkCIRidingComparison(b *testing.B) {
	opts := experiments.QuickOptions()
	if os.Getenv("FDETA_BENCH_FULL") != "" {
		opts = experiments.PaperOptions()
	}
	opts.MaxConsumers = 12
	var res *CIRidingResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = CIRidingComparison(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("band-riding hauls (poisonable ARIMA vs frozen seasonal-naive): ARIMA %.0f kWh vs seasonal-naive %.0f kWh (median per-consumer ratio %.1fx)",
		res.ARIMAHaulKWh, res.NaiveHaulKWh, res.MedianRatio)
	b.ReportMetric(res.MedianRatio, "haul-ratio")
}
