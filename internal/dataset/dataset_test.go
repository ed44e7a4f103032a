package dataset

import (
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/timeseries"
)

func TestConsumerClassString(t *testing.T) {
	if Residential.String() != "residential" || SME.String() != "sme" || Unclassified.String() != "unclassified" {
		t.Error("class names wrong")
	}
	if !strings.Contains(ConsumerClass(9).String(), "9") {
		t.Error("unknown class should include numeric value")
	}
}

func TestConfigValidate(t *testing.T) {
	good := SmallConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("small config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Residential = -1 },
		func(c *Config) { c.Residential, c.SMEs, c.Unclassified = 0, 0, 0 },
		func(c *Config) { c.Weeks = 1 },
		func(c *Config) { c.VacationRate = -0.1 },
		func(c *Config) { c.PartyRate = 1.5 },
	}
	for i, mutate := range cases {
		cfg := SmallConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
}

func TestPaperConfigCounts(t *testing.T) {
	cfg := PaperConfig()
	if cfg.Residential != 404 || cfg.SMEs != 36 || cfg.Unclassified != 60 {
		t.Error("population must match the paper: 404 residential, 36 SME, 60 unclassified")
	}
	if cfg.Residential+cfg.SMEs+cfg.Unclassified != 500 {
		t.Error("total must be 500 consumers")
	}
	if cfg.Weeks != 74 {
		t.Error("74 weeks per the paper")
	}
}

func TestGenerateBasicShape(t *testing.T) {
	ds, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := SmallConfig()
	want := cfg.Residential + cfg.SMEs + cfg.Unclassified
	if len(ds.Consumers) != want {
		t.Fatalf("consumer count = %d, want %d", len(ds.Consumers), want)
	}
	for _, c := range ds.Consumers {
		if len(c.Demand) != cfg.Weeks*timeseries.SlotsPerWeek {
			t.Fatalf("consumer %d series length %d", c.ID, len(c.Demand))
		}
		if err := c.Demand.Validate(); err != nil {
			t.Fatalf("consumer %d: %v", c.ID, err)
		}
	}
	// IDs are unique and CER-style.
	seen := map[int]bool{}
	for _, c := range ds.Consumers {
		if seen[c.ID] {
			t.Fatalf("duplicate ID %d", c.ID)
		}
		seen[c.ID] = true
		if c.ID < 1000 {
			t.Fatalf("ID %d not CER-style", c.ID)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Consumers {
		for s := range a.Consumers[i].Demand {
			if a.Consumers[i].Demand[s] != b.Consumers[i].Demand[s] {
				t.Fatal("generation must be deterministic from the seed")
			}
		}
	}
	cfg := SmallConfig()
	cfg.Seed = 99
	c, _ := Generate(cfg)
	if c.Consumers[0].Demand[0] == a.Consumers[0].Demand[0] &&
		c.Consumers[0].Demand[1] == a.Consumers[0].Demand[1] &&
		c.Consumers[0].Demand[2] == a.Consumers[0].Demand[2] {
		t.Error("different seeds should differ")
	}
}

func TestGenerateInvalidConfig(t *testing.T) {
	bad := SmallConfig()
	bad.Weeks = 0
	if _, err := Generate(bad); err == nil {
		t.Error("invalid config should error")
	}
}

// Autocorrelation returns the sample autocorrelation of xs at the given
// nonnegative lag, using the biased (1/n) covariance estimator that
// guarantees the autocorrelation sequence is positive semi-definite.
// It returns NaN if the lag is out of range or the series is constant.
func Autocorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag < 0 || lag >= n {
		return math.NaN()
	}
	m := stats.Mean(xs)
	var denom float64
	for _, x := range xs {
		d := x - m
		denom += d * d
	}
	if denom == 0 {
		return math.NaN()
	}
	var num float64
	for i := 0; i+lag < n; i++ {
		num += (xs[i] - m) * (xs[i+lag] - m)
	}
	return num / denom
}

func TestAutocorrelation(t *testing.T) {
	// Lag 0 autocorrelation is always 1 for non-constant data.
	xs := []float64{1, 2, 3, 4, 5, 4, 3, 2}
	if got := Autocorrelation(xs, 0); math.Abs(got-1) > 1e-12 {
		t.Errorf("lag-0 autocorrelation = %g, want 1", got)
	}
	// Constant series has undefined autocorrelation.
	if !math.IsNaN(Autocorrelation([]float64{2, 2, 2}, 1)) {
		t.Error("constant series autocorrelation should be NaN")
	}
	// Out of range lags.
	if !math.IsNaN(Autocorrelation(xs, -1)) || !math.IsNaN(Autocorrelation(xs, len(xs))) {
		t.Error("out-of-range lag should be NaN")
	}
	// A strongly periodic signal should show positive autocorrelation at
	// its period and negative at half its period.
	period := 10
	var signal []float64
	for i := 0; i < 200; i++ {
		signal = append(signal, math.Sin(2*math.Pi*float64(i)/float64(period)))
	}
	if r := Autocorrelation(signal, period); r < 0.8 {
		t.Errorf("autocorrelation at period = %g, want > 0.8", r)
	}
	if r := Autocorrelation(signal, period/2); r > -0.8 {
		t.Errorf("autocorrelation at half period = %g, want < -0.8", r)
	}
}

func TestGenerateWeeklyPeriodicity(t *testing.T) {
	ds, _ := Generate(SmallConfig())
	// The average consumer should show stronger autocorrelation at one week
	// than at a 100-slot offset — the structure the KLD detector relies on.
	c := ds.Consumers[0]
	acWeek := Autocorrelation(c.Demand, timeseries.SlotsPerWeek)
	acOff := Autocorrelation(c.Demand, 100)
	if acWeek < 0.2 {
		t.Errorf("weekly autocorrelation = %g, want substantial", acWeek)
	}
	if acWeek <= acOff {
		t.Errorf("weekly autocorrelation (%g) should exceed off-period (%g)", acWeek, acOff)
	}
	// Daily periodicity exists too.
	acDay := Autocorrelation(c.Demand, timeseries.SlotsPerDay)
	if acDay < 0.2 {
		t.Errorf("daily autocorrelation = %g, want substantial", acDay)
	}
}

func TestGeneratePeakHeavyCalibration(t *testing.T) {
	cfg := SmallConfig()
	cfg.Residential = 60
	cfg.Weeks = 8
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Section VIII-B3: ~94.4% of consumers peak-heavy on >90% of days under
	// the 9:00-24:00 window. The synthetic population must land in the same
	// regime (allowing slack for the small sample).
	frac := ds.PeakHeavyFraction(9, 24, 0.9)
	if frac < 0.85 {
		t.Errorf("peak-heavy fraction = %g, want >= 0.85 to match the paper's 94.4%%", frac)
	}
}

func TestGenerateSMELargerThanResidential(t *testing.T) {
	cfg := Config{Residential: 20, SMEs: 20, Weeks: 4, Seed: 3}
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var resSum, smeSum float64
	var resN, smeN int
	for _, c := range ds.Consumers {
		e := c.Demand.Energy()
		if c.Class == Residential {
			resSum += e
			resN++
		} else if c.Class == SME {
			smeSum += e
			smeN++
		}
	}
	if smeSum/float64(smeN) <= resSum/float64(resN) {
		t.Error("SMEs should consume more on average than residential consumers")
	}
}

func TestByID(t *testing.T) {
	ds, _ := Generate(SmallConfig())
	c, err := ds.ByID(1000)
	if err != nil || c.ID != 1000 {
		t.Error("ByID failed for existing consumer")
	}
	if _, err := ds.ByID(99999); err == nil {
		t.Error("missing ID should error")
	}
}

func TestDescribe(t *testing.T) {
	ds, _ := Generate(SmallConfig())
	st := ds.Describe(9, 24)
	if st.Consumers != len(ds.Consumers) || st.Weeks != ds.Weeks {
		t.Error("describe counts wrong")
	}
	if st.MeanDemand <= 0 || st.TotalEnergy <= 0 {
		t.Error("describe statistics should be positive")
	}
	if st.MaxDemand < st.MeanDemand {
		t.Error("max demand below mean")
	}
	if len(st.LargestIDs) == 0 {
		t.Error("largest consumers missing")
	}
	if st.ClassCounts[Residential] != SmallConfig().Residential {
		t.Error("class counts wrong")
	}
	if math.IsNaN(st.PeakHeavyFrac) {
		t.Error("peak-heavy fraction should be computed")
	}
	// Largest IDs sorted by energy descending.
	first, _ := ds.ByID(st.LargestIDs[0])
	second, _ := ds.ByID(st.LargestIDs[1])
	if first.Demand.Energy() < second.Demand.Energy() {
		t.Error("LargestIDs not sorted by energy")
	}
}

func TestPeakHeavyFractionEmptyDataset(t *testing.T) {
	d := &Dataset{}
	if !math.IsNaN(d.PeakHeavyFraction(9, 24, 0.9)) {
		t.Error("empty dataset should give NaN")
	}
}

func TestGenerateAnomaliesPresent(t *testing.T) {
	cfg := SmallConfig()
	cfg.Residential = 30
	cfg.Weeks = 30
	cfg.VacationRate = 0.05 // force anomalies for the test
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At least one consumer should have a week whose energy is under 30% of
	// their median week (a vacation).
	foundVacation := false
	for _, c := range ds.Consumers {
		energies := make([]float64, c.Demand.Weeks())
		for w := range energies {
			energies[w] = c.Demand.MustWeek(w).Energy()
		}
		med := stats.Percentile(energies, 50)
		for _, e := range energies {
			if e < 0.3*med {
				foundVacation = true
				break
			}
		}
		if foundVacation {
			break
		}
	}
	if !foundVacation {
		t.Error("vacation anomalies should appear at a 5% weekly rate")
	}
}
