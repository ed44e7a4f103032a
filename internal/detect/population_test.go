package detect

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arima"
	"repro/internal/dataset"
	"repro/internal/pricing"
	"repro/internal/timeseries"
)

// popFixture generates a mixed population and returns the per-consumer
// training series.
func popFixture(t *testing.T, residential, smes, weeks, trainWeeks int) []timeseries.Series {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Residential:  residential,
		SMEs:         smes,
		Unclassified: 1,
		Weeks:        weeks,
		Seed:         2016,
	})
	if err != nil {
		t.Fatal(err)
	}
	trains := make([]timeseries.Series, len(ds.Consumers))
	for i := range ds.Consumers {
		train, _, err := ds.Consumers[i].Demand.Split(trainWeeks)
		if err != nil {
			t.Fatal(err)
		}
		trains[i] = train
	}
	return trains
}

func popSuiteConfig() SuiteConfig {
	scheme := pricing.Nightsaver()
	tierFn := func(slot int) int { return int(scheme.TierOf(timeseries.Slot(slot))) }
	return SuiteConfig{
		KLD:      KLDConfig{Significance: 0.05},
		PriceKLD: PriceKLDConfig{NTiers: 2, Tier: tierFn, Significance: 0.05},
	}
}

// suitesIdentical compares every trained artifact of two suites bitwise.
func suitesIdentical(t *testing.T, tag string, got, want *TrainedSuite) {
	t.Helper()
	if !reflect.DeepEqual(got.Model(), want.Model()) {
		t.Fatalf("%s: models differ: %+v vs %+v", tag, got.Model(), want.Model())
	}
	if math.Float64bits(got.ARIMA().Threshold()) != math.Float64bits(want.ARIMA().Threshold()) {
		t.Fatalf("%s: ARIMA thresholds differ: %v vs %v", tag, got.ARIMA().Threshold(), want.ARIMA().Threshold())
	}
	if got.ARIMA().HistoricPeak() != want.ARIMA().HistoricPeak() {
		t.Fatalf("%s: peaks differ", tag)
	}
	// The warmed predictor: confidence bounds stepped over the first
	// training week must agree bit for bit.
	gt, err := got.ARIMA().Tracker()
	if err != nil {
		t.Fatal(err)
	}
	wt, err := want.ARIMA().Tracker()
	if err != nil {
		t.Fatal(err)
	}
	for slot, v := range want.Train()[:timeseries.SlotsPerWeek] {
		glo, ghi := gt.Bounds()
		wlo, whi := wt.Bounds()
		if math.Float64bits(glo) != math.Float64bits(wlo) || math.Float64bits(ghi) != math.Float64bits(whi) {
			t.Fatalf("%s: slot %d bounds [%v, %v] vs [%v, %v]", tag, slot, glo, ghi, wlo, whi)
		}
		gt.Observe(v)
		wt.Observe(v)
	}
	glo, ghi := got.Integrated().MeanBounds()
	wlo, whi := want.Integrated().MeanBounds()
	if math.Float64bits(glo) != math.Float64bits(wlo) || math.Float64bits(ghi) != math.Float64bits(whi) ||
		math.Float64bits(got.Integrated().VarianceCap()) != math.Float64bits(want.Integrated().VarianceCap()) {
		t.Fatalf("%s: integrated bands differ", tag)
	}
	gk, err := got.KLD(0.05)
	if err != nil {
		t.Fatal(err)
	}
	wk, err := want.KLD(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(gk.Threshold()) != math.Float64bits(wk.Threshold()) {
		t.Fatalf("%s: KLD thresholds differ: %v vs %v", tag, gk.Threshold(), wk.Threshold())
	}
	if !reflect.DeepEqual(gk.TrainingDivergences(), wk.TrainingDivergences()) {
		t.Fatalf("%s: KLD training divergences differ", tag)
	}
	if !reflect.DeepEqual(gk.BinEdges(), wk.BinEdges()) {
		t.Fatalf("%s: KLD bin edges differ", tag)
	}
	if !reflect.DeepEqual(gk.XDistribution(), wk.XDistribution()) {
		t.Fatalf("%s: X distributions differ", tag)
	}
	gp, err1 := got.PriceKLD(0.05)
	wp, err2 := want.PriceKLD(0.05)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s: price KLD presence differs: %v vs %v", tag, err1, err2)
	}
	if err1 == nil {
		if math.Float64bits(gp.Threshold()) != math.Float64bits(wp.Threshold()) {
			t.Fatalf("%s: price KLD thresholds differ", tag)
		}
		if !reflect.DeepEqual(gp.TrainingDivergences(), wp.TrainingDivergences()) {
			t.Fatalf("%s: price KLD training divergences differ", tag)
		}
	}
}

// TestPopulationExactBitIdentical is the exactness guarantee: population
// training must reproduce the cold reference assembly
// (oracleTrainedSuite) bit for bit — same models, thresholds, divergences,
// and verdicts.
func TestPopulationExactBitIdentical(t *testing.T) {
	trains := popFixture(t, 6, 2, 14, 12)
	cfg := popSuiteConfig()
	trainer := NewPopulationTrainer(PopulationConfig{Suite: cfg, Workers: 3})
	res, err := trainer.TrainSeries(trains, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Consumers != len(trains) || res.Stats.Failed != 0 {
		t.Fatalf("stats: %+v", res.Stats)
	}
	for i, got := range res.Suites {
		if res.Errors[i] != nil {
			t.Fatalf("consumer %d: %v", i, res.Errors[i])
		}
		want, err := oracleTrainedSuite(trains[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		suitesIdentical(t, "exact", got, want)

		// Verdicts on a synthetic anomalous week must agree too.
		week := trains[i][:timeseries.SlotsPerWeek].Clone()
		for j := range week {
			week[j] *= 0.4
		}
		gv, err1 := got.KLD(0.05)
		wv, err2 := want.KLD(0.05)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		gvv, err1 := gv.Detect(week)
		wvv, err2 := wv.Detect(week)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if gvv != wvv {
			t.Fatalf("consumer %d: verdicts differ: %+v vs %+v", i, gvv, wvv)
		}
	}
}

// TestPopulationContainsPanic: a consumer whose training panics gets the
// panic as its error, and every other consumer trains exactly as in a
// clean run, at any worker count.
func TestPopulationContainsPanic(t *testing.T) {
	trains := popFixture(t, 10, 3, 14, 12)
	cfg := popSuiteConfig()
	clean, err := NewPopulationTrainer(PopulationConfig{Suite: cfg}).TrainSeries(trains, 0)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 0
	trainHook = func(i int) {
		if i == victim {
			panic("synthetic training crash")
		}
	}
	defer func() { trainHook = nil }()
	for _, workers := range []int{1, 4} {
		tag := fmt.Sprintf("workers=%d", workers)
		res, err := NewPopulationTrainer(PopulationConfig{Suite: cfg, Workers: workers}).TrainSeries(trains, 0)
		if err != nil {
			t.Fatalf("%s: a panicking consumer must not fail the population: %v", tag, err)
		}
		if res.Suites[victim] != nil || res.Errors[victim] == nil ||
			!strings.Contains(res.Errors[victim].Error(), "synthetic training crash") {
			t.Fatalf("%s: victim suite %v, error %v; want no suite and the panic as the error",
				tag, res.Suites[victim], res.Errors[victim])
		}
		if res.Stats.Failed != 1 {
			t.Errorf("%s: Failed = %d, want 1", tag, res.Stats.Failed)
		}
		if res.BusySeconds <= 0 {
			t.Errorf("%s: BusySeconds = %g, want > 0", tag, res.BusySeconds)
		}
		for i := range trains {
			if i == victim {
				continue
			}
			if res.Errors[i] != nil {
				t.Fatalf("%s: consumer %d: %v", tag, i, res.Errors[i])
			}
			suitesIdentical(t, tag, res.Suites[i], clean.Suites[i])
		}
	}
}

// TestPopulationDegenerateConsumer: a flat consumer trains via the full grid
// to the same degenerate model as the reference.
func TestPopulationDegenerateConsumer(t *testing.T) {
	trains := popFixture(t, 3, 0, 14, 12)
	flat := make(timeseries.Series, len(trains[0]))
	trains = append(trains, flat)
	trainer := NewPopulationTrainer(PopulationConfig{Suite: SuiteConfig{KLD: KLDConfig{Significance: 0.05}}})
	res, err := trainer.TrainSeries(trains, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := len(trains) - 1
	if res.Errors[last] != nil {
		t.Fatalf("flat consumer failed: %v", res.Errors[last])
	}
	want, err := oracleTrainedSuite(flat, SuiteConfig{KLD: KLDConfig{Significance: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Suites[last].Model(), want.Model()) {
		t.Fatalf("flat consumer model differs from cold training")
	}
}

// TestPopulationExactPaperFixture extends the exactness guarantee to the
// paper's full 500-consumer fixture: every consumer's model and thresholds must match cold training bit for bit. Skipped in -short runs —
// it trains the population twice.
func TestPopulationExactPaperFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("full 500-consumer fixture")
	}
	ds, err := dataset.Generate(dataset.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	trains := make([]timeseries.Series, len(ds.Consumers))
	for i := range ds.Consumers {
		trains[i], _, err = ds.Consumers[i].Demand.Split(60)
		if err != nil {
			t.Fatal(err)
		}
	}
	cfg := SuiteConfig{KLD: KLDConfig{Significance: 0.05}}
	trainer := NewPopulationTrainer(PopulationConfig{Suite: cfg})
	res, err := trainer.TrainSeries(trains, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Failed != 0 {
		t.Fatalf("%d consumers failed", res.Stats.Failed)
	}
	for i := range trains {
		want, err := oracleTrainedSuite(trains[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Suites[i]
		if !reflect.DeepEqual(got.Model(), want.Model()) {
			t.Fatalf("consumer %d: models differ", i)
		}
		if math.Float64bits(got.ARIMA().Threshold()) != math.Float64bits(want.ARIMA().Threshold()) {
			t.Fatalf("consumer %d: ARIMA thresholds differ", i)
		}
		gk, _ := got.KLD(0.05)
		wk, _ := want.KLD(0.05)
		if math.Float64bits(gk.Threshold()) != math.Float64bits(wk.Threshold()) ||
			!reflect.DeepEqual(gk.TrainingDivergences(), wk.TrainingDivergences()) {
			t.Fatalf("consumer %d: KLD artifacts differ", i)
		}
	}
}

// TestPopulationErrors covers input validation.
func TestPopulationErrors(t *testing.T) {
	trainer := NewPopulationTrainer(PopulationConfig{})
	if _, err := trainer.Train(nil); err == nil {
		t.Error("nil population accepted")
	}
	if _, err := trainer.TrainSeries(nil, 0); err == nil {
		t.Error("empty series list accepted")
	}
}

// TestPopulationFixedOrder: a pinned ARIMA order skips the grid and matches
// per-consumer training with the same order.
func TestPopulationFixedOrder(t *testing.T) {
	trains := popFixture(t, 3, 0, 14, 12)
	cfg := SuiteConfig{ARIMA: ARIMAConfig{Order: arima.Order{P: 1, D: 1, Q: 0}}, KLD: KLDConfig{Significance: 0.05}}
	trainer := NewPopulationTrainer(PopulationConfig{Suite: cfg})
	res, err := trainer.TrainSeries(trains, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trains {
		if res.Errors[i] != nil {
			t.Fatalf("consumer %d: %v", i, res.Errors[i])
		}
		want, err := oracleTrainedSuite(trains[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		suitesNoPrice(t, res.Suites[i], want)
	}
}

func suitesNoPrice(t *testing.T, got, want *TrainedSuite) {
	t.Helper()
	if !reflect.DeepEqual(got.Model(), want.Model()) {
		t.Fatalf("models differ")
	}
	if math.Float64bits(got.ARIMA().Threshold()) != math.Float64bits(want.ARIMA().Threshold()) {
		t.Fatalf("thresholds differ")
	}
}
