package detect

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arima"
	"repro/internal/pricing"
	"repro/internal/timeseries"
)

func testSuite(t *testing.T) (*TrainedSuite, timeseries.Series, timeseries.Series) {
	t.Helper()
	train, test := testConsumer(t, 41, 14, 12)
	suite, err := NewTrainedSuite(train, popSuiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	return suite, train, test.MustWeek(0)
}

// TestTrainedSuiteMatchesIndependentFits is the fit-once regression test:
// the suite matches the cold reference assembly bit for bit, and every
// detector it hands out is indistinguishable from one trained
// independently on the same series.
func TestTrainedSuiteMatchesIndependentFits(t *testing.T) {
	suite, train, week := testSuite(t)

	// The whole suite equals the cold reference assembly.
	want, err := oracleTrainedSuite(train, popSuiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	suitesIdentical(t, "oracle", suite, want)

	// The shared ARIMA model equals an independent grid selection.
	indep, err := NewARIMADetector(train, ARIMAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(suite.arimaDet.model, indep.model) {
		t.Errorf("suite model %+v != independent model %+v", suite.arimaDet.model, indep.model)
	}
	if suite.ARIMA().threshold != indep.threshold {
		t.Errorf("suite threshold %g != independent %g", suite.ARIMA().threshold, indep.threshold)
	}

	// The integrated detector's bands equal independent training.
	indepInt, err := NewIntegratedARIMADetector(train, IntegratedARIMAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lo1, hi1 := suite.Integrated().MeanBounds()
	lo2, hi2 := indepInt.MeanBounds()
	if lo1 != lo2 || hi1 != hi2 || suite.Integrated().VarianceCap() != indepInt.VarianceCap() {
		t.Errorf("integrated bands differ: [%g,%g] var %g vs [%g,%g] var %g",
			lo1, hi1, suite.Integrated().VarianceCap(), lo2, hi2, indepInt.VarianceCap())
	}

	// KLD detectors at both significance levels, including the derived one.
	for _, alpha := range []float64{0.05, 0.10} {
		got, err := suite.KLD(alpha)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewKLDDetector(train, KLDConfig{Significance: alpha})
		if err != nil {
			t.Fatal(err)
		}
		if got.threshold != want.threshold {
			t.Errorf("KLD(%g) threshold %g != independent %g", alpha, got.threshold, want.threshold)
		}
		if !reflect.DeepEqual(got.TrainingDivergences(), want.TrainingDivergences()) {
			t.Errorf("KLD(%g) training divergences differ", alpha)
		}
		gv, err := got.Detect(week)
		if err != nil {
			t.Fatal(err)
		}
		wv, err := want.Detect(week)
		if err != nil {
			t.Fatal(err)
		}
		if gv != wv {
			t.Errorf("KLD(%g) verdict %+v != independent %+v", alpha, gv, wv)
		}
	}

	// Price-KLD detectors likewise.
	scheme := pricing.Nightsaver()
	tierFn := func(slot int) int { return int(scheme.TierOf(timeseries.Slot(slot))) }
	for _, alpha := range []float64{0.05, 0.10} {
		got, err := suite.PriceKLD(alpha)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewPriceKLDDetector(train, PriceKLDConfig{NTiers: 2, Tier: tierFn, Significance: alpha})
		if err != nil {
			t.Fatal(err)
		}
		if got.threshold != want.threshold {
			t.Errorf("PriceKLD(%g) threshold %g != independent %g", alpha, got.threshold, want.threshold)
		}
		gv, err := got.Detect(week)
		if err != nil {
			t.Fatal(err)
		}
		wv, err := want.Detect(week)
		if err != nil {
			t.Fatal(err)
		}
		if gv != wv {
			t.Errorf("PriceKLD(%g) verdict %+v != independent %+v", alpha, gv, wv)
		}
	}
}

// TestTrainedSuiteSharing asserts the whole point of the suite: one ARIMA
// detector instance backs both rows, and derived significance levels share
// training artifacts instead of refitting.
func TestTrainedSuiteSharing(t *testing.T) {
	suite, _, _ := testSuite(t)
	if suite.Integrated().Inner() != suite.ARIMA() {
		t.Error("integrated detector does not share the suite's ARIMA detector")
	}
	k5, err := suite.KLD(0.05)
	if err != nil {
		t.Fatal(err)
	}
	k10, err := suite.KLD(0.10)
	if err != nil {
		t.Fatal(err)
	}
	if &k5.trainK[0] != &k10.trainK[0] {
		t.Error("derived KLD detector does not share training divergences")
	}
	if k5.hist != k10.hist {
		t.Error("derived KLD detector does not share the frozen histogram")
	}
	p5, err := suite.PriceKLD(0.05)
	if err != nil {
		t.Fatal(err)
	}
	p10, err := suite.PriceKLD(0.10)
	if err != nil {
		t.Fatal(err)
	}
	if &p5.trainK[0] != &p10.trainK[0] {
		t.Error("derived price-KLD detector does not share training divergences")
	}
}

// TestTrainedSuiteNoPriceTier checks the explicit error path.
func TestTrainedSuiteNoPriceTier(t *testing.T) {
	train, _ := testConsumer(t, 41, 14, 12)
	suite, err := NewTrainedSuite(train, SuiteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := suite.PriceKLD(0.05); err == nil {
		t.Error("PriceKLD without a tier function should error")
	}
}

// TestPredictorCloneMatchesRewarm verifies that cloning a warmed predictor
// is equivalent to placing a fresh one from a refit of the same history —
// the invariant the Tracker fast path relies on.
func TestPredictorCloneMatchesRewarm(t *testing.T) {
	suite, train, week := testSuite(t)
	d := suite.ARIMA()

	t1, err := d.Tracker() // clone path
	if err != nil {
		t.Fatal(err)
	}
	tf, err := arima.FitTrained(train, d.model.Order, arima.NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	t2, err := d.trackerAt(tf, len(train)) // fresh placement path
	if err != nil {
		t.Fatal(err)
	}
	for s, v := range week {
		lo1, hi1 := t1.Bounds()
		lo2, hi2 := t2.Bounds()
		if lo1 != lo2 || hi1 != hi2 {
			t.Fatalf("slot %d: clone bounds [%g,%g] != rewarm bounds [%g,%g]", s, lo1, hi1, lo2, hi2)
		}
		t1.Observe(v)
		t2.Observe(v)
	}
}

// TestConstructorsCopyTrainingSeries: only the population trainer aliases
// its storage. The one-series constructors keep a private copy of the
// caller's series, so overwriting it after construction changes no verdict
// (plain or masked, which imputes from the final training week) and no
// training series the suite keeps.
func TestConstructorsCopyTrainingSeries(t *testing.T) {
	train, test := testConsumer(t, 43, 14, 12)
	orig := train.Clone()
	arimaDet, err := NewARIMADetector(train, ARIMAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	integ, err := NewIntegratedARIMADetector(train, IntegratedARIMAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	suite, err := NewTrainedSuite(train, popSuiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	suiteKLD, err := suite.KLD(0.05)
	if err != nil {
		t.Fatal(err)
	}
	dets := map[string]Detector{
		"arima":            arimaDet,
		"integrated":       integ,
		"suite-arima":      suite.ARIMA(),
		"suite-integrated": suite.Integrated(),
		"suite-kld":        suiteKLD,
	}

	normal := test.MustWeek(0)
	attacked := normal.Clone()
	for i := range attacked {
		attacked[i] *= 0.3
	}
	mask := timeseries.NewMask(timeseries.SlotsPerWeek)
	for _, i := range []int{5, 60, 200} {
		mask[i] = timeseries.StatusMissing
	}
	verdicts := func() map[string]Verdict {
		out := make(map[string]Verdict)
		for name, d := range dets {
			for wi, week := range []timeseries.Series{normal, attacked} {
				v, err := d.Detect(week)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				out[fmt.Sprintf("%s/%d", name, wi)] = v
				mv, err := d.DetectMasked(week, mask, QualityPolicy{})
				if err != nil {
					t.Fatalf("%s masked: %v", name, err)
				}
				out[fmt.Sprintf("%s/%d/masked", name, wi)] = mv
			}
		}
		return out
	}
	before := verdicts()

	for i := range train {
		train[i] = 50 + float64(i%7)
	}
	if after := verdicts(); !reflect.DeepEqual(after, before) {
		t.Errorf("overwriting the caller's series changed verdicts:\nbefore %+v\nafter  %+v", before, after)
	}
	if !reflect.DeepEqual(suite.train, orig) {
		t.Error("overwriting the caller's series changed the suite's training series")
	}
}
