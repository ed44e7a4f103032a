package detect

import (
	"math"
	"strings"
	"testing"

	"repro/internal/pricing"
	"repro/internal/timeseries"
)

// maskedDetectors builds one instance of every Detector family from
// the same training series.
func maskedDetectors(t *testing.T, train timeseries.Series) map[string]Detector {
	t.Helper()
	out := make(map[string]Detector)

	kld, err := NewKLDDetector(train, KLDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out["kld"] = kld

	tou := pricing.Nightsaver()
	pkld, err := NewPriceKLDDetector(train, PriceKLDConfig{
		NTiers: 2,
		Tier:   func(slot int) int { return int(tou.TierOf(timeseries.Slot(slot))) },
	})
	if err != nil {
		t.Fatal(err)
	}
	out["price-kld"] = pkld

	arima, err := NewARIMADetector(train, ARIMAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out["arima"] = arima

	iarima, err := NewIntegratedARIMADetector(train, IntegratedARIMAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out["integrated-arima"] = iarima

	sn, err := NewSeasonalNaiveDetector(train, SeasonalNaiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out["seasonal-naive"] = sn

	pca, err := NewPCADetector(train, PCAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out["pca"] = pca
	return out
}

func TestDetectMaskedNilMaskMatchesDetect(t *testing.T) {
	train, test := testConsumer(t, 101, 24, 22)
	week := test.MustWeek(0)
	for name, d := range maskedDetectors(t, train) {
		plain, err := d.Detect(week)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, mask := range []timeseries.Mask{nil, timeseries.NewMask(len(week))} {
			got, err := d.DetectMasked(week, mask, QualityPolicy{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got != plain {
				t.Errorf("%s: masked verdict %+v != plain %+v", name, got, plain)
			}
		}
	}
}

func TestDetectMaskedInconclusiveBelowGate(t *testing.T) {
	train, test := testConsumer(t, 102, 24, 22)
	week := test.MustWeek(0).Clone()
	mask := timeseries.NewMask(len(week))
	// Kill 30% of the week — below the default 75% coverage gate.
	for i := 0; i < len(mask)*30/100; i++ {
		mask[i] = timeseries.StatusMissing
		week[i] = 0
	}
	for name, d := range maskedDetectors(t, train) {
		v, err := d.DetectMasked(week, mask, QualityPolicy{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !v.Inconclusive {
			t.Errorf("%s: verdict should be inconclusive at %.0f%% coverage", name, 100*mask.Coverage())
		}
		if v.Anomalous {
			t.Errorf("%s: inconclusive verdict must not also be anomalous", name)
		}
		if !strings.Contains(v.Reason, "inconclusive") {
			t.Errorf("%s: reason %q should mention inconclusive", name, v.Reason)
		}
	}
}

func TestDetectMaskedImputesAboveGate(t *testing.T) {
	train, test := testConsumer(t, 103, 24, 22)
	week := test.MustWeek(0).Clone()
	mask := timeseries.NewMask(len(week))
	// Corrupt a handful of slots with values that would fail validateWeek:
	// imputation must repair them before the inner Detect runs.
	for _, i := range []int{3, 40, 170, 333} {
		mask[i] = timeseries.StatusCorrupt
		week[i] = math.Inf(1)
	}
	mask[7] = timeseries.StatusMissing
	week[7] = math.NaN()
	for name, d := range maskedDetectors(t, train) {
		for _, policy := range []timeseries.ImputePolicy{timeseries.ImputeSeasonalNaive, timeseries.ImputeCarryForward} {
			v, err := d.DetectMasked(week, mask, QualityPolicy{Impute: policy})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, policy, err)
			}
			if v.Inconclusive {
				t.Errorf("%s/%s: verdict inconclusive at %.1f%% coverage (gate %.0f%%)",
					name, policy, 100*mask.Coverage(), 100*DefaultMinCoverage)
			}
		}
	}
}

func TestDetectMaskedStillFlagsAttackedWeek(t *testing.T) {
	train, test := testConsumer(t, 104, 24, 22)
	d, err := NewKLDDetector(train, KLDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// A crude full-week 80% cut: strongly anomalous under the KLD detector.
	week := test.MustWeek(0).Clone()
	for i := range week {
		week[i] *= 0.2
	}
	mask := timeseries.NewMask(len(week))
	for _, i := range []int{10, 11, 12, 200} {
		mask[i] = timeseries.StatusMissing
		week[i] = 0
	}
	v, err := d.DetectMasked(week, mask, QualityPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Anomalous {
		t.Fatalf("masked detection should still flag the attacked week: %+v", v)
	}
	if !strings.Contains(v.Reason, "coverage") {
		t.Errorf("anomalous masked reason should record the coverage it was judged at: %q", v.Reason)
	}
}

func TestDetectMaskedErrors(t *testing.T) {
	train, test := testConsumer(t, 105, 24, 22)
	d, err := NewKLDDetector(train, KLDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	week := test.MustWeek(0)
	if _, err := d.DetectMasked(week, timeseries.NewMask(10), QualityPolicy{}); err == nil {
		t.Error("mismatched mask length should error")
	}
	mask := timeseries.NewMask(len(week))
	mask[0] = timeseries.StatusMissing
	if _, err := d.DetectMasked(week[:100], mask[:100], QualityPolicy{}); err == nil {
		t.Error("short masked week should error")
	}
	if _, err := d.DetectMasked(week, mask, QualityPolicy{MinCoverage: 1.5}); err == nil {
		t.Error("out-of-range coverage gate should error")
	}
}

func TestQualityPolicyDefaults(t *testing.T) {
	p := QualityPolicy{}.withDefaults()
	if p.MinCoverage != DefaultMinCoverage {
		t.Errorf("default MinCoverage = %g, want %g", p.MinCoverage, DefaultMinCoverage)
	}
	if p.Impute != timeseries.ImputeSeasonalNaive {
		t.Errorf("default Impute = %v, want seasonal-naive", p.Impute)
	}
}

func TestStreamingKLDRejectsNonFinite(t *testing.T) {
	// Regression: the old guard only rejected v < 0, so NaN and +Inf slipped
	// into the window and poisoned every verdict for the next 336 readings.
	train, _ := testConsumer(t, 106, 20, 18)
	d, err := NewKLDDetector(train, KLDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range streamMakers() {
		t.Run(mk.name, func(t *testing.T) {
			s := mk.make(t, d, train.MustWeek(train.Weeks()-1))
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5} {
				if _, err := s.Observe(bad); err == nil {
					t.Errorf("Observe(%v) should error", bad)
				}
			}
			// Rejected readings must not advance or poison the window.
			if s.Filled() != 0 {
				t.Errorf("rejected readings advanced the window: Filled = %d", s.Filled())
			}
			v, err := s.Observe(train[0])
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(v.Score) {
				t.Error("window poisoned by a rejected reading: score is NaN")
			}
		})
	}
}

func TestStreamingKLDObserveStatus(t *testing.T) {
	train, test := testConsumer(t, 107, 24, 22)
	d, err := NewKLDDetector(train, KLDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	seed := train.MustWeek(train.Weeks() - 1)
	for _, mk := range streamMakers() {
		t.Run(mk.name, func(t *testing.T) {
			s := mk.make(t, d, seed)
			// A corrupt reading keeps the trusted seed value in the window:
			// the verdict equals a twin stream's that was fed that value.
			v, err := s.ObserveStatus(math.NaN(), timeseries.StatusCorrupt)
			if err != nil {
				t.Fatal(err)
			}
			if v.Inconclusive {
				t.Error("one bad slot out of 336 should stay above the gate")
			}
			twin := mk.make(t, d, seed)
			tv, err := twin.Observe(seed[0])
			if err != nil {
				t.Fatal(err)
			}
			if v != tv {
				t.Errorf("corrupt slot replaced the trusted value: verdict %+v, want %+v", v, tv)
			}
			if cov := s.Coverage(); cov >= 1 {
				t.Errorf("coverage should drop below 1 after a corrupt slot, got %g", cov)
			}
			// A later trusted lap over the same slot restores full coverage.
			week := test.MustWeek(0)
			for i, r := range week {
				if _, err := s.ObserveStatus(r, timeseries.StatusOK); err != nil {
					t.Fatalf("slot %d: %v", i, err)
				}
			}
			if cov := s.Coverage(); cov != 1 {
				t.Errorf("coverage after a full trusted lap = %g, want 1", cov)
			}
			if _, err := s.ObserveStatus(1, timeseries.ReadingStatus(99)); err == nil {
				t.Error("unknown status should error")
			}
		})
	}
}

func TestStreamingKLDInconclusiveBelowGate(t *testing.T) {
	train, _ := testConsumer(t, 108, 24, 22)
	d, err := NewKLDDetector(train, KLDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range streamMakers() {
		t.Run(mk.name, func(t *testing.T) {
			s, err := mk.new(d, train.MustWeek(train.Weeks()-1), QualityPolicy{MinCoverage: 0.9})
			if err != nil {
				t.Fatal(err)
			}
			// Drop 10% of the window plus one: coverage crosses below the
			// 90% gate.
			bad := timeseries.SlotsPerWeek/10 + 1
			var last Verdict
			for i := 0; i < bad; i++ {
				last, err = s.ObserveStatus(0, timeseries.StatusMissing)
				if err != nil {
					t.Fatal(err)
				}
			}
			if !last.Inconclusive {
				t.Fatalf("verdict at %.1f%% coverage should be inconclusive: %+v", 100*s.Coverage(), last)
			}
			// A full trusted lap overwrites every dropped slot; verdicts
			// become definite again.
			for i := 0; i < timeseries.SlotsPerWeek; i++ {
				last, err = s.Observe(train[i])
				if err != nil {
					t.Fatal(err)
				}
			}
			if last.Inconclusive {
				t.Fatalf("verdict after refill should be definite: %+v", last)
			}
		})
	}
}
