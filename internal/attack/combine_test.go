package attack

import (
	"math"
	"testing"

	"repro/internal/detect"
	"repro/internal/pricing"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

func TestCombined2B3BMoreProfitableThanEither(t *testing.T) {
	train, test := testConsumer(t, 81, 20, 18)
	det, err := detect.NewIntegratedARIMADetector(train, detect.IntegratedARIMAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	scheme := pricing.Nightsaver()
	actual := test.MustWeek(0)
	start := timeseries.Slot(len(train))

	// Plain 2B vector, the combination attack of Section VIII-F3 (the 2B
	// vector Optimal-Swapped across the TOU price boundary, Class 3B), and
	// a plain 3B swap of the actual readings.
	vec2B, err := IntegratedARIMAAttack(det, Down, IntegratedARIMAConfig{}, stats.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	combined, err := OptimalSwap(vec2B, scheme)
	if err != nil {
		t.Fatal(err)
	}
	swapOnly, err := OptimalSwap(actual, scheme)
	if err != nil {
		t.Fatal(err)
	}

	p2B, err := pricing.Profit(scheme, actual, vec2B, start)
	if err != nil {
		t.Fatal(err)
	}
	pCombined, err := pricing.Profit(scheme, actual, combined, start)
	if err != nil {
		t.Fatal(err)
	}
	pSwap, err := pricing.Profit(scheme, actual, swapOnly, start)
	if err != nil {
		t.Fatal(err)
	}
	// Section VIII-F3: the combination stacks the 3B swap gain on top of
	// the 2B under-report. The swap stage can only lower the reported bill,
	// so the combined profit dominates the plain 2B profit (the swap-only
	// profit depends on the spread of the underlying vector and need not
	// be dominated).
	if pCombined < p2B {
		t.Errorf("combined profit %.2f should be >= 2B profit %.2f", pCombined, p2B)
	}
	if pCombined <= 0 {
		t.Errorf("combined profit %.2f should be positive", pCombined)
	}
	t.Logf("profits: 2B %.2f, swap-only %.2f, combined %.2f", p2B, pSwap, pCombined)

	// The swap stage preserves the multiset, so a distribution-only KLD
	// detector scores the combined vector identically to the 2B vector.
	kld, err := detect.NewKLDDetector(train, detect.KLDConfig{Significance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	k2B, err := kld.Divergence(vec2B)
	if err != nil {
		t.Fatal(err)
	}
	kCombined, err := kld.Divergence(combined)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k2B-kCombined) > 1e-12 {
		t.Errorf("plain KLD must not distinguish the swap stage: %g vs %g", k2B, kCombined)
	}

	// The price-conditioned KLD sees the swap stage on top of the 2B shift.
	tier := func(slotOfWeek int) int { return int(scheme.TierOf(timeseries.Slot(slotOfWeek))) }
	priceKLD, err := detect.NewPriceKLDDetector(train, detect.PriceKLDConfig{
		NTiers: 2, Tier: tier, Significance: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	vCombined, err := priceKLD.Detect(combined)
	if err != nil {
		t.Fatal(err)
	}
	if !vCombined.Anomalous {
		t.Errorf("price-conditioned KLD should flag the combined attack (K=%g threshold=%g)",
			vCombined.Score, vCombined.Threshold)
	}
}
