package fault

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/timeseries"
)

// MustParse is Parse for specs the tests compile in; it panics on error.
func MustParse(spec string) []Scenario {
	out, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return out
}

func testDataset(t *testing.T, seed int64) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{Residential: 4, SMEs: 1, Weeks: 6, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestRealizeDeterministic(t *testing.T) {
	plan := Plan{Seed: 7, Scenarios: MustParse("dropout:0.1+outage:0.5,48+spike:0.02")}
	a, err := plan.Realize(42, 4*timeseries.SlotsPerWeek)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plan.Realize(42, 4*timeseries.SlotsPerWeek)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same (plan, key, span) must realize identically")
	}
	c, err := plan.Realize(43, 4*timeseries.SlotsPerWeek)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different keys should realize differently")
	}
	if a.Bad() == 0 {
		t.Error("a 10% dropout plan over 4 weeks should fault some slots")
	}
}

func TestDropoutRateAndStatus(t *testing.T) {
	plan := Plan{Seed: 1, Scenarios: []Scenario{{Kind: Dropout, Rate: 0.1}}}
	n := 20 * timeseries.SlotsPerWeek
	r, err := plan.Realize(5, n)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(r.Bad()) / float64(n)
	if frac < 0.07 || frac > 0.13 {
		t.Errorf("dropout fraction = %.3f, want ~0.10", frac)
	}
	s := make(timeseries.Series, n)
	for i := range s {
		s[i] = 1 + float64(i%48)
	}
	obs, mask, err := r.Apply(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s {
		if mask[i] == timeseries.StatusMissing {
			if obs[i] != 0 {
				t.Fatalf("slot %d: missing reading should observe 0, got %g", i, obs[i])
			}
		} else if mask[i] != timeseries.StatusOK {
			t.Fatalf("slot %d: dropout should only produce Missing, got %v", i, mask[i])
		} else if obs[i] != s[i] {
			t.Fatalf("slot %d: untouched reading changed: %g != %g", i, obs[i], s[i])
		}
	}
	// Input untouched.
	if s[0] != 1 {
		t.Error("Apply must not modify its input")
	}
}

func TestOutageWindows(t *testing.T) {
	plan := Plan{Seed: 3, Scenarios: []Scenario{{Kind: Outage, Rate: 1, Duration: 48}}}
	n := 10 * timeseries.SlotsPerWeek
	r, err := plan.Realize(9, n)
	if err != nil {
		t.Fatal(err)
	}
	// ~10 windows × 48 slots expected; accept a wide Poisson band.
	if r.Bad() < 3*48 || r.Bad() > 20*48 {
		t.Errorf("outage slots = %d, want a few hundred", r.Bad())
	}
	// Check contiguity: faulted slots should cluster in runs of ~48.
	s := make(timeseries.Series, n)
	_, mask, err := r.Apply(s)
	if err != nil {
		t.Fatal(err)
	}
	runs, cur := 0, 0
	for _, st := range mask {
		if st == timeseries.StatusMissing {
			cur++
		} else if cur > 0 {
			runs++
			cur = 0
		}
	}
	if cur > 0 {
		runs++
	}
	if runs == 0 || runs > 25 {
		t.Errorf("outage runs = %d, want a handful of contiguous windows", runs)
	}
}

func TestStuckAtFreezesValue(t *testing.T) {
	plan := Plan{Seed: 11, Scenarios: []Scenario{{Kind: StuckAt, Rate: 2, Duration: 6}}}
	n := 2 * timeseries.SlotsPerWeek
	r, err := plan.Realize(4, n)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bad() == 0 {
		t.Skip("no stuck windows drawn at this seed")
	}
	s := make(timeseries.Series, n)
	for i := range s {
		s[i] = float64(i)
	}
	obs, mask, err := r.Apply(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mask {
		if mask[i] != timeseries.StatusCorrupt {
			continue
		}
		// A stuck slot repeats the value of some earlier (anchor) slot.
		if obs[i] == s[i] && i > 0 {
			// Anchor slot itself reports its own value — fine.
			continue
		}
		if obs[i] > s[i] {
			t.Fatalf("slot %d: stuck value %g should not exceed true value %g (anchors precede)", i, obs[i], s[i])
		}
	}
}

func TestSpikeMultiplies(t *testing.T) {
	plan := Plan{Seed: 13, Scenarios: []Scenario{{Kind: Spike, Rate: 0.05, Magnitude: 10}}}
	n := 4 * timeseries.SlotsPerWeek
	r, err := plan.Realize(8, n)
	if err != nil {
		t.Fatal(err)
	}
	s := make(timeseries.Series, n)
	for i := range s {
		s[i] = 2
	}
	obs, mask, err := r.Apply(s)
	if err != nil {
		t.Fatal(err)
	}
	spikes := 0
	for i := range mask {
		if mask[i] == timeseries.StatusCorrupt {
			spikes++
			if obs[i] != 20 {
				t.Fatalf("slot %d: spiked value = %g, want 20", i, obs[i])
			}
		}
	}
	if spikes == 0 {
		t.Error("5% spike rate over 4 weeks should spike some slots")
	}
}

func TestClockSlipDuplicates(t *testing.T) {
	plan := Plan{Seed: 17, Scenarios: []Scenario{{Kind: ClockSlip, Rate: 3, Duration: 4}}}
	n := 4 * timeseries.SlotsPerWeek
	r, err := plan.Realize(2, n)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bad() == 0 {
		t.Skip("no slip windows drawn at this seed")
	}
	s := make(timeseries.Series, n)
	for i := range s {
		s[i] = float64(i)
	}
	obs, mask, err := r.Apply(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mask {
		if mask[i] == timeseries.StatusCorrupt && i > 0 {
			if obs[i] != s[i-1] {
				t.Fatalf("slot %d: slipped value = %g, want predecessor %g", i, obs[i], s[i-1])
			}
		}
	}
}

func TestMeterFraction(t *testing.T) {
	plan := Plan{Seed: 19, Scenarios: []Scenario{{Kind: Dropout, Rate: 0.5}}, MeterFraction: 0.5}
	affected := 0
	for key := int64(0); key < 200; key++ {
		r, err := plan.Realize(key, timeseries.SlotsPerWeek)
		if err != nil {
			t.Fatal(err)
		}
		if r.Bad() > 0 {
			affected++
		}
	}
	if affected < 70 || affected > 130 {
		t.Errorf("affected meters = %d/200, want ~100", affected)
	}
}

func TestInjectDataset(t *testing.T) {
	ds := testDataset(t, 21)
	pristine := make([]timeseries.Series, len(ds.Consumers))
	for i, c := range ds.Consumers {
		pristine[i] = c.Demand.Clone()
	}
	plan := Plan{Seed: 23, Scenarios: MustParse("dropout:0.2"), FromWeek: 4}
	if err := plan.Inject(ds); err != nil {
		t.Fatal(err)
	}
	cut := 4 * timeseries.SlotsPerWeek
	touched := 0
	for i, c := range ds.Consumers {
		if c.Quality == nil {
			continue
		}
		touched++
		if len(c.Quality) != len(c.Demand) {
			t.Fatalf("consumer %d: mask length %d != demand length %d", c.ID, len(c.Quality), len(c.Demand))
		}
		for s := 0; s < cut; s++ {
			if c.Quality[s] != timeseries.StatusOK || c.Demand[s] != pristine[i][s] {
				t.Fatalf("consumer %d slot %d: training prefix must stay pristine", c.ID, s)
			}
		}
		bad := 0
		for s := cut; s < len(c.Quality); s++ {
			if c.Quality[s] != timeseries.StatusOK {
				bad++
			}
		}
		if bad == 0 {
			t.Errorf("consumer %d: mask set but no faulted slots", c.ID)
		}
	}
	if touched == 0 {
		t.Error("20% dropout should touch every consumer's monitored span")
	}
}

func TestInjectDeterministicAcrossOrder(t *testing.T) {
	plan := Plan{Seed: 29, Scenarios: MustParse("dropout:0.1+stuckat:1,12")}
	a := testDataset(t, 31)
	b := testDataset(t, 31)
	// Reverse b's consumer order, inject, then restore: per-meter streams
	// must make the outcome order-independent.
	for i, j := 0, len(b.Consumers)-1; i < j; i, j = i+1, j-1 {
		b.Consumers[i], b.Consumers[j] = b.Consumers[j], b.Consumers[i]
	}
	if err := plan.Inject(a); err != nil {
		t.Fatal(err)
	}
	if err := plan.Inject(b); err != nil {
		t.Fatal(err)
	}
	for _, ca := range a.Consumers {
		cb, err := b.ByID(ca.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ca.Demand, cb.Demand) || !reflect.DeepEqual(ca.Quality, cb.Quality) {
			t.Fatalf("consumer %d: injection depends on iteration order", ca.ID)
		}
	}
}

func TestDisabledPlanIsNoOp(t *testing.T) {
	ds := testDataset(t, 37)
	before := ds.Consumers[0].Demand.Clone()
	if err := (Plan{Seed: 1}).Inject(ds); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, ds.Consumers[0].Demand) || ds.Consumers[0].Quality != nil {
		t.Error("disabled plan must not touch the dataset")
	}
}

func TestScenarioComposePrecedence(t *testing.T) {
	// First scenario claims everything; second must not overwrite.
	plan := Plan{Seed: 41, Scenarios: []Scenario{
		{Kind: Dropout, Rate: 1},
		{Kind: Spike, Rate: 1, Magnitude: 10},
	}}
	n := timeseries.SlotsPerWeek
	r, err := plan.Realize(1, n)
	if err != nil {
		t.Fatal(err)
	}
	s := make(timeseries.Series, n)
	for i := range s {
		s[i] = 5
	}
	obs, mask, err := r.Apply(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mask {
		if mask[i] != timeseries.StatusMissing || obs[i] != 0 {
			t.Fatalf("slot %d: dropout listed first must win (got status %v value %g)", i, mask[i], obs[i])
		}
	}
}

func TestApplyShortSeries(t *testing.T) {
	plan := Plan{Seed: 1, Scenarios: MustParse("dropout:0.5")}
	r, err := plan.Realize(1, timeseries.SlotsPerWeek)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Apply(make(timeseries.Series, 10)); err == nil {
		t.Error("series shorter than realization should error")
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Scenarios: []Scenario{{Kind: Dropout, Rate: 1.5}}},
		{Scenarios: []Scenario{{Kind: Spike, Rate: -0.1}}},
		{Scenarios: []Scenario{{Kind: Kind(99), Rate: 0.1}}},
		{Scenarios: []Scenario{{Kind: Outage, Rate: 1, Duration: -1}}},
		{FromWeek: -1},
		{MeterFraction: 2},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d should fail validation", i)
		}
	}
}

func TestParse(t *testing.T) {
	scens, err := Parse("dropout:0.1+outage:0.5,24+spike:0.01,100+stuckat:1+clockslip:2,8")
	if err != nil {
		t.Fatal(err)
	}
	want := []Scenario{
		{Kind: Dropout, Rate: 0.1},
		{Kind: Outage, Rate: 0.5, Duration: 24},
		{Kind: Spike, Rate: 0.01, Magnitude: 100},
		{Kind: StuckAt, Rate: 1, Duration: timeseries.SlotsPerDay},
		{Kind: ClockSlip, Rate: 2, Duration: 8},
	}
	if len(scens) != len(want) {
		t.Fatalf("parsed %d scenarios, want %d", len(scens), len(want))
	}
	for i := range want {
		if scens[i] != want[i].withDefaults() {
			t.Errorf("scenario %d = %+v, want %+v", i, scens[i], want[i].withDefaults())
		}
	}
	for _, spec := range []string{"", "none"} {
		got, err := Parse(spec)
		if err != nil || got != nil {
			t.Errorf("Parse(%q) = %v, %v; want nil, nil", spec, got, err)
		}
	}
	for _, spec := range []string{"dropout", "bogus:0.1", "dropout:x", "dropout:2", "spike:0.1,a", "outage:1,2,3", "outage:1,x"} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) should error", spec)
		}
	}
	// Round trip through String.
	plan := Plan{Scenarios: want}
	reparsed, err := Parse(plan.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", plan.String(), err)
	}
	for i := range want {
		if reparsed[i] != want[i].withDefaults() {
			t.Errorf("round-trip scenario %d = %+v, want %+v", i, reparsed[i], want[i].withDefaults())
		}
	}
	if (Plan{}).String() != "none" {
		t.Errorf("empty plan String = %q, want none", (Plan{}).String())
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Dropout: "dropout", Outage: "outage", StuckAt: "stuckat", Spike: "spike", ClockSlip: "clockslip"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}
