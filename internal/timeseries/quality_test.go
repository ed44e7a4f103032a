package timeseries

import (
	"math"
	"testing"
)

func TestReadingStatusPredicates(t *testing.T) {
	cases := []struct {
		st     ReadingStatus
		usable bool
		name   string
	}{
		{StatusOK, true, "ok"},
		{StatusMissing, false, "missing"},
		{StatusCorrupt, false, "corrupt"},
		{StatusImputed, true, "imputed"},
	}
	for _, c := range cases {
		if c.st.Usable() != c.usable {
			t.Errorf("%v.Usable() = %v, want %v", c.st, c.st.Usable(), c.usable)
		}
		if c.st.String() != c.name {
			t.Errorf("%v.String() = %q, want %q", c.st, c.st.String(), c.name)
		}
	}
}

func TestMaskCoverage(t *testing.T) {
	if c := (Mask)(nil).Coverage(); c != 1 {
		t.Errorf("nil mask coverage = %g, want 1", c)
	}
	m := NewMask(4)
	if c := m.Coverage(); c != 1 {
		t.Errorf("all-OK coverage = %g, want 1", c)
	}
	m[0] = StatusMissing
	m[1] = StatusImputed // synthetic fill must not count toward coverage
	if c := m.Coverage(); c != 0.5 {
		t.Errorf("coverage = %g, want 0.5", c)
	}
	if bad := m.CountBad(); bad != 1 {
		t.Errorf("CountBad = %d, want 1 (imputed is usable)", bad)
	}
	if m.AllOK() {
		t.Error("AllOK true for a mask with bad slots")
	}
}

func TestMaskWeekAndSplit(t *testing.T) {
	m := NewMask(3 * SlotsPerWeek)
	m[SlotsPerWeek] = StatusCorrupt
	w1 := m.MustWeek(1)
	if w1[0] != StatusCorrupt {
		t.Error("Week(1) does not alias the underlying mask")
	}
	if _, err := m.Week(3); err == nil {
		t.Error("expected out-of-range error")
	}
	train, test, err := m.Split(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(train) != 2*SlotsPerWeek || len(test) != SlotsPerWeek {
		t.Errorf("split sizes %d/%d", len(train), len(test))
	}
	if _, _, err := m.Split(4); err == nil {
		t.Error("expected split error for too many training weeks")
	}
}

func maskedWeek() (Series, Mask, Series) {
	week := make(Series, SlotsPerWeek)
	ref := make(Series, SlotsPerWeek)
	for i := range week {
		week[i] = 2 + float64(i%10)
		ref[i] = 100 + float64(i)
	}
	mask := NewMask(SlotsPerWeek)
	return week, mask, ref
}

func TestImputeWeekSeasonalNaive(t *testing.T) {
	week, mask, ref := maskedWeek()
	mask[5] = StatusMissing
	mask[6] = StatusCorrupt
	filled, fm, err := ImputeWeek(week, mask, ref, ImputeSeasonalNaive)
	if err != nil {
		t.Fatal(err)
	}
	if filled[5] != ref[5] || filled[6] != ref[6] {
		t.Errorf("seasonal-naive fill = %g,%g, want %g,%g", filled[5], filled[6], ref[5], ref[6])
	}
	if fm[5] != StatusImputed || fm[6] != StatusImputed {
		t.Error("filled slots not marked imputed")
	}
	// Untouched slots keep their values and statuses.
	if filled[4] != week[4] || fm[4] != StatusOK {
		t.Error("imputation touched a good slot")
	}
	// The inputs are not mutated.
	if week[5] == ref[5] || mask[5] != StatusMissing {
		t.Error("ImputeWeek mutated its inputs")
	}
}

func TestImputeWeekCarryForward(t *testing.T) {
	week, mask, ref := maskedWeek()
	mask[0] = StatusMissing // week opens bad: must seed from the reference
	mask[10] = StatusMissing
	mask[11] = StatusMissing // contiguous gap carries the same donor
	filled, _, err := ImputeWeek(week, mask, ref, ImputeCarryForward)
	if err != nil {
		t.Fatal(err)
	}
	if filled[0] != ref[0] {
		t.Errorf("opening gap filled with %g, want reference %g", filled[0], ref[0])
	}
	if filled[10] != week[9] || filled[11] != week[9] {
		t.Errorf("carry-forward fill = %g,%g, want %g", filled[10], filled[11], week[9])
	}
}

func TestImputeWeekNoBadSlotsIsNoCopy(t *testing.T) {
	week, mask, ref := maskedWeek()
	filled, fm, err := ImputeWeek(week, mask, ref, ImputeSeasonalNaive)
	if err != nil {
		t.Fatal(err)
	}
	if &filled[0] != &week[0] || &fm[0] != &mask[0] {
		t.Error("pristine week should be returned without copying")
	}
}

func TestImputeWeekErrors(t *testing.T) {
	week, mask, ref := maskedWeek()
	if _, _, err := ImputeWeek(week[:10], mask[:10], ref, ImputeSeasonalNaive); err == nil {
		t.Error("expected short-week error")
	}
	if _, _, err := ImputeWeek(week, mask[:10], ref, ImputeSeasonalNaive); err == nil {
		t.Error("expected mask-mismatch error")
	}
	mask[3] = StatusMissing
	if _, _, err := ImputeWeek(week, mask, ref[:10], ImputeSeasonalNaive); err == nil {
		t.Error("expected short-reference error")
	}
}

func TestImputeSeriesSeasonalNaive(t *testing.T) {
	s := make(Series, 3*SlotsPerWeek)
	for i := range s {
		s[i] = float64(i)
	}
	mask := NewMask(len(s))
	// Bad slot in week 1 takes the same weekly slot from week 0.
	mask[SlotsPerWeek+7] = StatusMissing
	// Bad slot in week 0 has no earlier week: takes it from week 1.
	mask[3] = StatusCorrupt
	out, om, err := ImputeSeries(s, mask, ImputeSeasonalNaive)
	if err != nil {
		t.Fatal(err)
	}
	if out[SlotsPerWeek+7] != s[7] {
		t.Errorf("backward seasonal fill = %g, want %g", out[SlotsPerWeek+7], s[7])
	}
	if out[3] != s[SlotsPerWeek+3] {
		t.Errorf("forward seasonal fill = %g, want %g", out[3], s[SlotsPerWeek+3])
	}
	if om[3] != StatusImputed || om[SlotsPerWeek+7] != StatusImputed {
		t.Error("filled slots not marked imputed")
	}
	if s[3] != 3 {
		t.Error("ImputeSeries mutated its input")
	}
}

func TestImputeSeriesCarryForward(t *testing.T) {
	s := Series{1, 2, 3, 4}
	mask := Mask{StatusMissing, StatusOK, StatusMissing, StatusMissing}
	out, _, err := ImputeSeries(s, mask, ImputeCarryForward)
	if err != nil {
		t.Fatal(err)
	}
	want := Series{2, 2, 2, 2}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestImputeSeriesAllBadFallsBackToZero(t *testing.T) {
	s := Series{math.NaN(), math.NaN()}
	mask := Mask{StatusMissing, StatusMissing}
	out, om, err := ImputeSeries(s, mask, ImputeSeasonalNaive)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 || out[1] != 0 {
		t.Errorf("all-bad series filled with %v, want zeros", out)
	}
	if om.CountBad() != 0 {
		t.Error("all slots should be usable after imputation")
	}
	if err := out.Validate(); err != nil {
		t.Errorf("imputed series invalid: %v", err)
	}
}
