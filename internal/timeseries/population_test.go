package timeseries

import (
	"math"
	"testing"
)

func popTestSeries(weeks int, base float64) Series {
	s := make(Series, weeks*SlotsPerWeek)
	for i := range s {
		s[i] = base + float64(i%SlotsPerWeek)/100
	}
	return s
}

func TestPopulationMatrixViews(t *testing.T) {
	series := []Series{
		popTestSeries(4, 1),
		popTestSeries(5, 10), // longer than stored: truncated to 4
		popTestSeries(4, 100),
	}
	p, err := PopulationFromSeries(series, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Consumers() != 3 || p.weeks != 4 {
		t.Fatalf("dims %d x %d, want 3 x 4", p.Consumers(), p.weeks)
	}
	if len(p.data) != 3*4*SlotsPerWeek {
		t.Fatalf("flat length %d", len(p.data))
	}
	for i := range series {
		view := p.Series(i)
		if len(view) != 4*SlotsPerWeek {
			t.Fatalf("consumer %d view length %d", i, len(view))
		}
		for j, v := range view {
			if v != series[i][j] {
				t.Fatalf("consumer %d slot %d: %v != %v", i, j, series[i][j], v)
			}
		}
	}

	// Matrix view must be bit-identical to a copied NewWeekMatrix.
	for i := range series {
		got := p.Matrix(i)
		want, err := NewWeekMatrix(series[i], 4)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows() != want.Rows() {
			t.Fatalf("consumer %d rows %d != %d", i, got.Rows(), want.Rows())
		}
		gf, wf := got.data, want.data
		for j := range wf {
			if math.Float64bits(gf[j]) != math.Float64bits(wf[j]) {
				t.Fatalf("consumer %d flat[%d]: %v != %v", i, j, gf[j], wf[j])
			}
		}
		gp, wp := got.SeasonalProfile(), want.SeasonalProfile()
		for j := range wp {
			if math.Float64bits(gp[j]) != math.Float64bits(wp[j]) {
				t.Fatalf("consumer %d profile[%d]: %v != %v", i, j, gp[j], wp[j])
			}
		}
	}

	// Views alias storage: a write through Series(i) is visible in Flat.
	p.Series(1)[0] = -7
	if p.data[4*SlotsPerWeek] != -7 {
		t.Error("Series view does not alias flat storage")
	}
}

func TestPopulationMatrixShortestWeeks(t *testing.T) {
	p, err := PopulationFromSeries([]Series{popTestSeries(6, 1), popTestSeries(3, 2)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.weeks != 3 {
		t.Fatalf("weeks = %d, want shortest = 3", p.weeks)
	}
}

func TestPopulationMatrixErrors(t *testing.T) {
	if _, err := NewPopulationMatrix(0, 4); err == nil {
		t.Error("0 consumers accepted")
	}
	if _, err := NewPopulationMatrix(2, 0); err == nil {
		t.Error("0 weeks accepted")
	}
	if _, err := PopulationFromSeries(nil, 4); err == nil {
		t.Error("empty population accepted")
	}
	if _, err := PopulationFromSeries([]Series{popTestSeries(2, 1)}, 4); err == nil {
		t.Error("short series accepted")
	}
	p, _ := NewPopulationMatrix(1, 4)
	if err := p.SetSeries(0, popTestSeries(3, 1)); err == nil {
		t.Error("SetSeries with short series accepted")
	}
}

func TestColumnInto(t *testing.T) {
	m, err := NewWeekMatrix(popTestSeries(5, 2), 5)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, m.Rows())
	for _, j := range []int{0, 1, 100, SlotsPerWeek - 1} {
		want := m.Column(j)
		got := m.ColumnInto(dst, j)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("col %d row %d: %v != %v", j, i, got[i], want[i])
			}
		}
	}
	if m.Column(-1) != nil || m.Column(SlotsPerWeek) != nil {
		t.Error("out-of-range Column should return nil")
	}
}

func TestSeasonalProfileInto(t *testing.T) {
	// Use noisy-ish values so summation order matters if it were changed.
	s := make(Series, 7*SlotsPerWeek)
	for i := range s {
		s[i] = math.Sin(float64(i)*0.7)*3.1 + float64(i%13)/7
	}
	m, err := NewWeekMatrix(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := m.SeasonalProfile()
	got := m.SeasonalProfileInto(make(Series, SlotsPerWeek))
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("profile[%d]: %v != %v", j, got[j], want[j])
		}
	}
	// Reuse must re-zero the buffer.
	again := m.SeasonalProfileInto(got)
	for j := range want {
		if math.Float64bits(again[j]) != math.Float64bits(want[j]) {
			t.Fatalf("reused profile[%d]: %v != %v", j, again[j], want[j])
		}
	}
}
