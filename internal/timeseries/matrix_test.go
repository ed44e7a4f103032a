package timeseries

import (
	"math"
	"testing"
)

func TestNewWeekMatrix(t *testing.T) {
	s := ramp(SlotsPerWeek * 3)
	m, err := NewWeekMatrix(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.Cols() != SlotsPerWeek {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	if m.Row(1)[0] != SlotsPerWeek {
		t.Error("row content wrong")
	}
	if len(m.Flat()) != 2*SlotsPerWeek {
		t.Error("Flat length wrong")
	}

	// weeks <= 0 selects all complete weeks.
	all, err := NewWeekMatrix(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if all.Rows() != 3 {
		t.Errorf("Rows = %d, want 3", all.Rows())
	}

	if _, err := NewWeekMatrix(s, 4); err == nil {
		t.Error("too many weeks should error")
	}
	if _, err := NewWeekMatrix(ramp(10), 0); err == nil {
		t.Error("no complete weeks should error")
	}
}

func TestWeekMatrixCopiesData(t *testing.T) {
	s := ramp(SlotsPerWeek)
	m, _ := NewWeekMatrix(s, 1)
	s[0] = 12345
	if m.Row(0)[0] != 0 {
		t.Error("matrix must copy the series at construction")
	}
}

// ColumnInto copies column j across all weeks — the M readings taken at the
// same half-hour-of-week — into dst, which must have length Rows(), so
// per-column gathers in hot loops reuse one slice instead of allocating M
// floats per call. j must be in [0, SlotsPerWeek).
func (m *WeekMatrix) ColumnInto(dst []float64, j int) []float64 {
	for i := 0; i < m.rows; i++ {
		dst[i] = m.data[i*SlotsPerWeek+j]
	}
	return dst
}

// Column returns a copy of column j across all weeks, or nil for j out of
// range.
func (m *WeekMatrix) Column(j int) []float64 {
	if j < 0 || j >= SlotsPerWeek {
		return nil
	}
	return m.ColumnInto(make([]float64, m.rows), j)
}

func TestColumn(t *testing.T) {
	s := ramp(SlotsPerWeek * 2)
	m, _ := NewWeekMatrix(s, 2)
	col := m.Column(5)
	if len(col) != 2 {
		t.Fatalf("column length = %d", len(col))
	}
	if col[0] != 5 || col[1] != float64(SlotsPerWeek+5) {
		t.Error("column content wrong")
	}
	if m.Column(-1) != nil || m.Column(SlotsPerWeek) != nil {
		t.Error("out-of-range column should be nil")
	}
}

func TestRowMeansAndVariances(t *testing.T) {
	// Week 0 all 2s, week 1 alternating 0/4: same mean, different variance.
	s := make(Series, SlotsPerWeek*2)
	for i := 0; i < SlotsPerWeek; i++ {
		s[i] = 2
	}
	for i := SlotsPerWeek; i < 2*SlotsPerWeek; i++ {
		if i%2 == 0 {
			s[i] = 4
		}
	}
	m, _ := NewWeekMatrix(s, 2)
	means := m.RowMeans()
	if means[0] != 2 || means[1] != 2 {
		t.Errorf("means = %v, want [2 2]", means)
	}
	vars := m.RowVariances()
	if vars[0] != 0 {
		t.Errorf("var of constant week = %g, want 0", vars[0])
	}
	wantVar := 4.0 * SlotsPerWeek / (SlotsPerWeek - 1) // E[(x-2)^2] = 4, unbiased
	if math.Abs(vars[1]-wantVar) > 1e-9 {
		t.Errorf("var = %g, want %g", vars[1], wantVar)
	}
}

func TestSeasonalProfile(t *testing.T) {
	// Two identical weeks: profile equals the week itself.
	week := make(Series, SlotsPerWeek)
	for i := range week {
		week[i] = math.Sin(float64(i)) + 2
	}
	s := append(week.Clone(), week.Clone()...)
	m, _ := NewWeekMatrix(s, 2)
	profile := m.SeasonalProfile()
	for j := range profile {
		if math.Abs(profile[j]-week[j]) > 1e-12 {
			t.Fatalf("profile[%d] = %g, want %g", j, profile[j], week[j])
		}
	}
}
