package timeseries

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func ramp(n int) Series {
	s := make(Series, n)
	for i := range s {
		s[i] = float64(i)
	}
	return s
}

func TestConstants(t *testing.T) {
	if SlotsPerWeek != 336 {
		t.Fatalf("SlotsPerWeek = %d, want 336 (paper Section VII-D)", SlotsPerWeek)
	}
	if SlotsPerDay != 48 || DaysPerWeek != 7 || DeltaHours != 0.5 {
		t.Fatal("temporal constants drifted from the paper's data model")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := ramp(10)
	c := s.Clone()
	c[0] = 999
	if s[0] != 0 {
		t.Error("Clone must not alias the original")
	}
}

func TestWeekAccess(t *testing.T) {
	s := ramp(SlotsPerWeek*2 + 10) // 2 complete weeks + partial
	if s.Weeks() != 2 {
		t.Fatalf("Weeks = %d, want 2", s.Weeks())
	}
	w0, err := s.Week(0)
	if err != nil {
		t.Fatal(err)
	}
	if w0[0] != 0 || len(w0) != SlotsPerWeek {
		t.Error("week 0 content wrong")
	}
	w1, err := s.Week(1)
	if err != nil {
		t.Fatal(err)
	}
	if w1[0] != SlotsPerWeek {
		t.Error("week 1 content wrong")
	}
	if _, err := s.Week(2); err == nil {
		t.Error("incomplete week 2 should be out of range")
	}
	if _, err := s.Week(-1); err == nil {
		t.Error("negative week should error")
	}
}

func TestMustWeekPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustWeek should panic out of range")
		}
	}()
	ramp(10).MustWeek(0)
}

// Day returns the d-th complete day as a subslice.
func (s Series) Day(d int) (Series, error) {
	if d < 0 || (d+1)*SlotsPerDay > len(s) {
		return nil, fmt.Errorf("timeseries: day %d out of range", d)
	}
	return s[d*SlotsPerDay : (d+1)*SlotsPerDay], nil
}

// ClampNonNegative returns a copy with negative readings replaced by zero.
// Demand is physically nonnegative (D ∈ R≥0, Section III), so synthetic
// generators and attack injectors clamp through this.
func (s Series) ClampNonNegative() Series {
	out := make(Series, len(s))
	for i, v := range s {
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

func TestDayAccess(t *testing.T) {
	s := ramp(SlotsPerDay * 3)
	d, err := s.Day(2)
	if err != nil {
		t.Fatal(err)
	}
	if d[0] != float64(2*SlotsPerDay) {
		t.Error("day slice wrong")
	}
	if _, err := s.Day(3); err == nil {
		t.Error("day out of range should error")
	}
}

func TestEnergy(t *testing.T) {
	// 4 slots at 2 kW = 2 kWh·4·0.5 = 4 kWh.
	s := Series{2, 2, 2, 2}
	if got := s.Energy(); got != 4 {
		t.Errorf("Energy = %g, want 4", got)
	}
	if got := (Series{}).Energy(); got != 0 {
		t.Errorf("empty energy = %g, want 0", got)
	}
}

func TestAddSub(t *testing.T) {
	a := Series{1, 2, 3}
	b := Series{4, 5, 6}
	sum, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	if sum[2] != 9 {
		t.Error("Add wrong")
	}
	diff, err := b.Sub(a)
	if err != nil {
		t.Fatal(err)
	}
	if diff[0] != 3 {
		t.Error("Sub wrong")
	}
	if _, err := a.Add(Series{1}); !errors.Is(err, ErrLengthMismatch) {
		t.Error("length mismatch should yield ErrLengthMismatch")
	}
	if _, err := a.Sub(Series{1}); !errors.Is(err, ErrLengthMismatch) {
		t.Error("length mismatch should yield ErrLengthMismatch")
	}
}

func TestScaleAndClamp(t *testing.T) {
	s := Series{1, -2, 3}
	if got := s.Scale(2); got[1] != -4 {
		t.Error("Scale wrong")
	}
	c := s.ClampNonNegative()
	if c[1] != 0 || c[0] != 1 {
		t.Error("ClampNonNegative wrong")
	}
	if s[1] != -2 {
		t.Error("ClampNonNegative must not mutate the receiver")
	}
}

func TestValidate(t *testing.T) {
	if err := (Series{1, 2}).Validate(); err != nil {
		t.Errorf("valid series rejected: %v", err)
	}
	for _, bad := range []Series{{math.NaN()}, {math.Inf(1)}, {-1}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("series %v should be invalid", bad)
		}
	}
}

func TestSplit(t *testing.T) {
	s := ramp(SlotsPerWeek*5 + 7) // 5 complete weeks + stray readings
	train, test, err := s.Split(3)
	if err != nil {
		t.Fatal(err)
	}
	if train.Weeks() != 3 || test.Weeks() != 2 {
		t.Fatalf("split = %d/%d weeks, want 3/2", train.Weeks(), test.Weeks())
	}
	if len(test) != 2*SlotsPerWeek {
		t.Error("trailing partial week must be dropped")
	}
	if _, _, err := s.Split(0); err == nil {
		t.Error("zero training weeks should error")
	}
	if _, _, err := s.Split(6); err == nil {
		t.Error("oversized training split should error")
	}
}

func TestSlotArithmetic(t *testing.T) {
	tests := []struct {
		slot      Slot
		week, dow int
		sod       int
		hour      float64
		weekend   bool
	}{
		{0, 0, 0, 0, 0, false},
		{47, 0, 0, 47, 23.5, false},
		{48, 0, 1, 0, 0, false},
		{SlotsPerWeek - 1, 0, 6, 47, 23.5, true},
		{SlotsPerWeek, 1, 0, 0, 0, false},
		{5*SlotsPerDay + 18, 0, 5, 18, 9, true}, // Saturday 09:00
	}
	for _, tt := range tests {
		if tt.slot.Week() != tt.week {
			t.Errorf("slot %d Week = %d, want %d", tt.slot, tt.slot.Week(), tt.week)
		}
		if tt.slot.DayOfWeek() != tt.dow {
			t.Errorf("slot %d DayOfWeek = %d, want %d", tt.slot, tt.slot.DayOfWeek(), tt.dow)
		}
		if tt.slot.SlotOfDay() != tt.sod {
			t.Errorf("slot %d SlotOfDay = %d, want %d", tt.slot, tt.slot.SlotOfDay(), tt.sod)
		}
		if tt.slot.HourOfDay() != tt.hour {
			t.Errorf("slot %d HourOfDay = %g, want %g", tt.slot, tt.slot.HourOfDay(), tt.hour)
		}
		if tt.slot.IsWeekend() != tt.weekend {
			t.Errorf("slot %d IsWeekend = %v, want %v", tt.slot, tt.slot.IsWeekend(), tt.weekend)
		}
	}
	if !strings.Contains(Slot(48).String(), "day 1") {
		t.Errorf("Slot.String = %q", Slot(48).String())
	}
}

func TestSlotOfWeek(t *testing.T) {
	if Slot(SlotsPerWeek+5).SlotOfWeek() != 5 {
		t.Error("SlotOfWeek wrong")
	}
}

func TestEnergyLinearityProperty(t *testing.T) {
	f := func(k float64) bool {
		if math.IsNaN(k) || math.IsInf(k, 0) || math.Abs(k) > 1e6 {
			return true
		}
		s := Series{1, 2, 3, 4}
		return math.Abs(s.Scale(k).Energy()-k*s.Energy()) < 1e-6*math.Max(1, math.Abs(k))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
