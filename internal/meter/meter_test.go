package meter

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/timeseries"
)

func testLoad(n int) timeseries.Series {
	s := make(timeseries.Series, n)
	for i := range s {
		s[i] = 1 + float64(i%10)*0.1
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", testLoad(10), Config{}); err == nil {
		t.Error("empty ID should error")
	}
	if _, err := New("m1", timeseries.Series{-1}, Config{}); err == nil {
		t.Error("invalid load should error")
	}
	if _, err := New("m1", testLoad(10), Config{ErrorSigma: 0.5}); err == nil {
		t.Error("absurd error sigma should error")
	}
	m, err := New("m1", testLoad(10), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.id != "m1" || m.Slots() != 10 {
		t.Error("accessors wrong")
	}
}

func TestLoadIsCopied(t *testing.T) {
	load := testLoad(5)
	m, _ := New("m1", load, Config{})
	load[0] = 999
	if m.load[0] == 999 {
		t.Error("meter must copy the load profile")
	}
}

func TestMeasureWithoutError(t *testing.T) {
	m, _ := New("m1", testLoad(10), Config{})
	for s := timeseries.Slot(0); s < 10; s++ {
		actual := m.load[s]
		measured, err := m.Measure(s)
		if err != nil {
			t.Fatal(err)
		}
		if measured != actual {
			t.Fatal("zero-sigma meter must measure exactly")
		}
	}
	if _, err := m.Measure(10); err == nil {
		t.Error("out-of-range slot should error")
	}
	if _, err := m.Measure(-1); err == nil {
		t.Error("negative slot should error")
	}
}

func TestMeasurementErrorCalibration(t *testing.T) {
	// With the default-sized sigma, essentially all readings fall within
	// ±2% of truth (Section VII-A's accuracy study).
	load := make(timeseries.Series, 20000)
	for i := range load {
		load[i] = 2
	}
	m, _ := New("m1", load, Config{ErrorSigma: 0.005, Seed: 1})
	within2 := 0
	for s := 0; s < len(load); s++ {
		v, err := m.Measure(timeseries.Slot(s))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-2)/2 <= 0.02 {
			within2++
		}
	}
	frac := float64(within2) / float64(len(load))
	if frac < 0.9995 {
		t.Errorf("%.4f of readings within ±2%%, want >= 0.9995", frac)
	}
}

func TestReportHonestAndCompromised(t *testing.T) {
	m, _ := New("m1", testLoad(10), Config{})
	r, err := m.Report(3)
	if err != nil {
		t.Fatal(err)
	}
	actual := m.load[3]
	if r.KW != actual || r.MeterID != "m1" || r.Slot != 3 {
		t.Errorf("honest report wrong: %+v", r)
	}
	if m.compromise != nil {
		t.Error("fresh meter should not be compromised")
	}
	// Under-report by half.
	m.Compromise(func(_ timeseries.Slot, v float64) float64 { return v / 2 })
	if m.compromise == nil {
		t.Error("compromise not registered")
	}
	r, _ = m.Report(3)
	if r.KW != actual/2 {
		t.Errorf("compromised report = %g, want %g", r.KW, actual/2)
	}
	// Negative outputs are clamped.
	m.Compromise(func(timeseries.Slot, float64) float64 { return -5 })
	r, _ = m.Report(3)
	if r.KW != 0 {
		t.Error("negative reported values must clamp to zero")
	}
	// Removing the compromise restores honesty.
	m.Compromise(nil)
	r, _ = m.Report(3)
	if r.KW != actual {
		t.Error("removing compromise should restore honest reporting")
	}
}

// SetLoad replaces the attached load profile (e.g. when an attack changes
// actual consumption, Class 1A/1B).
func (m *SmartMeter) SetLoad(load timeseries.Series) error {
	if err := load.Validate(); err != nil {
		return fmt.Errorf("meter: load profile: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.load = load.Clone()
	return nil
}

func TestSetLoad(t *testing.T) {
	m, _ := New("m1", testLoad(5), Config{})
	if err := m.SetLoad(timeseries.Series{-1}); err == nil {
		t.Error("invalid load should be rejected")
	}
	if err := m.SetLoad(timeseries.Series{7, 7}); err != nil {
		t.Fatal(err)
	}
	if m.Slots() != 2 {
		t.Error("load not replaced")
	}
	if m.load[0] != 7 {
		t.Error("new load not visible")
	}
}

func TestReportRange(t *testing.T) {
	m, _ := New("m1", testLoad(10), Config{})
	rs, err := m.ReportRange(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 || rs[0].Slot != 2 || rs[2].Slot != 4 {
		t.Errorf("range readings wrong: %+v", rs)
	}
	if _, err := m.ReportRange(8, 5); err == nil {
		t.Error("range past end should error")
	}
	if _, err := m.ReportRange(0, -1); err == nil {
		t.Error("negative length should error")
	}
	empty, err := m.ReportRange(0, 0)
	if err != nil || len(empty) != 0 {
		t.Error("zero-length range should be empty and succeed")
	}
}

func TestMeasureDeterministicBySeed(t *testing.T) {
	a, _ := New("m1", testLoad(100), Config{ErrorSigma: 0.005, Seed: 42})
	b, _ := New("m1", testLoad(100), Config{ErrorSigma: 0.005, Seed: 42})
	for s := 0; s < 100; s++ {
		va, _ := a.Measure(timeseries.Slot(s))
		vb, _ := b.Measure(timeseries.Slot(s))
		if va != vb {
			t.Fatal("same seed must give identical measurement error")
		}
	}
}
