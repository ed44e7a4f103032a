// Package timeseries models discrete-time electricity demand series at the
// paper's half-hour resolution. A reading is the average demand (kW) over one
// polling period Δt = 30 minutes; a week is 336 consecutive readings, which
// is the window size standardized by the KLD detector (Section VII-D).
package timeseries

import (
	"errors"
	"fmt"
	"math"
)

// Temporal constants of the paper's data model.
const (
	// SlotsPerDay is the number of half-hour polling periods in one day.
	SlotsPerDay = 48
	// DaysPerWeek is the number of days in one week.
	DaysPerWeek = 7
	// SlotsPerWeek is the number of half-hour readings in one week (336).
	SlotsPerWeek = SlotsPerDay * DaysPerWeek
	// DeltaHours is the polling period Δt expressed in hours. Multiplying an
	// average demand (kW) by DeltaHours yields energy (kWh) for billing.
	DeltaHours = 0.5
)

// ErrLengthMismatch indicates two series that were expected to align do not.
var ErrLengthMismatch = errors.New("timeseries: series length mismatch")

// Series is a sequence of average-demand readings (kW), one per half-hour
// slot, beginning at slot 0 = Monday 00:00-00:30 by convention.
type Series []float64

// Clone returns an independent copy of the series.
func (s Series) Clone() Series {
	out := make(Series, len(s))
	copy(out, s)
	return out
}

// Weeks returns the number of complete weeks in the series.
func (s Series) Weeks() int { return len(s) / SlotsPerWeek }

// Week returns the i-th complete week as a subslice (not a copy). The caller
// must not grow the result. It returns an error when the series does not
// contain week i in full.
func (s Series) Week(i int) (Series, error) {
	if i < 0 || (i+1)*SlotsPerWeek > len(s) {
		return nil, fmt.Errorf("timeseries: week %d out of range (series has %d complete weeks)", i, s.Weeks())
	}
	return s[i*SlotsPerWeek : (i+1)*SlotsPerWeek], nil
}

// MustWeek is Week for indices already known to be valid; it panics on a
// range violation, which always indicates a programming error.
func (s Series) MustWeek(i int) Series {
	w, err := s.Week(i)
	if err != nil {
		panic(err)
	}
	return w
}

// Energy returns the total energy (kWh) represented by the series: the sum
// of average demands multiplied by Δt.
func (s Series) Energy() float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum * DeltaHours
}

// Add returns s + t elementwise.
func (s Series) Add(t Series) (Series, error) {
	if len(s) != len(t) {
		return nil, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(s), len(t))
	}
	out := make(Series, len(s))
	for i := range s {
		out[i] = s[i] + t[i]
	}
	return out, nil
}

// Sub returns s - t elementwise.
func (s Series) Sub(t Series) (Series, error) {
	if len(s) != len(t) {
		return nil, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(s), len(t))
	}
	out := make(Series, len(s))
	for i := range s {
		out[i] = s[i] - t[i]
	}
	return out, nil
}

// Scale returns the series multiplied by the scalar k.
func (s Series) Scale(k float64) Series {
	out := make(Series, len(s))
	for i := range s {
		out[i] = s[i] * k
	}
	return out
}

// Validate reports an error when the series contains NaN, Inf, or negative
// readings, which would violate the paper's demand model.
func (s Series) Validate() error {
	for i, v := range s {
		if math.IsNaN(v) {
			return fmt.Errorf("timeseries: NaN reading at slot %d", i)
		}
		if math.IsInf(v, 0) {
			return fmt.Errorf("timeseries: infinite reading at slot %d", i)
		}
		if v < 0 {
			return fmt.Errorf("timeseries: negative reading %g at slot %d", v, i)
		}
	}
	return nil
}

// Split partitions the series into a training prefix of trainWeeks complete
// weeks and a test suffix containing the remaining complete weeks, mirroring
// the paper's 60-week/14-week split. Incomplete trailing data is dropped.
func (s Series) Split(trainWeeks int) (train, test Series, err error) {
	total := s.Weeks()
	if trainWeeks <= 0 || trainWeeks > total {
		return nil, nil, fmt.Errorf("timeseries: cannot take %d training weeks from %d-week series", trainWeeks, total)
	}
	cut := trainWeeks * SlotsPerWeek
	end := total * SlotsPerWeek
	return s[:cut], s[cut:end], nil
}

// Slot identifies one half-hour period within the global timeline.
type Slot int

// Week returns the zero-based week index containing the slot.
func (t Slot) Week() int { return int(t) / SlotsPerWeek }

// DayOfWeek returns 0 (Monday) through 6 (Sunday).
func (t Slot) DayOfWeek() int { return t.SlotOfWeek() / SlotsPerDay }

// SlotOfDay returns 0..47, the half-hour index within the day.
func (t Slot) SlotOfDay() int { return int(t) % SlotsPerDay }

// SlotOfWeek returns 0..335, the half-hour index within the week.
func (t Slot) SlotOfWeek() int { return int(t) % SlotsPerWeek }

// HourOfDay returns the fractional hour of day in [0, 24).
func (t Slot) HourOfDay() float64 { return float64(t.SlotOfDay()) * DeltaHours }

// IsWeekend reports whether the slot falls on Saturday or Sunday.
func (t Slot) IsWeekend() bool { return t.DayOfWeek() >= 5 }

// String renders the slot as "week W, day D, HH:MM".
func (t Slot) String() string {
	h := t.SlotOfDay() / 2
	m := (t.SlotOfDay() % 2) * 30
	return fmt.Sprintf("week %d, day %d, %02d:%02d", t.Week(), t.DayOfWeek(), h, m)
}
