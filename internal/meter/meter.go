// Package meter models the measurement devices of the paper's AMI: consumer
// smart meters and balance meters. A meter measures the actual average
// demand of its load during each polling period (with the small measurement
// error quantified in Section VII-A: electronic meters are within ±2% of
// truth in 99.96% of readings) and *reports* a value that equals the
// measurement unless the meter — or the communication link it reports over —
// has been compromised.
//
// The separation between Measure (physics) and Report (what the utility
// sees) is the package's core: every attack class in the paper is a
// particular way of making the two diverge.
package meter

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/timeseries"
)

// Reading is one reported measurement.
type Reading struct {
	MeterID string
	Slot    timeseries.Slot
	KW      float64
}

// CompromiseFunc rewrites a measured value before it is reported. It
// receives the slot and the true measurement and returns the reported
// value. Implementations model either a hacked meter or a man-in-the-middle
// on the communication link — the paper treats the two identically
// (Section IV).
type CompromiseFunc func(slot timeseries.Slot, measured float64) float64

// Config parameterizes a smart meter.
type Config struct {
	// ErrorSigma is the relative standard deviation of measurement error.
	// The default 0.005 makes ~99.97% of readings fall within ±1.5% and
	// essentially all within ±2%, matching the accuracy study cited in
	// Section VII-A. Zero disables measurement error entirely.
	ErrorSigma float64
	// Seed drives the measurement-error stream.
	Seed int64
}

// SmartMeter measures a load profile and reports readings. It is safe for
// concurrent use.
type SmartMeter struct {
	id string

	mu         sync.Mutex
	load       timeseries.Series
	errorSigma float64
	rng        *rand.Rand
	compromise CompromiseFunc
}

// New creates a meter attached to the given actual load profile (average kW
// per slot). The profile is copied.
func New(id string, load timeseries.Series, cfg Config) (*SmartMeter, error) {
	if id == "" {
		return nil, fmt.Errorf("meter: meter ID is required")
	}
	if err := load.Validate(); err != nil {
		return nil, fmt.Errorf("meter: load profile: %w", err)
	}
	if cfg.ErrorSigma < 0 || cfg.ErrorSigma > 0.05 {
		return nil, fmt.Errorf("meter: error sigma %g outside [0, 0.05]", cfg.ErrorSigma)
	}
	return &SmartMeter{
		id:         id,
		load:       load.Clone(),
		errorSigma: cfg.ErrorSigma,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// Slots returns the number of slots in the attached load profile.
func (m *SmartMeter) Slots() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.load)
}

// Measure returns the metered value at the slot: truth plus multiplicative
// measurement error.
func (m *SmartMeter) Measure(slot timeseries.Slot) (float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if slot < 0 || int(slot) >= len(m.load) {
		return 0, fmt.Errorf("meter: slot %d outside load profile (0..%d)", slot, len(m.load)-1)
	}
	v := m.load[slot]
	if m.errorSigma > 0 {
		v *= 1 + m.errorSigma*m.rng.NormFloat64()
		if v < 0 {
			v = 0
		}
	}
	return v, nil
}

// Report returns the reading the utility receives for the slot: the
// measurement, rewritten by the compromise function if one is installed.
func (m *SmartMeter) Report(slot timeseries.Slot) (Reading, error) {
	measured, err := m.Measure(slot)
	if err != nil {
		return Reading{}, err
	}
	m.mu.Lock()
	comp := m.compromise
	m.mu.Unlock()
	v := measured
	if comp != nil {
		v = comp(slot, measured)
		if v < 0 {
			v = 0
		}
	}
	return Reading{MeterID: m.id, Slot: slot, KW: v}, nil
}

// Compromise installs (or, with nil, removes) a compromise function.
func (m *SmartMeter) Compromise(f CompromiseFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.compromise = f
}

// ReportRange reports a contiguous range of slots [from, from+n).
func (m *SmartMeter) ReportRange(from timeseries.Slot, n int) ([]Reading, error) {
	if n < 0 {
		return nil, fmt.Errorf("meter: negative range length %d", n)
	}
	out := make([]Reading, 0, n)
	for i := 0; i < n; i++ {
		r, err := m.Report(from + timeseries.Slot(i))
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
