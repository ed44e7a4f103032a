package detect

import (
	"fmt"

	"repro/internal/timeseries"
)

// StreamingKLD is the readable reference for CompactKLDStream: it holds
// the raw 336-slot window, replaces one slot per observation, and re-runs
// the detector's Detect over the whole window. The compact stream keeps
// bin indices and a tally instead, and the tests check that both produce
// the same verdicts, fill, and coverage over the same observations.
type StreamingKLD struct {
	det    *KLDDetector
	window timeseries.Series
	bad    []bool // window slots currently holding an imputed stand-in
	nbad   int
	policy QualityPolicy
	pos    int
	filled int
}

var _ StreamDetector = (*StreamingKLD)(nil)

// newStreamingKLD seeds a reference stream with a trusted historic week.
// The zero policy selects the package defaults.
func (d *KLDDetector) newStreamingKLD(seedWeek timeseries.Series, policy QualityPolicy) (*StreamingKLD, error) {
	if err := validateWeek(seedWeek); err != nil {
		return nil, err
	}
	policy = policy.withDefaults()
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	return &StreamingKLD{
		det:    d,
		window: seedWeek.Clone(),
		bad:    make([]bool, timeseries.SlotsPerWeek),
		policy: policy,
	}, nil
}

// Observe replaces the next slot of the window with a live reading and
// returns the verdict over the updated window.
func (s *StreamingKLD) Observe(v float64) (Verdict, error) {
	if err := checkStreamReading(v); err != nil {
		return Verdict{}, err
	}
	return s.observe(v, timeseries.StatusOK)
}

// ObserveStatus advances the stream with a quality-annotated reading: a
// Missing/Corrupt/Imputed slot keeps the trusted value already in the
// window and counts against coverage.
func (s *StreamingKLD) ObserveStatus(v float64, status timeseries.ReadingStatus) (Verdict, error) {
	switch status {
	case timeseries.StatusOK:
		return s.Observe(v)
	case timeseries.StatusMissing, timeseries.StatusCorrupt, timeseries.StatusImputed:
		return s.observe(s.window[s.pos], status)
	default:
		return Verdict{}, fmt.Errorf("detect: unknown reading status %v", status)
	}
}

// observe writes the slot, updates the coverage bookkeeping, and evaluates
// the window under the coverage gate.
func (s *StreamingKLD) observe(v float64, status timeseries.ReadingStatus) (Verdict, error) {
	wasBad := s.bad[s.pos]
	isBad := status != timeseries.StatusOK
	s.window[s.pos] = v
	s.bad[s.pos] = isBad
	if isBad && !wasBad {
		s.nbad++
	} else if !isBad && wasBad {
		s.nbad--
	}
	s.pos = (s.pos + 1) % timeseries.SlotsPerWeek
	if s.filled < timeseries.SlotsPerWeek {
		s.filled++
	}
	if s.Coverage() < s.policy.MinCoverage {
		v := coverageVerdict(uint16(s.nbad))
		v.Reason = coverageReason(v.untrusted, s.policy.MinCoverage)
		return v, nil
	}
	return s.det.Detect(s.window)
}

// Reason returns the verdict's text: the reference words every verdict as
// it returns it.
func (s *StreamingKLD) Reason(v Verdict) string { return v.Reason }

// Reseed replaces every slot that holds no trusted live reading with the
// new seed week and resets coverage to full.
func (s *StreamingKLD) Reseed(seed timeseries.Series) error {
	if err := validateWeek(seed); err != nil {
		return err
	}
	for i := 0; i < timeseries.SlotsPerWeek; i++ {
		if s.live(i) && !s.bad[i] {
			continue
		}
		s.window[i] = seed[i]
		if s.bad[i] {
			s.bad[i] = false
			s.nbad--
		}
	}
	return nil
}

// live reports whether slot i has been written by an observation (trusted
// or stand-in) rather than still holding untouched historic seed. During
// the first lap pos == filled, so exactly the slots below pos are live;
// after the window wraps every slot is.
func (s *StreamingKLD) live(i int) bool {
	return s.filled == timeseries.SlotsPerWeek || i < s.pos
}

// Name identifies the underlying detector (StreamDetector).
func (s *StreamingKLD) Name() string { return s.det.Name() }

// Filled returns how many live readings are currently in the window
// (saturates at 336).
func (s *StreamingKLD) Filled() int { return s.filled }

// Coverage returns the fraction of window slots holding trusted data: the
// historic seed and live StatusOK readings count; imputed stand-ins do not.
func (s *StreamingKLD) Coverage() float64 {
	return 1 - float64(s.nbad)/timeseries.SlotsPerWeek
}

// Window returns a copy of the current mixed window.
func (s *StreamingKLD) Window() timeseries.Series { return s.window.Clone() }
