package timeseries

import (
	"fmt"
)

// ReadingStatus classifies the quality of one half-hour reading. Real AMI
// feeds are not pristine: meters go dark (outages, battery failures), links
// drop reports, and firmware faults freeze or corrupt values. The paper's
// Section V-B explicitly distinguishes *faulty* meters from *compromised*
// ones; the status mask is how that distinction enters the data pipeline.
type ReadingStatus uint8

// Reading quality states.
const (
	// StatusOK marks a reading that was received and passed plausibility
	// screening — the only state detectors may treat as trusted evidence.
	StatusOK ReadingStatus = iota
	// StatusMissing marks a slot for which no reading arrived (dropout or
	// outage). The stored value carries no information.
	StatusMissing
	// StatusCorrupt marks a reading that arrived but failed plausibility
	// screening (stuck-at meter, spike, clock slip). The stored value is the
	// corrupt observation, kept for diagnostics; detectors must not use it.
	StatusCorrupt
	// StatusImputed marks a slot whose value was filled by an imputation
	// policy. The value is plausible but synthetic: it must not count toward
	// coverage.
	StatusImputed
)

// String names the status.
func (s ReadingStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusMissing:
		return "missing"
	case StatusCorrupt:
		return "corrupt"
	case StatusImputed:
		return "imputed"
	default:
		return fmt.Sprintf("ReadingStatus(%d)", uint8(s))
	}
}

// Usable reports whether the slot's stored value may be fed to a detector:
// either a trusted observation or an imputed fill.
func (s ReadingStatus) Usable() bool { return s == StatusOK || s == StatusImputed }

// Mask is a per-slot quality annotation aligned with a Series. A nil Mask
// means every reading is StatusOK (the pristine fast path costs nothing).
type Mask []ReadingStatus

// NewMask returns an all-OK mask of length n.
func NewMask(n int) Mask { return make(Mask, n) }

// Clone returns an independent copy of the mask. Cloning a nil mask returns
// nil.
func (m Mask) Clone() Mask {
	if m == nil {
		return nil
	}
	out := make(Mask, len(m))
	copy(out, m)
	return out
}

// Coverage returns the fraction of slots holding trusted observations
// (StatusOK). Imputed slots do not count: they are synthetic fills, and
// counting them would let an imputation policy launder a dead meter into
// full coverage. An empty mask has coverage 1 by convention (nothing is
// known to be bad).
func (m Mask) Coverage() float64 {
	if len(m) == 0 {
		return 1
	}
	ok := 0
	for _, s := range m {
		if s == StatusOK {
			ok++
		}
	}
	return float64(ok) / float64(len(m))
}

// CountBad returns the number of slots that are neither trusted nor imputed.
func (m Mask) CountBad() int {
	bad := 0
	for _, s := range m {
		if !s.Usable() {
			bad++
		}
	}
	return bad
}

// AllOK reports whether every slot is a trusted observation (vacuously true
// for a nil mask).
func (m Mask) AllOK() bool {
	for _, s := range m {
		if s != StatusOK {
			return false
		}
	}
	return true
}

// Week returns the i-th complete week of the mask as a subslice, mirroring
// Series.Week.
func (m Mask) Week(i int) (Mask, error) {
	if i < 0 || (i+1)*SlotsPerWeek > len(m) {
		return nil, fmt.Errorf("timeseries: mask week %d out of range (mask has %d complete weeks)",
			i, len(m)/SlotsPerWeek)
	}
	return m[i*SlotsPerWeek : (i+1)*SlotsPerWeek], nil
}

// MustWeek is Week for indices already known to be valid.
func (m Mask) MustWeek(i int) Mask {
	w, err := m.Week(i)
	if err != nil {
		panic(err)
	}
	return w
}

// Split partitions the mask to align with Series.Split: a training prefix of
// trainWeeks complete weeks and the remaining complete weeks.
func (m Mask) Split(trainWeeks int) (train, test Mask, err error) {
	total := len(m) / SlotsPerWeek
	if trainWeeks <= 0 || trainWeeks > total {
		return nil, nil, fmt.Errorf("timeseries: cannot take %d training weeks from %d-week mask", trainWeeks, total)
	}
	cut := trainWeeks * SlotsPerWeek
	end := total * SlotsPerWeek
	return m[:cut], m[cut:end], nil
}

// ImputePolicy selects how non-usable slots are filled before detection.
type ImputePolicy int

// Imputation policies.
const (
	// ImputeSeasonalNaive fills a bad slot with the reading at the same
	// weekly slot of the trusted reference week — exactly the seasonal-naive
	// forecast of detect/seasonal_naive.go with a one-week season. This is
	// the default: consumption is strongly weekly-periodic, so the seasonal
	// anchor is the least-surprising fill.
	ImputeSeasonalNaive ImputePolicy = iota
	// ImputeCarryForward carries the most recent usable reading within the
	// candidate week forward (last-observation-carried-forward), seeding
	// from the trusted reference week when the week opens with bad slots.
	ImputeCarryForward
)

// String names the policy.
func (p ImputePolicy) String() string {
	switch p {
	case ImputeSeasonalNaive:
		return "seasonal-naive"
	case ImputeCarryForward:
		return "carry-forward"
	default:
		return fmt.Sprintf("ImputePolicy(%d)", int(p))
	}
}

// ImputeWeek returns a copy of week with every non-usable slot filled
// according to the policy, plus the updated mask with those slots marked
// StatusImputed. ref is a trusted reference week (typically the final
// training week); it must be a full week. A week with no bad slots is
// returned as (week, mask) unchanged, alias-free copies are made only when
// filling happens.
func ImputeWeek(week Series, mask Mask, ref Series, policy ImputePolicy) (Series, Mask, error) {
	if len(week) != SlotsPerWeek {
		return nil, nil, fmt.Errorf("timeseries: impute needs a full week, got %d readings", len(week))
	}
	if len(mask) != len(week) {
		return nil, nil, fmt.Errorf("timeseries: mask length %d does not match week length %d", len(mask), len(week))
	}
	if mask.CountBad() == 0 {
		return week, mask, nil
	}
	if len(ref) != SlotsPerWeek {
		return nil, nil, fmt.Errorf("timeseries: impute reference must be a full week, got %d readings", len(ref))
	}
	out := week.Clone()
	outMask := mask.Clone()
	last := -1 // index of the most recent usable reading, for carry-forward
	for s := range out {
		if mask[s].Usable() {
			last = s
			continue
		}
		switch policy {
		case ImputeCarryForward:
			if last >= 0 {
				out[s] = out[last]
			} else {
				out[s] = ref[s]
			}
		case ImputeSeasonalNaive:
			out[s] = ref[s]
		default:
			return nil, nil, fmt.Errorf("timeseries: unknown impute policy %v", policy)
		}
		outMask[s] = StatusImputed
	}
	return out, outMask, nil
}

// ImputeSeries fills every non-usable slot of a multi-week series, used to
// repair a training history before detectors are fitted on it. Seasonal-
// naive looks back week by week for a usable reading at the same weekly
// slot (then forward); carry-forward takes the most recent usable reading
// at any earlier slot (then the next usable one). A slot with no usable
// donor anywhere falls back to zero. The returned series and mask are
// copies when any filling happens.
func ImputeSeries(s Series, mask Mask, policy ImputePolicy) (Series, Mask, error) {
	if len(mask) != len(s) {
		return nil, nil, fmt.Errorf("timeseries: mask length %d does not match series length %d", len(mask), len(s))
	}
	if mask.CountBad() == 0 {
		return s, mask, nil
	}
	out := s.Clone()
	outMask := mask.Clone()
	for i := range out {
		if mask[i].Usable() {
			continue
		}
		donor := -1
		switch policy {
		case ImputeSeasonalNaive:
			for j := i - SlotsPerWeek; j >= 0; j -= SlotsPerWeek {
				if mask[j].Usable() {
					donor = j
					break
				}
			}
			if donor < 0 {
				for j := i + SlotsPerWeek; j < len(out); j += SlotsPerWeek {
					if mask[j].Usable() {
						donor = j
						break
					}
				}
			}
		case ImputeCarryForward:
			for j := i - 1; j >= 0; j-- {
				if mask[j].Usable() {
					donor = j
					break
				}
			}
			if donor < 0 {
				for j := i + 1; j < len(out); j++ {
					if mask[j].Usable() {
						donor = j
						break
					}
				}
			}
		default:
			return nil, nil, fmt.Errorf("timeseries: unknown impute policy %v", policy)
		}
		if donor >= 0 {
			out[i] = out[donor]
		} else {
			out[i] = 0
		}
		outMask[i] = StatusImputed
	}
	return out, outMask, nil
}
