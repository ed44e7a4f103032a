package attack

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/detect"
	"repro/internal/pricing"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// Direction selects which way an injected vector pushes readings.
type Direction int

// Injection directions.
const (
	// Up over-reports: used against a neighbour in Class 1B/2B/3B.
	Up Direction = iota + 1
	// Down under-reports: used on the attacker's own meter in Class 2A/2B.
	Down
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case Up:
		return "up"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// InjectClass1A realizes Attack Class 1A: Mallory's reported readings stay at her
// typical pattern while her actual consumption is scaled up by factor
// (> 1). The reported pattern is completely normal, so no data-driven
// detector can see it — only the balance check can (Section VI-A).
func InjectClass1A(typicalWeek timeseries.Series, factor float64) (actual, reported timeseries.Series, err error) {
	if len(typicalWeek) != timeseries.SlotsPerWeek {
		return nil, nil, fmt.Errorf("attack: class 1A needs a full week, got %d readings", len(typicalWeek))
	}
	if factor <= 1 {
		return nil, nil, fmt.Errorf("attack: class 1A factor must exceed 1, got %g", factor)
	}
	return typicalWeek.Scale(factor), typicalWeek.Clone(), nil
}

// ARIMAAttack realizes the "ARIMA attack" of ref [2]: Mallory replicates
// the utility's ARIMA detector and pins every injected reading exactly at
// the confidence bound — the upper bound when over-reporting (Up), or the
// lower bound floored at zero when under-reporting (Down). The injected
// readings feed back into the replicated model, dragging the interval along
// with the attack (Section VIII-B1), so the Up variant escalates without
// limit in the data alone; it is capped at capKW, the physical limit of the
// victim's service conductors (Section VII-B: the only limit on Class 1B
// "is determined by the physical limits of the electrical conductors").
// Pass capKW <= 0 to default to 10× the detector's historic peak demand.
func ARIMAAttack(det *detect.ARIMADetector, dir Direction, capKW float64) (timeseries.Series, error) {
	if capKW <= 0 {
		capKW = 10 * det.HistoricPeak()
		if capKW <= 0 {
			capKW = 1 // all-zero history: nominal 1 kW service limit
		}
	}
	tracker, err := det.Tracker()
	if err != nil {
		return nil, fmt.Errorf("attack: replicating ARIMA detector: %w", err)
	}
	vec := make(timeseries.Series, timeseries.SlotsPerWeek)
	for i := range vec {
		lo, hi := tracker.Bounds()
		var v float64
		switch dir {
		case Up:
			v = hi
			if v > capKW {
				v = capKW
			}
		case Down:
			v = lo
			if v < 0 {
				v = 0
			}
		default:
			return nil, fmt.Errorf("attack: invalid direction %v", dir)
		}
		vec[i] = v
		tracker.Observe(v)
	}
	return vec, nil
}

// IntegratedARIMAConfig parameterizes the Integrated ARIMA attack.
type IntegratedARIMAConfig struct {
	// SigmaFraction scales the truncated normal's sigma relative to the
	// detector's variance cap so the injected week's variance stays under
	// it (default 0.5, i.e. sigma² = 0.25 · cap).
	SigmaFraction float64
}

func (c IntegratedARIMAConfig) withDefaults() IntegratedARIMAConfig {
	if c.SigmaFraction == 0 {
		c.SigmaFraction = 0.5
	}
	return c
}

// IntegratedARIMAAttack realizes the "Integrated ARIMA attack" of ref [2],
// the paper's standard realization of Attack Classes 1B and 2A/2B
// (Section VIII-B1/B2). Readings are drawn from a truncated normal whose
//
//   - mean is the *maximum* of the training weeks' means when dir is Up
//     (over-reporting a neighbour, Class 1B), or the *minimum* when dir is
//     Down (under-reporting the attacker herself, Class 2A/2B);
//   - sigma keeps the week variance below the detector's historic cap; and
//   - truncation bounds are the replicated rolling ARIMA confidence
//     interval (floored at zero).
//
// The result passes the ARIMA check, the mean check, and the variance check
// by construction, while deterministic patterns are avoided by the random
// draw (Section VIII-B: "We inject attacks using random numbers...").
func IntegratedARIMAAttack(det *detect.IntegratedARIMADetector, dir Direction, cfg IntegratedARIMAConfig, rng *rand.Rand) (timeseries.Series, error) {
	vec, _, err := integratedARIMA(det, dir, cfg, rng, nil)
	return vec, err
}

// IntegratedARIMATrial is one trial of the paper's attack protocol:
// IntegratedARIMAAttack drawn into buf's storage (reallocated only when
// buf is shorter than a week) together with Mallory's self-check. The
// replica's tracker that bounds each draw also judges it, so the verdict
// is exactly det.Detect(vec)'s without replaying the week a second time.
func IntegratedARIMATrial(det *detect.IntegratedARIMADetector, dir Direction, cfg IntegratedARIMAConfig,
	rng *rand.Rand, buf timeseries.Series) (timeseries.Series, detect.Verdict, error) {
	vec, violations, err := integratedARIMA(det, dir, cfg, rng, buf)
	if err != nil {
		return nil, detect.Verdict{}, err
	}
	v, err := det.JudgeReplayed(vec, violations)
	if err != nil {
		return nil, detect.Verdict{}, fmt.Errorf("attack: self-check: %w", err)
	}
	return vec, v, nil
}

// integratedARIMA draws one Integrated ARIMA week into buf's storage and
// counts the readings that fall outside the replica's confidence interval
// — the raw Bounds(), before the truncation interval is padded — which is
// the count the detector's own replay of the week would reach.
func integratedARIMA(det *detect.IntegratedARIMADetector, dir Direction, cfg IntegratedARIMAConfig,
	rng *rand.Rand, buf timeseries.Series) (vec timeseries.Series, violations int, err error) {
	cfg = cfg.withDefaults()
	if rng == nil {
		return nil, 0, fmt.Errorf("attack: rng is required")
	}
	meanLo, meanHi := det.MeanBounds()
	var target float64
	switch dir {
	case Up:
		target = meanHi / (1 + 0.05) // undo the detector's tolerance pad: aim at max historic mean
	case Down:
		target = meanLo / (1 - 0.05)
		if target < 0 {
			target = 0
		}
	default:
		return nil, 0, fmt.Errorf("attack: invalid direction %v", dir)
	}
	sigma := cfg.SigmaFraction * math.Sqrt(det.VarianceCap())
	if sigma <= 0 || math.IsNaN(sigma) {
		// Degenerate (constant) history: fall back to a small spread so the
		// truncated normal remains well-defined.
		sigma = math.Max(target*0.05, 1e-6)
	}

	tracker, err := det.Inner().Tracker()
	if err != nil {
		return nil, 0, fmt.Errorf("attack: replicating detector: %w", err)
	}
	if cap(buf) < timeseries.SlotsPerWeek {
		buf = make(timeseries.Series, timeseries.SlotsPerWeek)
	}
	vec = buf[:timeseries.SlotsPerWeek]
	for i := range vec {
		ciLo, ciHi := tracker.Bounds()
		lo, hi := ciLo, ciHi
		if lo < 0 {
			lo = 0
		}
		if hi <= lo {
			hi = lo + 1e-9
		}
		tn, err := stats.NewTruncNormal(target, sigma, lo, hi)
		if err != nil {
			return nil, 0, fmt.Errorf("attack: slot %d: %w", i, err)
		}
		v := tn.Sample(rng)
		if v < ciLo || v > ciHi {
			violations++
		}
		vec[i] = v
		tracker.Observe(v)
	}
	return vec, violations, nil
}

// OptimalSwap realizes the "Optimal swap attack" of Attack Classes 3A/3B
// (Section VIII-B3): for every day of the week, the highest readings of the
// peak price period are swapped with the lowest readings of the off-peak
// period. The week's multiset of readings — and hence its mean, variance,
// and overall distribution — is unchanged; only the temporal ordering moves,
// shifting expensive consumption into the cheap tier.
func OptimalSwap(week timeseries.Series, scheme pricing.TOU) (timeseries.Series, error) {
	if len(week) != timeseries.SlotsPerWeek {
		return nil, fmt.Errorf("attack: optimal swap needs a full week, got %d readings", len(week))
	}
	out := week.Clone()
	for day := 0; day < timeseries.DaysPerWeek; day++ {
		start := day * timeseries.SlotsPerDay
		var peakIdx, offIdx []int
		for s := 0; s < timeseries.SlotsPerDay; s++ {
			idx := start + s
			if scheme.InPeak(timeseries.Slot(idx)) {
				peakIdx = append(peakIdx, idx)
			} else {
				offIdx = append(offIdx, idx)
			}
		}
		// Highest peak readings first; lowest off-peak readings first.
		sort.Slice(peakIdx, func(i, j int) bool { return out[peakIdx[i]] > out[peakIdx[j]] })
		sort.Slice(offIdx, func(i, j int) bool { return out[offIdx[i]] < out[offIdx[j]] })
		n := len(peakIdx)
		if len(offIdx) < n {
			n = len(offIdx)
		}
		for i := 0; i < n; i++ {
			// Only swap when it moves expensive consumption to the cheap
			// period; a swap in the other direction would lose money.
			if out[peakIdx[i]] > out[offIdx[i]] {
				out[peakIdx[i]], out[offIdx[i]] = out[offIdx[i]], out[peakIdx[i]]
			}
		}
	}
	return out, nil
}

// OptimalSwapGeneral generalizes the Optimal Swap to arbitrary per-slot
// prices (the RTP case the paper sketches in Section VIII-F3): within each
// day, the multiset of readings is reassigned so that the largest readings
// land on the cheapest slots. Under a flat price every assignment costs the
// same, so the attack is provably unprofitable there (Table I row 2).
func OptimalSwapGeneral(week timeseries.Series, prices []float64) (timeseries.Series, error) {
	if len(week) != timeseries.SlotsPerWeek {
		return nil, fmt.Errorf("attack: general swap needs a full week, got %d readings", len(week))
	}
	if len(prices) != timeseries.SlotsPerWeek {
		return nil, fmt.Errorf("attack: general swap needs %d prices, got %d",
			timeseries.SlotsPerWeek, len(prices))
	}
	out := week.Clone()
	for day := 0; day < timeseries.DaysPerWeek; day++ {
		start := day * timeseries.SlotsPerDay
		idx := make([]int, timeseries.SlotsPerDay)
		for s := range idx {
			idx[s] = start + s
		}
		// Slots from cheapest to dearest.
		sort.Slice(idx, func(i, j int) bool { return prices[idx[i]] < prices[idx[j]] })
		// Readings from largest to smallest.
		vals := make([]float64, timeseries.SlotsPerDay)
		for s := 0; s < timeseries.SlotsPerDay; s++ {
			vals[s] = week[start+s]
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
		for s, slot := range idx {
			out[slot] = vals[s]
		}
	}
	return out, nil
}

// WorstCaseEvading runs the paper's multi-trial protocol (Section VIII-B)
// with the attacker's self-check: it generates trials attack vectors — 50
// in the paper, "to reduce bias in the samples obtained from the
// distribution" — and, because Mallory replicates the target detector,
// returns the maximum-profit vector among those her replica does NOT flag.
// Only when every trial is flagged does she fall back to the
// least-suspicious (minimum-score) vector — the situation the paper
// observes for consumers whose readings are "so low to begin with" that no
// truncated-normal draw stays stealthy (Section VIII-F2).
//
// gen returns a trial's vector and the replica's verdict on it, and may
// build the vector in buf's storage: the loop hands it back one spare
// buffer, so a generator that reuses buf allocates two vectors per call,
// not one per trial.
func WorstCaseEvading(trials int, gen func(trial int, buf timeseries.Series) (timeseries.Series, detect.Verdict, error),
	profit func(timeseries.Series) (float64, error)) (timeseries.Series, float64, error) {
	if trials <= 0 {
		return nil, 0, fmt.Errorf("attack: trials must be positive, got %d", trials)
	}
	// best holds the best evading vector once one exists, and until then
	// the least suspicious one; spare is the buffer the next trial may fill.
	var best, spare timeseries.Series
	evading := false
	bestProfit := math.Inf(-1)
	minScore := math.Inf(1)
	var fallbackProfit float64
	for i := 0; i < trials; i++ {
		vec, v, err := gen(i, spare)
		if err != nil {
			return nil, 0, fmt.Errorf("attack: trial %d: %w", i, err)
		}
		p, err := profit(vec)
		if err != nil {
			return nil, 0, fmt.Errorf("attack: trial %d profit: %w", i, err)
		}
		switch {
		case !v.Anomalous && p > bestProfit:
			bestProfit = p
			evading = true
		case !evading && v.Score < minScore:
			minScore = v.Score
			fallbackProfit = p
		default:
			spare = vec
			continue
		}
		best, spare = vec, best
	}
	if evading {
		return best, bestProfit, nil
	}
	return best, fallbackProfit, nil
}
