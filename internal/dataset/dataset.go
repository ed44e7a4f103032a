// Package dataset provides the smart-meter consumption data that F-DETA's
// evaluation runs on. The paper uses the Irish Commission for Energy
// Regulation (CER) trial dataset — 500 consumers (404 residential, 36 SMEs,
// 60 unclassified) sampled half-hourly for up to 74 weeks — which is
// distributed under a research licence and cannot ship with this repository.
//
// This package substitutes a calibrated synthetic generator producing data
// with the statistical structure the detectors and attacks exercise:
//   - strong weekly periodicity with distinct weekday/weekend day shapes;
//   - morning and evening demand peaks, making ~94% of consumers
//     peak-period-heavy under the Nightsaver TOU window (Section VIII-B3);
//   - a heavy-tailed cross-consumer scale distribution (a few very large
//     consumers, matching the paper's Consumer 1330/1411/1333 anecdotes);
//   - autocorrelated multiplicative noise; and
//   - unlabeled behavioural anomalies (vacation weeks, party days) in both
//     training and test ranges, which drive detector false positives.
//
// Everything is deterministic from the configuration seed.
package dataset

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/timeseries"
)

// ConsumerClass mirrors the CER classification of trial participants.
type ConsumerClass int

// Consumer classes in the paper's 500-consumer subset.
const (
	Residential ConsumerClass = iota + 1
	SME
	Unclassified
)

// String names the class.
func (c ConsumerClass) String() string {
	switch c {
	case Residential:
		return "residential"
	case SME:
		return "sme"
	case Unclassified:
		return "unclassified"
	default:
		return fmt.Sprintf("ConsumerClass(%d)", int(c))
	}
}

// Consumer is one metered consumer and their full demand history.
type Consumer struct {
	// ID is a CER-style four-digit meter identifier.
	ID int
	// Class is the CER participant classification.
	Class ConsumerClass
	// Demand is the actual average demand (kW) per half-hour slot.
	Demand timeseries.Series
	// Quality optionally annotates each Demand slot with its reading
	// status. A nil mask means every reading is trusted (the pristine
	// fast path); fault injection (internal/fault) populates it.
	Quality timeseries.Mask
}

// Dataset is a collection of consumers over a common number of weeks.
type Dataset struct {
	Consumers []Consumer
	Weeks     int
}

// ByID returns the consumer with the given meter ID.
func (d *Dataset) ByID(id int) (*Consumer, error) {
	for i := range d.Consumers {
		if d.Consumers[i].ID == id {
			return &d.Consumers[i], nil
		}
	}
	return nil, fmt.Errorf("dataset: consumer %d not found", id)
}

// Config parameterizes synthetic generation.
type Config struct {
	Residential  int // number of residential consumers
	SMEs         int // number of SME consumers
	Unclassified int // number of unclassified consumers
	Weeks        int // weeks of half-hourly data per consumer

	// VacationRate is the per-week probability that a consumer is away
	// (consumption collapses to a ~10% baseline).
	VacationRate float64
	// PartyRate is the per-day probability of an abnormally high-usage day.
	PartyRate float64

	Seed int64
}

// PaperConfig reproduces the paper's evaluation population: 500 consumers
// (404 residential, 36 SME, 60 unclassified) over 74 weeks.
func PaperConfig() Config {
	return Config{
		Residential:  404,
		SMEs:         36,
		Unclassified: 60,
		Weeks:        74,
		VacationRate: 0.005,
		PartyRate:    0.004,
		Seed:         2016, // DSN 2016
	}
}

// SmallConfig is a reduced population for tests and examples.
func SmallConfig() Config {
	return Config{
		Residential:  16,
		SMEs:         3,
		Unclassified: 1,
		Weeks:        20,
		VacationRate: 0.005,
		PartyRate:    0.004,
		Seed:         7,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Residential < 0 || c.SMEs < 0 || c.Unclassified < 0 {
		return fmt.Errorf("dataset: negative consumer counts")
	}
	if c.Residential+c.SMEs+c.Unclassified == 0 {
		return fmt.Errorf("dataset: no consumers configured")
	}
	if c.Weeks < 2 {
		return fmt.Errorf("dataset: need at least 2 weeks, got %d", c.Weeks)
	}
	if c.VacationRate < 0 || c.VacationRate > 1 || c.PartyRate < 0 || c.PartyRate > 1 {
		return fmt.Errorf("dataset: anomaly rates must lie in [0, 1]")
	}
	return nil
}

// profile captures the deterministic weekly shape of one consumer.
type profile struct {
	scale        float64 // overall kW scale
	morningHour  float64 // morning peak centre
	morningAmp   float64
	eveningHour  float64 // evening peak centre
	eveningAmp   float64
	baseline     float64 // always-on fraction
	weekendShift float64 // weekend behaviour shift in hours
	weekendAmp   float64 // weekend amplitude multiplier
	noiseSigma   float64 // multiplicative noise scale
	noisePhi     float64 // AR(1) correlation of the noise
}

// classProfile draws a per-consumer profile from class-dependent ranges.
func classProfile(class ConsumerClass, rng interface {
	Float64() float64
	NormFloat64() float64
}) profile {
	p := profile{}
	switch class {
	case SME:
		// SMEs: larger scale, business-hours plateau, quiet weekends.
		p.scale = 1.5 * math.Exp(rng.NormFloat64()*0.8+0.8)
		p.morningHour = 9 + rng.Float64()*2
		p.morningAmp = 1.0 + rng.Float64()*0.5
		p.eveningHour = 14 + rng.Float64()*3
		p.eveningAmp = 0.8 + rng.Float64()*0.5
		p.baseline = 0.15 + rng.Float64()*0.1
		p.weekendShift = 0
		p.weekendAmp = 0.3 + rng.Float64()*0.3
		p.noiseSigma = 0.12 + rng.Float64()*0.08
		p.noisePhi = 0.5 + rng.Float64()*0.3
	default:
		// Residential and unclassified: evening-dominant, livelier weekends.
		p.scale = 0.4 * math.Exp(rng.NormFloat64()*0.6)
		p.morningHour = 7 + rng.Float64()*2
		p.morningAmp = 0.4 + rng.Float64()*0.4
		p.eveningHour = 18 + rng.Float64()*3
		p.eveningAmp = 1.0 + rng.Float64()*0.6
		p.baseline = 0.12 + rng.Float64()*0.08
		p.weekendShift = 1 + rng.Float64()*2
		p.weekendAmp = 1.0 + rng.Float64()*0.25
		p.noiseSigma = 0.18 + rng.Float64()*0.12
		p.noisePhi = 0.4 + rng.Float64()*0.4
	}
	return p
}

// expected returns the noise-free expected demand for a slot.
func (p profile) expected(slot timeseries.Slot) float64 {
	hour := slot.HourOfDay()
	morning, evening := p.morningHour, p.eveningHour
	amp := 1.0
	if slot.IsWeekend() {
		morning += p.weekendShift
		evening += p.weekendShift * 0.5
		amp = p.weekendAmp
	}
	shape := p.baseline +
		p.morningAmp*gaussBump(hour, morning, 2.0) +
		p.eveningAmp*gaussBump(hour, evening, 2.5)
	return p.scale * amp * shape
}

// gaussBump is a periodic (24h wrap-around) Gaussian bump.
func gaussBump(hour, centre, width float64) float64 {
	d := math.Abs(hour - centre)
	if d > 12 {
		d = 24 - d
	}
	return math.Exp(-d * d / (2 * width * width))
}

// Generate produces a deterministic synthetic dataset. Consumers are
// synthesized on a GOMAXPROCS worker pool; each draws only from its own
// SplitRand(cfg.Seed, i) stream and writes only its own slot, so the output
// is identical at any worker count.
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	total := cfg.Residential + cfg.SMEs + cfg.Unclassified
	ds := &Dataset{
		Consumers: make([]Consumer, total),
		Weeks:     cfg.Weeks,
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > total {
		workers = total
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				ds.Consumers[i] = generateConsumer(cfg, i)
			}
		}()
	}
	wg.Wait()
	return ds, nil
}

// generateConsumer synthesizes consumer i of the population.
func generateConsumer(cfg Config, i int) Consumer {
	class := Unclassified
	switch {
	case i < cfg.Residential:
		class = Residential
	case i < cfg.Residential+cfg.SMEs:
		class = SME
	}
	rng := stats.SplitRand(cfg.Seed, int64(i))
	prof := classProfile(class, rng)

	// The noise-free profile depends only on the slot of the week.
	var expected [timeseries.SlotsPerWeek]float64
	for s := range expected {
		expected[s] = prof.expected(timeseries.Slot(s))
	}
	innovation := math.Sqrt(1 - prof.noisePhi*prof.noisePhi)

	slots := cfg.Weeks * timeseries.SlotsPerWeek
	demand := make(timeseries.Series, slots)
	noise := 0.0
	// Pre-draw anomaly calendar.
	vacationWeek := make([]bool, cfg.Weeks)
	for w := range vacationWeek {
		vacationWeek[w] = rng.Float64() < cfg.VacationRate
	}
	days := slots / timeseries.SlotsPerDay
	partyDay := make([]bool, days)
	for d := range partyDay {
		partyDay[d] = rng.Float64() < cfg.PartyRate
	}

	for s := 0; s < slots; s++ {
		slot := timeseries.Slot(s)
		base := expected[s%timeseries.SlotsPerWeek]
		noise = prof.noisePhi*noise + innovation*rng.NormFloat64()
		v := base * math.Exp(prof.noiseSigma*noise-prof.noiseSigma*prof.noiseSigma/2)
		if vacationWeek[slot.Week()] {
			v = 0.1*v + 0.02*prof.scale
		}
		if partyDay[s/timeseries.SlotsPerDay] && slot.HourOfDay() >= 16 {
			v *= 2.5
		}
		if v < 0 {
			v = 0
		}
		demand[s] = v
	}
	return Consumer{
		ID:     1000 + i,
		Class:  class,
		Demand: demand,
	}
}

// Stats summarizes a dataset for validation output.
type Stats struct {
	Consumers     int
	Weeks         int
	MeanDemand    float64 // kW across all consumers and slots
	MaxDemand     float64
	TotalEnergy   float64 // kWh
	ClassCounts   map[ConsumerClass]int
	LargestIDs    []int // consumer IDs sorted by total energy, descending
	PeakHeavyFrac float64
}

// Describe computes summary statistics, including the Section VIII-B3
// validation metric via PeakHeavyFraction with the paper's thresholds.
func (d *Dataset) Describe(peakStartHour, peakEndHour float64) Stats {
	st := Stats{
		Consumers:   len(d.Consumers),
		Weeks:       d.Weeks,
		ClassCounts: make(map[ConsumerClass]int),
	}
	var acc stats.Accumulator
	type idEnergy struct {
		id     int
		energy float64
	}
	energies := make([]idEnergy, 0, len(d.Consumers))
	for _, c := range d.Consumers {
		st.ClassCounts[c.Class]++
		for _, v := range c.Demand {
			acc.Add(v)
		}
		energies = append(energies, idEnergy{c.ID, c.Demand.Energy()})
	}
	st.MeanDemand = acc.Mean()
	st.MaxDemand = acc.Max()
	for _, e := range energies {
		st.TotalEnergy += e.energy
	}
	sort.Slice(energies, func(i, j int) bool { return energies[i].energy > energies[j].energy })
	for i := 0; i < len(energies) && i < 20; i++ {
		st.LargestIDs = append(st.LargestIDs, energies[i].id)
	}
	st.PeakHeavyFrac = d.PeakHeavyFraction(peakStartHour, peakEndHour, 0.9)
	return st
}

// PeakHeavyFraction returns the fraction of consumers whose peak-window
// consumption exceeds their off-peak consumption on at least minDayFrac of
// days — the statistic the paper uses to justify the Nightsaver window
// ("94.4% of consumers had higher consumption during the peak period on
// over 90% of the days", Section VIII-B3).
func (d *Dataset) PeakHeavyFraction(peakStartHour, peakEndHour, minDayFrac float64) float64 {
	if len(d.Consumers) == 0 {
		return math.NaN()
	}
	heavy := 0
	for _, c := range d.Consumers {
		days := len(c.Demand) / timeseries.SlotsPerDay
		if days == 0 {
			continue
		}
		peakDays := 0
		for day := 0; day < days; day++ {
			var peak, off float64
			for s := 0; s < timeseries.SlotsPerDay; s++ {
				slot := timeseries.Slot(day*timeseries.SlotsPerDay + s)
				h := slot.HourOfDay()
				if h >= peakStartHour && h < peakEndHour {
					peak += c.Demand[slot]
				} else {
					off += c.Demand[slot]
				}
			}
			if peak > off {
				peakDays++
			}
		}
		if float64(peakDays) >= minDayFrac*float64(days) {
			heavy++
		}
	}
	return float64(heavy) / float64(len(d.Consumers))
}
