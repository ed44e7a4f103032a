// Package sim is the scenario driver: it simulates a feeder of consumers
// week by week, lets scripted attacks falsify consumption and reports, and
// runs the full utility side against the stream — F-DETA detector
// assessments, the root balance check, revenue assurance — scoring the
// outcome against ground truth. It is the integration layer the examples
// and the `fdeta simulate` command are built on.
package sim

import (
	"fmt"
	"sort"

	"repro/internal/adr"
	"repro/internal/attack"
	"repro/internal/billing"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pricing"
	"repro/internal/timeseries"
	"repro/internal/topology"
)

// AttackScript schedules one attack instance in a scenario.
type AttackScript struct {
	// Week is the live week index (0-based from the end of training) the
	// attack runs in.
	Week int
	// Class selects the attack: Class1A, Class2A, Class3A, Class1B, or
	// Class2B (the classes realizable without ADR infrastructure).
	Class attack.Class
	// Attacker is the index of the attacking consumer.
	Attacker int
	// Victim is the index of the over-reported neighbour (B classes only).
	Victim int
	// Magnitude scales the attack: the consumption multiplier for 1A/1B
	// (e.g. 2 doubles consumption), or the under-report fraction for
	// 2A/2B (e.g. 0.6 hides 60% of consumption).
	Magnitude float64
}

// Validate checks one script entry against the scenario dimensions.
func (a AttackScript) Validate(consumers, liveWeeks int) error {
	if a.Week < 0 || a.Week >= liveWeeks {
		return fmt.Errorf("sim: attack week %d outside live range [0, %d)", a.Week, liveWeeks)
	}
	if a.Attacker < 0 || a.Attacker >= consumers {
		return fmt.Errorf("sim: attacker index %d out of range", a.Attacker)
	}
	switch a.Class {
	case attack.Class1A, attack.Class2A, attack.Class3A:
	case attack.Class1B, attack.Class2B:
		if a.Victim < 0 || a.Victim >= consumers {
			return fmt.Errorf("sim: victim index %d out of range", a.Victim)
		}
		if a.Victim == a.Attacker {
			return fmt.Errorf("sim: attacker cannot victimize herself")
		}
	default:
		return fmt.Errorf("sim: class %v not supported by the scenario driver", a.Class)
	}
	switch a.Class {
	case attack.Class1A, attack.Class1B:
		if a.Magnitude <= 1 {
			return fmt.Errorf("sim: class %v magnitude must exceed 1, got %g", a.Class, a.Magnitude)
		}
	case attack.Class3A:
		// The swap has no magnitude: it is fully determined by the prices.
		if a.Magnitude != 0 {
			return fmt.Errorf("sim: class 3A takes no magnitude, got %g", a.Magnitude)
		}
	default:
		if a.Magnitude <= 0 || a.Magnitude >= 1 {
			return fmt.Errorf("sim: class %v magnitude must be in (0, 1), got %g", a.Class, a.Magnitude)
		}
	}
	return nil
}

// Scenario describes a full simulation.
type Scenario struct {
	// Consumers is the feeder population size.
	Consumers int
	// TrainWeeks is the trusted history used to enroll consumers.
	TrainWeeks int
	// LiveWeeks is how many weeks are simulated after enrollment.
	LiveWeeks int
	// Significance is the KLD detector level (default 0.05).
	Significance float64
	// Scheme prices the energy (default Nightsaver).
	Scheme pricing.Scheme
	// Attacks is the script.
	Attacks []AttackScript
	// Seed drives the synthetic population.
	Seed int64
}

func (s Scenario) withDefaults() Scenario {
	if s.Significance == 0 {
		s.Significance = 0.05
	}
	if s.Scheme == nil {
		s.Scheme = pricing.Nightsaver()
	}
	return s
}

// Validate checks the scenario.
func (s Scenario) Validate() error {
	if s.Consumers < 2 {
		return fmt.Errorf("sim: need at least 2 consumers, got %d", s.Consumers)
	}
	if s.TrainWeeks < 4 {
		return fmt.Errorf("sim: need at least 4 training weeks, got %d", s.TrainWeeks)
	}
	if s.LiveWeeks < 1 {
		return fmt.Errorf("sim: need at least 1 live week, got %d", s.LiveWeeks)
	}
	for i, a := range s.Attacks {
		if err := a.Validate(s.Consumers, s.LiveWeeks); err != nil {
			return fmt.Errorf("sim: attack %d: %w", i, err)
		}
	}
	return nil
}

// Flag is one detector alert raised during a live week.
type Flag struct {
	ConsumerID string
	Kind       core.AnomalyKind
}

// WeekReport is the utility's view of one live week.
type WeekReport struct {
	Week int
	// Flags are the consumers the framework flagged.
	Flags []Flag
	// RootBalanced reports whether the trusted root balance check passed
	// (aggregate actual vs aggregate reported within tolerance).
	RootBalanced bool
	// UnaccountedKWh is the revenue-assurance residual for the week.
	UnaccountedKWh float64
	// RevenueUSD is the week's billed revenue.
	RevenueUSD float64
	// AttackActive lists the consumer IDs truly involved in scripted
	// attacks this week (attackers and victims) — the ground truth.
	AttackActive []string
}

// Result aggregates the simulation.
type Result struct {
	Weeks []WeekReport
	// Confusion counts at consumer-week granularity: a true positive is a
	// flagged consumer-week that was genuinely involved in an attack.
	TruePositives  int
	FalsePositives int
	FalseNegatives int
	// StolenKWh is the total energy stolen across the scenario.
	StolenKWh float64
}

// Precision returns TP / (TP + FP), or 1 when nothing was flagged.
func (r *Result) Precision() float64 {
	if r.TruePositives+r.FalsePositives == 0 {
		return 1
	}
	return float64(r.TruePositives) / float64(r.TruePositives+r.FalsePositives)
}

// Recall returns TP / (TP + FN), or 1 when nothing was attacked.
func (r *Result) Recall() float64 {
	if r.TruePositives+r.FalseNegatives == 0 {
		return 1
	}
	return float64(r.TruePositives) / float64(r.TruePositives+r.FalseNegatives)
}

// Run executes the scenario.
func Run(sc Scenario) (*Result, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	totalWeeks := sc.TrainWeeks + sc.LiveWeeks
	ds, err := dataset.Generate(dataset.Config{
		Residential: sc.Consumers,
		Weeks:       totalWeeks,
		Seed:        sc.Seed,
	})
	if err != nil {
		return nil, err
	}

	framework, err := core.New(core.Config{Factory: core.DefaultDetectorFactory(sc.Significance)})
	if err != nil {
		return nil, err
	}
	ids := make([]string, sc.Consumers)
	for i := range ds.Consumers {
		c := &ds.Consumers[i]
		ids[i] = fmt.Sprintf("meter-%d", c.ID)
		train, _, err := c.Demand.Split(sc.TrainWeeks)
		if err != nil {
			return nil, err
		}
		if err := framework.Enroll(ids[i], train); err != nil {
			return nil, err
		}
	}

	// The trusted root balance meter sees the whole feeder: one metered
	// root with every consumer beneath it.
	feeder := topology.NewTree("root")
	for _, id := range ids {
		if _, err := feeder.AddNode("root", id, topology.Consumer, true); err != nil {
			return nil, err
		}
	}
	snap := topology.NewSnapshot()

	// Index the script by week.
	byWeek := make(map[int][]AttackScript)
	for _, a := range sc.Attacks {
		byWeek[a.Week] = append(byWeek[a.Week], a)
	}

	res := &Result{}
	for w := 0; w < sc.LiveWeeks; w++ {
		report := WeekReport{Week: w}
		weekIdx := sc.TrainWeeks + w
		cycle := billing.WeekCycle(weekIdx)

		// Baseline actual/reported: honest behaviour.
		actual := make([]timeseries.Series, sc.Consumers)
		reported := make([]timeseries.Series, sc.Consumers)
		for i := range ds.Consumers {
			week := ds.Consumers[i].Demand.MustWeek(weekIdx)
			actual[i] = week.Clone()
			reported[i] = week.Clone()
		}

		// Apply the week's scripted attacks.
		involved := map[int]bool{}
		for _, a := range byWeek[w] {
			if err := applyAttack(a, sc.Scheme, actual, reported); err != nil {
				return nil, fmt.Errorf("sim: week %d: %w", w, err)
			}
			involved[a.Attacker] = true
			if a.Class == attack.Class1B || a.Class == attack.Class2B {
				involved[a.Victim] = true
			}
			// Net energy delta, not the positive part: a pure load shift
			// (Class 3A) under-reports some slots and over-reports others
			// but steals nothing on net.
			stolen, err := pricing.NetEnergyDelta(actual[a.Attacker], reported[a.Attacker])
			if err != nil {
				return nil, err
			}
			if stolen > 0 {
				res.StolenKWh += stolen
			}
		}
		for i := range ids {
			if involved[i] {
				report.AttackActive = append(report.AttackActive, ids[i])
			}
		}
		sort.Strings(report.AttackActive)

		// Utility side 1: per-consumer F-DETA assessment.
		for i := range ids {
			a, err := framework.Evaluate(ids[i], weekIdx, reported[i])
			if err != nil {
				return nil, err
			}
			if a.Anomalous {
				report.Flags = append(report.Flags, Flag{ConsumerID: ids[i], Kind: a.Kind})
			}
			flagged := a.Anomalous
			switch {
			case flagged && involved[i]:
				res.TruePositives++
			case flagged && !involved[i]:
				res.FalsePositives++
			case !flagged && involved[i]:
				res.FalseNegatives++
			}
		}

		// Utility side 2: the trusted root balance check over the week.
		if report.RootBalanced, err = rootBalanced(feeder, snap, ids, actual, reported); err != nil {
			return nil, err
		}

		// Utility side 3: revenue assurance for the week.
		delivered := make(timeseries.Series, timeseries.SlotsPerWeek)
		reportedByID := make(map[string]timeseries.Series, sc.Consumers)
		for i := range ids {
			reportedByID[ids[i]] = reported[i]
			for s, v := range actual[i] {
				delivered[s] += v
			}
		}
		rev, err := billing.RevenueAssurance(sc.Scheme, cycle, delivered, reportedByID, 0)
		if err != nil {
			return nil, err
		}
		report.UnaccountedKWh = rev.UnaccountedKWh
		report.RevenueUSD = rev.RevenueUSD

		res.Weeks = append(res.Weeks, report)
	}
	return res, nil
}

// rootBalanced runs the balance check (Eq. 5) at the feeder's root meter
// for every slot of the week; the week balances when every slot passes.
func rootBalanced(feeder *topology.Tree, snap *topology.Snapshot, ids []string,
	actual, reported []timeseries.Series) (bool, error) {
	bc := topology.DefaultChecker()
	for s := 0; s < timeseries.SlotsPerWeek; s++ {
		for i, id := range ids {
			snap.ConsumerActual[id] = actual[i][s]
			snap.ConsumerReported[id] = reported[i][s]
		}
		r, err := bc.Check(feeder.Root, snap)
		if err != nil {
			return false, err
		}
		if !r.Pass {
			return false, nil
		}
	}
	return true, nil
}

// applyAttack mutates the week's actual/reported series per the script.
// The driver uses transparent proportional distortions.
func applyAttack(a AttackScript, scheme pricing.Scheme, actual, reported []timeseries.Series) error {
	switch a.Class {
	case attack.Class1A:
		// Consume more, report the typical pattern.
		actual[a.Attacker] = actual[a.Attacker].Scale(a.Magnitude)

	case attack.Class2A:
		// Under-report own consumption.
		reported[a.Attacker] = reported[a.Attacker].Scale(1 - a.Magnitude)

	case attack.Class3A:
		// Load-shift the reports: Optimal Swap against the actual prices.
		if tou, ok := scheme.(pricing.TOU); ok {
			swapped, err := attack.OptimalSwap(reported[a.Attacker], tou)
			if err != nil {
				return err
			}
			reported[a.Attacker] = swapped
			break
		}
		prices := adr.PriceTraceFor(scheme.Price, 0, timeseries.SlotsPerWeek)
		swapped, err := attack.OptimalSwapGeneral(reported[a.Attacker], prices)
		if err != nil {
			return err
		}
		reported[a.Attacker] = swapped

	case attack.Class1B:
		// Consume more; the surplus is over-reported onto the victim via a
		// stealthy Integrated-ARIMA-shaped vector.
		inflated := actual[a.Attacker].Scale(a.Magnitude)
		surplus, err := inflated.Sub(actual[a.Attacker])
		if err != nil {
			return err
		}
		actual[a.Attacker] = inflated
		victimReported, err := reported[a.Victim].Add(surplus)
		if err != nil {
			return err
		}
		reported[a.Victim] = victimReported

	case attack.Class2B:
		// Under-report self; over-report the victim to keep the balance.
		hidden := reported[a.Attacker].Scale(a.Magnitude)
		reported[a.Attacker] = reported[a.Attacker].Scale(1 - a.Magnitude)
		victimReported, err := reported[a.Victim].Add(hidden)
		if err != nil {
			return err
		}
		reported[a.Victim] = victimReported
	}
	return nil
}
