package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/pricing"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// TestHonestScenarioInvariantsProperty: for any seed and population, an
// attack-free scenario steals nothing, balances every week, and leaves no
// unaccounted energy.
func TestHonestScenarioInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.SplitRand(seed, 40)
		sc := Scenario{
			Consumers:  2 + rng.Intn(5),
			TrainWeeks: 6,
			LiveWeeks:  1 + rng.Intn(2),
			Seed:       rng.Int63(),
		}
		res, err := Run(sc)
		if err != nil {
			return false
		}
		if res.StolenKWh != 0 || res.TruePositives != 0 || res.FalseNegatives != 0 {
			return false
		}
		for _, w := range res.Weeks {
			if !w.RootBalanced {
				return false
			}
			if w.UnaccountedKWh > 1e-6 || w.UnaccountedKWh < -1e-6 {
				return false
			}
			if w.RevenueUSD <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestBalancedAttacksAlwaysBalanceProperty: Class 2B keeps the root balance
// intact for any magnitude and victim choice (Proposition 2 as a property).
func TestBalancedAttacksAlwaysBalanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.SplitRand(seed, 41)
		consumers := 3 + rng.Intn(4)
		attacker := rng.Intn(consumers)
		victim := (attacker + 1 + rng.Intn(consumers-1)) % consumers
		if victim == attacker {
			return true // constructionally excluded; skip
		}
		sc := Scenario{
			Consumers:  consumers,
			TrainWeeks: 6,
			LiveWeeks:  1,
			Seed:       rng.Int63(),
			Attacks: []AttackScript{{
				Week:      0,
				Class:     attack.Class2B,
				Attacker:  attacker,
				Victim:    victim,
				Magnitude: 0.1 + 0.8*rng.Float64(),
			}},
		}
		res, err := Run(sc)
		if err != nil {
			return false
		}
		return res.Weeks[0].RootBalanced && res.StolenKWh > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestUnbalancedAttacksNeverBalanceProperty: Class 2A with a substantial
// magnitude always breaks the root balance (Proposition 1's footprint).
func TestUnbalancedAttacksNeverBalanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.SplitRand(seed, 42)
		consumers := 2 + rng.Intn(3)
		sc := Scenario{
			Consumers:  consumers,
			TrainWeeks: 6,
			LiveWeeks:  1,
			Seed:       rng.Int63(),
			Attacks: []AttackScript{{
				Week:      0,
				Class:     attack.Class2A,
				Attacker:  rng.Intn(consumers),
				Magnitude: 0.5 + 0.4*rng.Float64(), // hide 50-90%
			}},
		}
		res, err := Run(sc)
		if err != nil {
			return false
		}
		return !res.Weeks[0].RootBalanced && res.Weeks[0].UnaccountedKWh > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// rootBalancedOracle is the root balance check written out per slot: the
// aggregate actual demand against the aggregate reported demand, within
// 1e-6 kW plus 2% of the actual aggregate.
func rootBalancedOracle(actual, reported []timeseries.Series) bool {
	for s := 0; s < timeseries.SlotsPerWeek; s++ {
		var sumActual, sumReported float64
		for i := range actual {
			sumActual += actual[i][s]
			sumReported += reported[i][s]
		}
		tol := 1e-6 + 0.02*sumActual
		if diff := sumActual - sumReported; diff > tol || diff < -tol {
			return false
		}
	}
	return true
}

// TestRootBalancedMatchesOracleProperty: over random scenarios mixing every
// scripted class, with magnitudes on both sides of the 2% tolerance, each
// week's RootBalanced equals the oracle on the same week's series, and the
// scenarios reach both verdicts.
func TestRootBalancedMatchesOracleProperty(t *testing.T) {
	classes := []attack.Class{attack.Class1A, attack.Class2A, attack.Class3A, attack.Class1B, attack.Class2B}
	verdicts := map[bool]int{}
	f := func(seed int64) bool {
		rng := stats.SplitRand(seed, 43)
		sc := Scenario{
			Consumers:  2 + rng.Intn(3),
			TrainWeeks: 6,
			LiveWeeks:  1 + rng.Intn(2),
			Seed:       rng.Int63(),
		}
		for n := rng.Intn(3); n > 0; n-- {
			a := AttackScript{
				Week:     rng.Intn(sc.LiveWeeks),
				Class:    classes[rng.Intn(len(classes))],
				Attacker: rng.Intn(sc.Consumers),
			}
			a.Victim = (a.Attacker + 1 + rng.Intn(sc.Consumers-1)) % sc.Consumers
			switch a.Class {
			case attack.Class1A, attack.Class1B:
				a.Magnitude = 1.001 + 0.1*rng.Float64()
			case attack.Class2A, attack.Class2B:
				a.Magnitude = 0.001 + 0.1*rng.Float64()
			}
			sc.Attacks = append(sc.Attacks, a)
		}
		res, err := Run(sc)
		if err != nil {
			t.Log(err)
			return false
		}
		ds, err := dataset.Generate(dataset.Config{
			Residential: sc.Consumers, Weeks: sc.TrainWeeks + sc.LiveWeeks, Seed: sc.Seed,
		})
		if err != nil {
			t.Log(err)
			return false
		}
		for w, report := range res.Weeks {
			actual := make([]timeseries.Series, sc.Consumers)
			reported := make([]timeseries.Series, sc.Consumers)
			for i := range ds.Consumers {
				actual[i] = ds.Consumers[i].Demand.MustWeek(sc.TrainWeeks + w).Clone()
				reported[i] = actual[i].Clone()
			}
			for _, a := range sc.Attacks {
				if a.Week == w {
					if err := applyAttack(a, pricing.Nightsaver(), actual, reported); err != nil {
						t.Log(err)
						return false
					}
				}
			}
			want := rootBalancedOracle(actual, reported)
			verdicts[want]++
			if report.RootBalanced != want {
				t.Logf("scenario %+v week %d: RootBalanced %v, oracle %v", sc, w, report.RootBalanced, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("scenarios reached only one verdict (balanced/unbalanced weeks: %d/%d)", verdicts[true], verdicts[false])
	}
}
