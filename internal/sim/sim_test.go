package sim

import (
	"testing"

	"repro/internal/attack"
)

func baseScenario() Scenario {
	return Scenario{
		Consumers:  6,
		TrainWeeks: 20,
		LiveWeeks:  3,
		Seed:       90,
	}
}

func TestScenarioValidate(t *testing.T) {
	if err := baseScenario().Validate(); err != nil {
		t.Errorf("base scenario invalid: %v", err)
	}
	cases := []func(*Scenario){
		func(s *Scenario) { s.Consumers = 1 },
		func(s *Scenario) { s.TrainWeeks = 2 },
		func(s *Scenario) { s.LiveWeeks = 0 },
		func(s *Scenario) {
			s.Attacks = []AttackScript{{Week: 99, Class: attack.Class2A, Attacker: 0, Magnitude: 0.5}}
		},
		func(s *Scenario) {
			s.Attacks = []AttackScript{{Week: 0, Class: attack.Class2A, Attacker: 99, Magnitude: 0.5}}
		},
		func(s *Scenario) {
			s.Attacks = []AttackScript{{Week: 0, Class: attack.Class3A, Attacker: 0, Magnitude: 0.5}}
		},
		func(s *Scenario) {
			s.Attacks = []AttackScript{{Week: 0, Class: attack.Class1B, Attacker: 0, Victim: 0, Magnitude: 2}}
		},
		func(s *Scenario) {
			s.Attacks = []AttackScript{{Week: 0, Class: attack.Class1B, Attacker: 0, Victim: 99, Magnitude: 2}}
		},
		func(s *Scenario) {
			s.Attacks = []AttackScript{{Week: 0, Class: attack.Class1A, Attacker: 0, Magnitude: 0.5}}
		},
		func(s *Scenario) {
			s.Attacks = []AttackScript{{Week: 0, Class: attack.Class2A, Attacker: 0, Magnitude: 1.5}}
		},
	}
	for i, mutate := range cases {
		s := baseScenario()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
}

func TestRunHonestScenario(t *testing.T) {
	res, err := Run(baseScenario())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Weeks) != 3 {
		t.Fatalf("weeks = %d", len(res.Weeks))
	}
	if res.StolenKWh != 0 {
		t.Errorf("honest scenario stole %g kWh", res.StolenKWh)
	}
	if res.TruePositives != 0 || res.FalseNegatives != 0 {
		t.Errorf("honest scenario has no attacks: TP=%d FN=%d", res.TruePositives, res.FalseNegatives)
	}
	for _, w := range res.Weeks {
		if !w.RootBalanced {
			t.Errorf("week %d: honest grid must balance", w.Week)
		}
		if w.UnaccountedKWh > 1e-6 || w.UnaccountedKWh < -1e-6 {
			t.Errorf("week %d: unaccounted = %g", w.Week, w.UnaccountedKWh)
		}
		if w.RevenueUSD <= 0 {
			t.Errorf("week %d: revenue = %g", w.Week, w.RevenueUSD)
		}
		if len(w.AttackActive) != 0 {
			t.Errorf("week %d: ground truth should be empty", w.Week)
		}
	}
	// Recall is vacuously perfect; precision suffers only from FPs.
	if res.Recall() != 1 {
		t.Error("recall should be 1 with no attacks")
	}
}

func TestRunClass2AScenario(t *testing.T) {
	sc := baseScenario()
	sc.Attacks = []AttackScript{
		{Week: 1, Class: attack.Class2A, Attacker: 2, Magnitude: 0.9},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.StolenKWh <= 0 {
		t.Fatal("2A attack should steal energy")
	}
	w := res.Weeks[1]
	// Hiding 90% of consumption breaks the root balance and leaves
	// unaccounted energy.
	if w.RootBalanced {
		t.Error("week 1 root balance should fail under a 2A attack")
	}
	if w.UnaccountedKWh <= 0 {
		t.Errorf("week 1 unaccounted = %g, want positive", w.UnaccountedKWh)
	}
	if len(w.AttackActive) != 1 {
		t.Errorf("ground truth = %v", w.AttackActive)
	}
	// The 90% under-report is blatant; the detector should flag the thief.
	if res.TruePositives == 0 {
		t.Error("a 90% under-report should be flagged")
	}
	// Other weeks stay balanced.
	if !res.Weeks[0].RootBalanced || !res.Weeks[2].RootBalanced {
		t.Error("attack-free weeks must balance")
	}
}

func TestRunClass2BScenarioBalances(t *testing.T) {
	sc := baseScenario()
	sc.Attacks = []AttackScript{
		{Week: 0, Class: attack.Class2B, Attacker: 1, Victim: 3, Magnitude: 0.8},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Weeks[0]
	// Proposition 2 in action: the balance check passes, revenue assurance
	// sees nothing, yet energy is being stolen from the victim.
	if !w.RootBalanced {
		t.Error("2B attack must pass the root balance check")
	}
	if w.UnaccountedKWh > 1e-6 {
		t.Errorf("2B attack must leave no unaccounted energy, got %g", w.UnaccountedKWh)
	}
	if res.StolenKWh <= 0 {
		t.Error("2B attack steals energy")
	}
	if len(w.AttackActive) != 2 {
		t.Errorf("ground truth should name attacker and victim: %v", w.AttackActive)
	}
	// The data-driven layer is the only one that can see it.
	if res.TruePositives == 0 {
		t.Error("the detector stack should flag the 2B attack (attacker or victim)")
	}
}

func TestRunClass1AScenario(t *testing.T) {
	sc := baseScenario()
	sc.Attacks = []AttackScript{
		{Week: 2, Class: attack.Class1A, Attacker: 4, Magnitude: 3},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Weeks[2]
	// 1A: reported data is perfectly normal — only the balance check sees it.
	if w.RootBalanced {
		t.Error("1A attack must fail the root balance check")
	}
	if w.UnaccountedKWh <= 0 {
		t.Error("1A attack leaves unaccounted energy")
	}
	// The paper: Class 1A "would go completely undetected" by data-driven
	// methods. The attacker's own report is unchanged, so any flag on the
	// attacker would be a false positive of the week, not a detection.
	if res.StolenKWh <= 0 {
		t.Error("1A attack steals energy")
	}
}

func TestRunClass1BScenario(t *testing.T) {
	sc := baseScenario()
	sc.Attacks = []AttackScript{
		{Week: 1, Class: attack.Class1B, Attacker: 0, Victim: 5, Magnitude: 4},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Weeks[1]
	if !w.RootBalanced {
		t.Error("1B attack must pass the root balance check")
	}
	// The victim's report is wildly inflated (4x the attacker's load moved
	// onto them): the framework should flag the victim.
	foundVictim := false
	for _, f := range w.Flags {
		if f.ConsumerID == w.AttackActive[len(w.AttackActive)-1] || f.ConsumerID == w.AttackActive[0] {
			foundVictim = true
		}
	}
	if !foundVictim {
		t.Errorf("1B attack should flag an involved consumer: flags=%v truth=%v", w.Flags, w.AttackActive)
	}
}

func TestRunClass3AScenario(t *testing.T) {
	sc := baseScenario()
	sc.Attacks = []AttackScript{
		{Week: 0, Class: attack.Class3A, Attacker: 2},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Weeks[0]
	// The signature of a pure load shift: the per-slot balance check fails
	// (readings moved between time periods), yet the WEEKLY energy audit
	// reconciles perfectly — no energy was stolen, only time was lied about.
	if w.RootBalanced {
		t.Error("3A swap must fail the per-slot balance check")
	}
	if w.UnaccountedKWh > 1e-6 || w.UnaccountedKWh < -1e-6 {
		t.Errorf("3A swap steals no net energy; unaccounted = %g", w.UnaccountedKWh)
	}
	if res.StolenKWh != 0 {
		t.Errorf("3A stolen = %g, want 0", res.StolenKWh)
	}
	if len(w.AttackActive) != 1 {
		t.Errorf("ground truth = %v", w.AttackActive)
	}
	// A 3A script with a magnitude is rejected.
	bad := baseScenario()
	bad.Attacks = []AttackScript{{Week: 0, Class: attack.Class3A, Attacker: 0, Magnitude: 0.5}}
	if _, err := Run(bad); err == nil {
		t.Error("3A with magnitude should be rejected")
	}
}

func TestRunDeterministic(t *testing.T) {
	sc := baseScenario()
	sc.Attacks = []AttackScript{
		{Week: 0, Class: attack.Class2A, Attacker: 1, Magnitude: 0.7},
	}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.StolenKWh != b.StolenKWh || a.TruePositives != b.TruePositives ||
		a.FalsePositives != b.FalsePositives {
		t.Error("simulation must be deterministic")
	}
}

func TestPrecisionRecallEdgeCases(t *testing.T) {
	r := &Result{}
	if r.Precision() != 1 || r.Recall() != 1 {
		t.Error("empty result should have vacuous precision/recall of 1")
	}
	r = &Result{TruePositives: 3, FalsePositives: 1, FalseNegatives: 2}
	if r.Precision() != 0.75 {
		t.Errorf("precision = %g", r.Precision())
	}
	if r.Recall() != 0.6 {
		t.Errorf("recall = %g", r.Recall())
	}
}

func TestRunInvalidScenario(t *testing.T) {
	sc := baseScenario()
	sc.Consumers = 0
	if _, err := Run(sc); err == nil {
		t.Error("invalid scenario should error")
	}
}
