package core

import (
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/stats"
	"repro/internal/timeseries"
	"repro/internal/topology"
)

// Calendar is a simple EvidenceFunc backed by a set of week indices with a
// benign explanation (holiday periods, severe weather).
type Calendar struct {
	weeks map[int]string
}

// NewCalendar builds a calendar from week-index → explanation.
func NewCalendar(weeks map[int]string) *Calendar {
	m := make(map[int]string, len(weeks))
	for k, v := range weeks {
		m[k] = v
	}
	return &Calendar{weeks: m}
}

// Evidence implements EvidenceFunc semantics for the calendar.
func (c *Calendar) Evidence(_ string, weekIndex int) Evidence {
	if note, ok := c.weeks[weekIndex]; ok {
		return Evidence{Explained: true, Note: note}
	}
	return Evidence{}
}

func testConsumer(t *testing.T, seed int64, weeks, trainWeeks int) (train, test timeseries.Series) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{Residential: 1, Weeks: weeks, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	train, test, err = ds.Consumers[0].Demand.Split(trainWeeks)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func TestAnomalyKindString(t *testing.T) {
	kinds := map[AnomalyKind]string{
		NotAnomalous:          "not-anomalous",
		SuspectedAttacker:     "suspected-attacker",
		SuspectedVictim:       "suspected-victim",
		AnomalousUnclassified: "anomalous-unclassified",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d String = %q, want %q", k, k.String(), want)
		}
	}
	if !strings.Contains(AnomalyKind(42).String(), "42") {
		t.Error("unknown kind should include value")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing factory should error")
	}
	if _, err := New(Config{Factory: DefaultDetectorFactory(0.05), DirectionZ: -1}); err == nil {
		t.Error("bad tolerance should error")
	}
}

func TestEnrollAndEvaluateNormal(t *testing.T) {
	train, test := testConsumer(t, 60, 30, 28)
	f, err := New(Config{Factory: DefaultDetectorFactory(0.05)})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Enroll("c1", train); err != nil {
		t.Fatal(err)
	}
	if err := f.Enroll("c1", train); err == nil {
		t.Error("duplicate enrollment should error")
	}
	if err := f.Enroll("", train); err == nil {
		t.Error("empty ID should error")
	}
	if _, ok := f.consumers["c1"]; !ok || len(f.consumers) != 1 {
		t.Errorf("enrolled consumers = %v, want only c1", f.consumers)
	}

	a, err := f.Evaluate("c1", 0, test.MustWeek(0))
	if err != nil {
		t.Fatal(err)
	}
	if a.Anomalous {
		t.Errorf("normal week should pass: %+v", a.Verdicts)
	}
	if a.Kind != NotAnomalous {
		t.Errorf("Kind = %v", a.Kind)
	}
	if a.ActionRequired {
		t.Error("no action for normal week")
	}
	if len(a.Verdicts) != 2 {
		t.Errorf("expected 2 detector verdicts, got %d", len(a.Verdicts))
	}
	if _, err := f.Evaluate("missing", 0, test.MustWeek(0)); err == nil {
		t.Error("unenrolled consumer should error")
	}
}

func TestEvaluateLabelsAttackerAndVictim(t *testing.T) {
	train, _ := testConsumer(t, 62, 30, 28)
	f, err := New(Config{Factory: DefaultDetectorFactory(0.05)})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Enroll("c1", train); err != nil {
		t.Fatal(err)
	}

	// Abnormally low week (Class 2A-style): suspected attacker.
	low := make(timeseries.Series, timeseries.SlotsPerWeek)
	a, err := f.Evaluate("c1", 0, low)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Anomalous || a.Kind != SuspectedAttacker {
		t.Errorf("all-zero week: anomalous=%v kind=%v, want attacker", a.Anomalous, a.Kind)
	}
	if !a.ActionRequired {
		t.Error("unexplained anomaly requires action")
	}

	// Abnormally high week (Class 1B-style): suspected victim.
	matrix, _ := timeseries.NewWeekMatrix(train, 0)
	profile := matrix.SeasonalProfile()
	high := profile.Scale(6)
	a, err = f.Evaluate("c1", 1, high)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Anomalous || a.Kind != SuspectedVictim {
		t.Errorf("6x week: anomalous=%v kind=%v, want victim", a.Anomalous, a.Kind)
	}
}

func TestEvaluateEvidenceSuppression(t *testing.T) {
	train, _ := testConsumer(t, 63, 30, 28)
	cal := NewCalendar(map[int]string{3: "public holiday"})
	f, err := New(Config{
		Factory:  DefaultDetectorFactory(0.05),
		Evidence: cal.Evidence,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Enroll("c1", train); err != nil {
		t.Fatal(err)
	}
	low := make(timeseries.Series, timeseries.SlotsPerWeek)
	// Week 3 is a holiday: anomaly explained, no action.
	a, err := f.Evaluate("c1", 3, low)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Anomalous {
		t.Fatal("setup: week should be anomalous")
	}
	if !a.Evidence.Explained || a.ActionRequired {
		t.Errorf("holiday anomaly should be suppressed: %+v", a)
	}
	if a.Evidence.Note != "public holiday" {
		t.Errorf("Note = %q", a.Evidence.Note)
	}
	// Week 4 is not: action required.
	a, err = f.Evaluate("c1", 4, low)
	if err != nil {
		t.Fatal(err)
	}
	if a.Evidence.Explained || !a.ActionRequired {
		t.Errorf("non-holiday anomaly must require action: %+v", a)
	}
}

func TestDefaultFactoryKLDCatchesIntegratedARIMAAttack(t *testing.T) {
	// End-to-end through the framework: the Integrated ARIMA attack slips
	// past the integrated detector but trips the KLD detector.
	train, _ := testConsumer(t, 64, 30, 28)
	f, err := New(Config{Factory: DefaultDetectorFactory(0.05)})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Enroll("victim", train); err != nil {
		t.Fatal(err)
	}
	integrated, err := detect.NewIntegratedARIMADetector(train, detect.IntegratedARIMAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	vec, err := attack.IntegratedARIMAAttack(integrated, attack.Up, attack.IntegratedARIMAConfig{}, stats.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	a, err := f.Evaluate("victim", 0, vec)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Anomalous {
		t.Fatalf("framework should flag the Integrated ARIMA attack: %+v", a.Verdicts)
	}
	kldFired := false
	for name, v := range a.Verdicts {
		if strings.HasPrefix(name, "kld") && v.Anomalous {
			kldFired = true
		}
	}
	if !kldFired {
		t.Errorf("detection should come from the KLD layer: %+v", a.Verdicts)
	}
	if a.Kind != SuspectedVictim {
		t.Errorf("over-reported neighbour should be labeled victim, got %v", a.Kind)
	}
}

func TestInvestigateFullyMetered(t *testing.T) {
	f, err := New(Config{Factory: DefaultDetectorFactory(0.05)})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := topology.BuildFig2()
	if err != nil {
		t.Fatal(err)
	}
	snap := topology.NewSnapshot()
	for i, c := range tree.Consumers() {
		snap.ConsumerActual[c.ID] = float64(i + 1)
		snap.ConsumerReported[c.ID] = float64(i + 1)
	}
	snap.ConsumerReported["C4"] = 0 // theft
	for _, id := range []string{"L1", "L2", "L3"} {
		snap.LossCalc[id] = 0.1
	}
	report, err := f.Investigate(tree, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !report.AllInternalNodesMetered {
		t.Error("Fig. 2 tree is fully metered")
	}
	if len(report.FailingChecks) == 0 {
		t.Error("theft should fail checks")
	}
	found := false
	for _, id := range report.Investigation.Suspects {
		if id == "C4" {
			found = true
		}
	}
	if !found {
		t.Errorf("C4 should be a suspect: %v", report.Investigation.Suspects)
	}
	if _, err := f.Investigate(nil, snap); err == nil {
		t.Error("nil tree should error")
	}
	if _, err := f.Investigate(tree, nil); err == nil {
		t.Error("nil snapshot should error")
	}
}

func TestInvestigatePartiallyMeteredUsesServiceman(t *testing.T) {
	f, err := New(Config{Factory: DefaultDetectorFactory(0.05)})
	if err != nil {
		t.Fatal(err)
	}
	tree := topology.NewTree("root")
	if _, err := tree.AddNode("root", "N1", topology.Internal, false); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.AddNode("N1", "C1", topology.Consumer, false); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.AddNode("N1", "C2", topology.Consumer, false); err != nil {
		t.Fatal(err)
	}
	snap := topology.NewSnapshot()
	snap.ConsumerActual["C1"] = 4
	snap.ConsumerReported["C1"] = 1
	snap.ConsumerActual["C2"] = 2
	snap.ConsumerReported["C2"] = 2
	report, err := f.Investigate(tree, snap)
	if err != nil {
		t.Fatal(err)
	}
	if report.AllInternalNodesMetered {
		t.Error("N1 is unmetered")
	}
	if len(report.Investigation.Suspects) != 1 || report.Investigation.Suspects[0] != "C1" {
		t.Errorf("serviceman should find C1: %v", report.Investigation.Suspects)
	}
}

func TestInvestigateEscalatesWhenMetersLie(t *testing.T) {
	f, err := New(Config{Factory: DefaultDetectorFactory(0.05)})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := topology.BuildFig2()
	if err != nil {
		t.Fatal(err)
	}
	snap := topology.NewSnapshot()
	for i, c := range tree.Consumers() {
		snap.ConsumerActual[c.ID] = float64(i + 1)
		snap.ConsumerReported[c.ID] = float64(i + 1)
	}
	for _, id := range []string{"L1", "L2", "L3"} {
		snap.LossCalc[id] = 0.1
	}
	// Thief at C4, hiding behind compromised meters at N2 and N3: the
	// deepest-failure scan exonerates both subtrees, suspects come back
	// empty for the failing root, and the framework must escalate to the
	// serviceman search.
	snap.ConsumerReported["C4"] = 0
	snap.CompromisedMeters["N2"] = true
	snap.CompromisedMeters["N3"] = true

	report, err := f.Investigate(tree, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Escalated {
		t.Fatalf("expected escalation: %+v", report)
	}
	if len(report.Investigation.Suspects) != 1 || report.Investigation.Suspects[0] != "C4" {
		t.Errorf("escalated search should pin C4: %v", report.Investigation.Suspects)
	}
	if len(report.Alarms) == 0 {
		t.Error("lying meters should raise Section V-B alarms")
	}
}

func TestCalendarNoEntry(t *testing.T) {
	cal := NewCalendar(nil)
	if ev := cal.Evidence("x", 0); ev.Explained {
		t.Error("empty calendar should explain nothing")
	}
}

func TestFactoryErrorPropagates(t *testing.T) {
	f, err := New(Config{Factory: func(timeseries.Series) ([]detect.Detector, error) {
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	train, _ := testConsumer(t, 65, 6, 4)
	if err := f.Enroll("c1", train); err == nil {
		t.Error("factory returning no detectors should error")
	}
}
