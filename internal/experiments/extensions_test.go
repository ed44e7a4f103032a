package experiments

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/detect"
	"repro/internal/timeseries"
)

func TestTimeToDetection(t *testing.T) {
	opts := tinyOptions()
	sum, err := TimeToDetection(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Every consumer's latency is pinned. The values were recorded from the
	// raw-window stream the compact stream replaced; the compact stream's
	// verdicts are bit-identical, so the latencies must not move.
	want := []TTDOutcome{
		{1000, true, 89}, {1001, true, 60}, {1002, true, 55},
		{1003, true, 70}, {1004, true, 17}, {1005, true, 19},
	}
	if !reflect.DeepEqual(sum.Outcomes, want) {
		t.Fatalf("outcomes changed:\n got %v\nwant %v", sum.Outcomes, want)
	}
	if sum.DetectedFrac != 1 || sum.MedianSlots != 57.5 || sum.MeanSlots != 155.0/3 {
		t.Errorf("summary = %g detected, median %g, mean %g; want 1, 57.5, %g",
			sum.DetectedFrac, sum.MedianSlots, sum.MeanSlots, 155.0/3)
	}
	if sum.DetectedFrac <= 0 {
		t.Fatal("streaming detection should catch at least some consumers")
	}
	for _, o := range sum.Outcomes {
		if o.Detected {
			if o.SlotsToDetection < 1 || o.SlotsToDetection > timeseries.SlotsPerWeek {
				t.Errorf("consumer %d latency %d out of range", o.ConsumerID, o.SlotsToDetection)
			}
		} else if o.SlotsToDetection != 0 {
			t.Errorf("undetected consumer %d should have zero latency", o.ConsumerID)
		}
	}
	if !math.IsNaN(sum.MedianSlots) {
		// The paper's argument: the week-long bound is an upper bound; the
		// median detection comes well before the full week.
		if sum.MedianSlots >= timeseries.SlotsPerWeek {
			t.Errorf("median latency %g slots, want < %d", sum.MedianSlots, timeseries.SlotsPerWeek)
		}
		if sum.MedianHours != sum.MedianSlots*timeseries.DeltaHours {
			t.Error("hours/slots inconsistent")
		}
		t.Logf("time-to-detection: %.0f%% detected, median %.0f slots (%.1f h)",
			100*sum.DetectedFrac, sum.MedianSlots, sum.MedianHours)
	}
	bad := opts
	bad.Trials = 0
	if _, err := TimeToDetection(bad); err == nil {
		t.Error("invalid options should error")
	}
}

func TestDivergenceSweep(t *testing.T) {
	opts := tinyOptions()
	points, err := DivergenceSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3 divergence kinds", len(points))
	}
	kinds := map[detect.DivergenceKind]bool{}
	for _, p := range points {
		kinds[p.Kind] = true
		if p.DetectionRate < 0 || p.DetectionRate > 1 || p.FalsePosRate < 0 || p.FalsePosRate > 1 {
			t.Errorf("%v rates out of range: %+v", p.Kind, p)
		}
		// The Integrated ARIMA attack is grossly distribution-shifting; all
		// three measures should catch most of it.
		if p.DetectionRate < 0.5 {
			t.Errorf("%v detection %.0f%%, implausibly low", p.Kind, 100*p.DetectionRate)
		}
	}
	if len(kinds) != 3 {
		t.Error("duplicate divergence kinds in sweep")
	}
	bad := opts
	bad.TrainWeeks = 0
	if _, err := DivergenceSweep(bad); err == nil {
		t.Error("invalid options should error")
	}
}

func TestFalsePositiveProfile(t *testing.T) {
	opts := QuickOptions()
	opts.MaxConsumers = 10
	points, err := FalsePositiveProfile(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	byName := map[string]FPPoint{}
	for _, p := range points {
		byName[p.Detector] = p
		if p.FPRate < 0 || p.FPRate > 1 {
			t.Errorf("%s FP rate = %g", p.Detector, p.FPRate)
		}
		if p.ConsumerWeeks != 10*2 { // 10 consumers × 2 test weeks
			t.Errorf("%s consumer-weeks = %d, want 20", p.Detector, p.ConsumerWeeks)
		}
	}
	// The 10% detector must be at least as aggressive as the 5% one.
	if byName["kld-10%"].FPRate < byName["kld-5%"].FPRate {
		t.Errorf("kld-10%% FP rate %.2f should be >= kld-5%% %.2f",
			byName["kld-10%"].FPRate, byName["kld-5%"].FPRate)
	}
	// The integrated detector is calibrated with a margin: low FP.
	if byName["integrated-arima"].FPRate > 0.3 {
		t.Errorf("integrated-arima FP rate %.2f implausibly high", byName["integrated-arima"].FPRate)
	}
	t.Logf("FP profile: %+v", points)

	bad := opts
	bad.Trials = 0
	if _, err := FalsePositiveProfile(bad); err == nil {
		t.Error("invalid options should error")
	}
}

func TestBaselineComparison(t *testing.T) {
	opts := tinyOptions()
	points, err := BaselineComparison(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3 detectors", len(points))
	}
	byName := map[string]BaselinePoint{}
	for _, p := range points {
		byName[p.Detector] = p
		if p.DetectionRate < 0 || p.DetectionRate > 1 || p.SuccessRate > p.DetectionRate {
			t.Errorf("%s rates malformed: %+v", p.Detector, p)
		}
	}
	integ, ok1 := byName["integrated-arima"]
	kld, ok2 := byName["kld-5%"]
	if !ok1 || !ok2 {
		t.Fatalf("missing expected detectors: %v", byName)
	}
	// The paper's central comparison: the KLD detector dominates the
	// Integrated ARIMA detector on the attack built to evade the latter.
	if kld.SuccessRate <= integ.SuccessRate {
		t.Errorf("KLD success %.2f should beat Integrated ARIMA %.2f",
			kld.SuccessRate, integ.SuccessRate)
	}
	if _, ok := byName["pca"]; !ok {
		t.Error("PCA baseline missing")
	}
	t.Logf("baseline comparison: %+v", points)

	bad := opts
	bad.Trials = 0
	if _, err := BaselineComparison(bad); err == nil {
		t.Error("invalid options should error")
	}
}

func TestBinStrategySweep(t *testing.T) {
	opts := tinyOptions()
	points, err := BinStrategySweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.DetectionRate < 0.5 {
			t.Errorf("%v detection %.0f%%, implausibly low", p.Strategy, 100*p.DetectionRate)
		}
		if p.SuccessRate > p.DetectionRate {
			t.Errorf("%v success cannot exceed detection", p.Strategy)
		}
	}
	t.Logf("bin strategies: %+v", points)
	bad := opts
	bad.Trials = 0
	if _, err := BinStrategySweep(bad); err == nil {
		t.Error("invalid options should error")
	}
}

func TestSpreadSweep(t *testing.T) {
	opts := QuickOptions()
	opts.MaxConsumers = 12
	points, err := SpreadSweep(opts, 200, []int{1, 3, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// Per-victim burden decreases as the theft spreads.
	for i := 1; i < len(points); i++ {
		if points[i].PerVictimKWh >= points[i-1].PerVictimKWh {
			t.Error("per-victim energy must shrink as victims increase")
		}
	}
	// Concentrated theft (one victim carrying 200 kWh/week) is blatant.
	if points[0].VictimDetectionRate < 0.5 {
		t.Errorf("concentrated theft detection %.0f%%, want high", 100*points[0].VictimDetectionRate)
	}
	// Spreading across 6 victims dilutes per-victim detection.
	if points[2].VictimDetectionRate > points[0].VictimDetectionRate {
		t.Errorf("spreading should not increase per-victim detection: %v", points)
	}
	for _, p := range points {
		if p.SchemeCaughtRate < 0 || p.SchemeCaughtRate > 1 {
			t.Errorf("scheme-caught rate out of range: %+v", p)
		}
	}
	t.Logf("spread sweep: %+v", points)

	if _, err := SpreadSweep(opts, 0, []int{1}); err == nil {
		t.Error("zero energy should error")
	}
	if _, err := SpreadSweep(opts, 10, nil); err == nil {
		t.Error("no victim counts should error")
	}
	if _, err := SpreadSweep(opts, 10, []int{0}); err == nil {
		t.Error("zero victims should error")
	}
	if _, err := SpreadSweep(opts, 10, []int{1000}); err == nil {
		t.Error("too many victims should error")
	}
}

// TestProtocolIsTableIIProtocol: every Class-1B experiment runs on the
// evaluation's training pass and attack draw, so each one's row for a
// Table II detector is that detector's 1B cell of the evaluation, exactly.
func TestProtocolIsTableIIProtocol(t *testing.T) {
	opts := QuickOptions()
	ev, err := RunEvaluation(opts)
	if err != nil {
		t.Fatal(err)
	}
	kld, err := ev.Cell(DetKLD5, Scen1B)
	if err != nil {
		t.Fatal(err)
	}
	integ, err := ev.Cell(DetIntegrated, Scen1B)
	if err != nil {
		t.Fatal(err)
	}
	base, err := BaselineComparison(opts)
	if err != nil {
		t.Fatal(err)
	}
	bins, err := BinSweep(opts, []int{10})
	if err != nil {
		t.Fatal(err)
	}
	div, err := DivergenceSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, p := range base {
		byName[p.Detector] = p.SuccessRate
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"baselines kld-5%", byName["kld-5%"], kld.DetectionRate()},
		{"ablate-bins B=10", bins[0].SuccessRate, kld.DetectionRate()},
		{"ablate-divergence " + div[0].Kind.String(), div[0].SuccessRate, kld.DetectionRate()},
		{"baselines integrated-arima", byName["integrated-arima"], integ.DetectionRate()},
	} {
		if c.got != c.want {
			t.Errorf("%s success = %g, Table II 1B cell = %g", c.name, c.got, c.want)
		}
	}
	if div[0].Kind != detect.KullbackLeibler {
		t.Errorf("first divergence row is %s, want %s", div[0].Kind, detect.KullbackLeibler)
	}
}
