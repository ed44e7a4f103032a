package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pricing"
)

// tinyOptions keeps unit tests fast: few consumers, short histories.
func tinyOptions() Options {
	return Options{
		Dataset: dataset.Config{
			Residential: 6,
			Weeks:       24,
			Seed:        2016,
		},
		TrainWeeks: 22,
		Trials:     4,
		Scheme:     pricing.Nightsaver(),
		Seed:       2016,
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := PaperOptions().Validate(); err != nil {
		t.Errorf("paper options invalid: %v", err)
	}
	if err := QuickOptions().Validate(); err != nil {
		t.Errorf("quick options invalid: %v", err)
	}
	cases := []func(*Options){
		func(o *Options) { o.Dataset.Weeks = 0 },
		func(o *Options) { o.TrainWeeks = 0 },
		func(o *Options) { o.TrainWeeks = o.Dataset.Weeks },
		func(o *Options) { o.Trials = 0 },
		func(o *Options) { o.MaxConsumers = -1 },
		func(o *Options) { o.Parallelism = -1 },
	}
	for i, mutate := range cases {
		o := QuickOptions()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
}

func TestDetectorIDLabels(t *testing.T) {
	for _, d := range DetectorIDs() {
		if d.Label() == "" || d.Label() == string(d) {
			t.Errorf("detector %q needs a paper-style label", d)
		}
	}
	if DetectorID("custom").Label() != "custom" {
		t.Error("unknown detectors label as themselves")
	}
}

func TestVerifyTableIMatchesTaxonomy(t *testing.T) {
	rows, err := VerifyTableI(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	// Table I of the paper, in class order 1A 2A 3A 1B 2B 3B 4B: the
	// constructed instances must agree with it.
	evades := []bool{false, false, false, true, true, true, true}
	flat := []bool{true, true, false, true, true, false, false}
	tou := []bool{true, true, true, true, true, true, false}
	rtp := []bool{true, true, true, true, true, true, true}
	for i, r := range rows {
		if r.PossibleDespiteBalanceCheck != evades[i] {
			t.Errorf("%v balance-check evasion: constructed %v, Table I %v",
				r.Class, r.PossibleDespiteBalanceCheck, evades[i])
		}
		if r.PossibleWithFlat != flat[i] {
			t.Errorf("%v flat-rate feasibility: constructed %v, Table I %v", r.Class, r.PossibleWithFlat, flat[i])
		}
		if r.PossibleWithTOU != tou[i] {
			t.Errorf("%v TOU feasibility: constructed %v, Table I %v", r.Class, r.PossibleWithTOU, tou[i])
		}
		if r.PossibleWithRTP != rtp[i] {
			t.Errorf("%v RTP feasibility: constructed %v, Table I %v", r.Class, r.PossibleWithRTP, rtp[i])
		}
		if r.RequiresADR != r.Class.RequiresADR() {
			t.Errorf("%v ADR requirement mismatch", r.Class)
		}
	}
	out := FormatTableI(rows)
	if !strings.Contains(out, "Attack Class") || !strings.Contains(out, "Requires ADR") {
		t.Error("formatted table missing headers")
	}
}

func TestRunEvaluationShapes(t *testing.T) {
	ev, err := RunEvaluation(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Consumers != 6 {
		t.Fatalf("Consumers = %d", ev.Consumers)
	}
	for _, d := range DetectorIDs() {
		for _, s := range Scenarios() {
			cell, err := ev.Cell(d, s)
			if err != nil {
				t.Fatal(err)
			}
			if len(cell.Outcomes) != 6 {
				t.Errorf("%s/%s outcomes = %d, want 6", d, s, len(cell.Outcomes))
			}
			rate := cell.DetectionRate()
			if rate < 0 || rate > 1 {
				t.Errorf("%s/%s rate = %g", d, s, rate)
			}
		}
	}
	if _, err := ev.Cell("nope", Scen1B); err == nil {
		t.Error("unknown detector should error")
	}
	if _, err := ev.Cell(DetARIMA, "nope"); err == nil {
		t.Error("unknown scenario should error")
	}
}

func TestRunEvaluationReproducesPaperOrdering(t *testing.T) {
	opts := QuickOptions()
	opts.MaxConsumers = 12
	ev, err := RunEvaluation(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Shape 1: the ARIMA detector catches (essentially) nothing.
	arima1B, _ := ev.Cell(DetARIMA, Scen1B)
	if r := arima1B.DetectionRate(); r > 0.2 {
		t.Errorf("ARIMA detector 1B success = %.0f%%, paper has 0%%", 100*r)
	}
	// Shape 2: the Integrated ARIMA detector barely improves on it against
	// its namesake attack.
	integ1B, _ := ev.Cell(DetIntegrated, Scen1B)
	if r := integ1B.DetectionRate(); r > 0.3 {
		t.Errorf("Integrated detector 1B success = %.0f%%, paper has 0.6%%", 100*r)
	}
	// Shape 3: the KLD detector catches most attacks in every column.
	for _, s := range Scenarios() {
		kld, _ := ev.Cell(DetKLD5, s)
		if r := kld.DetectionRate(); r < 0.6 {
			t.Errorf("KLD-5%% %s success = %.0f%%, paper has >= 72%%", s, 100*r)
		}
	}
	// Shape 4: theft totals are ordered ARIMA >> Integrated >> KLD for 1B.
	a := arima1B.TotalStolenKWh()
	i := integ1B.TotalStolenKWh()
	k5, _ := ev.Cell(DetKLD5, Scen1B)
	k := k5.TotalStolenKWh()
	if !(a > i && i > k) {
		t.Errorf("1B stolen ordering violated: arima %.0f, integrated %.0f, kld %.0f", a, i, k)
	}
	// Shape 5: the swap steals no net energy but yields positive profit
	// where undetected.
	for _, d := range []DetectorID{DetARIMA, DetIntegrated} {
		c, _ := ev.Cell(d, Scen3A3B)
		if c.TotalStolenKWh() != 0 {
			t.Errorf("%s 3A/3B stolen = %g, want 0", d, c.TotalStolenKWh())
		}
		if p, _ := c.MaxProfitUSD(); p <= 0 {
			t.Errorf("%s 3A/3B max profit = %g, want > 0", d, p)
		}
	}

	// Formatting paths.
	t2, err := FormatTableII(ev)
	if err != nil || !strings.Contains(t2, "KLD detector") {
		t.Errorf("Table II formatting: %v\n%s", err, t2)
	}
	t3, err := FormatTableIII(ev)
	if err != nil || !strings.Contains(t3, "Stolen (kWh)") {
		t.Errorf("Table III formatting: %v\n%s", err, t3)
	}
	// Headline percentages are positive (each detector layer mitigates).
	iv, kv, err := Headline(ev)
	if err != nil {
		t.Fatal(err)
	}
	if iv <= 0 || kv <= 0 {
		t.Errorf("headline reductions should be positive: %g, %g", iv, kv)
	}
}

func TestRunEvaluationDeterministic(t *testing.T) {
	opts := tinyOptions()
	a, err := RunEvaluation(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEvaluation(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range DetectorIDs() {
		for _, s := range Scenarios() {
			ca, _ := a.Cell(d, s)
			cb, _ := b.Cell(d, s)
			if ca.TotalStolenKWh() != cb.TotalStolenKWh() {
				t.Fatalf("%s/%s totals differ between identical runs", d, s)
			}
			for i := range ca.Outcomes {
				if ca.Outcomes[i] != cb.Outcomes[i] {
					t.Fatalf("%s/%s outcome %d differs", d, s, i)
				}
			}
		}
	}
}

func TestRunEvaluationInvalidOptions(t *testing.T) {
	bad := tinyOptions()
	bad.Trials = 0
	if _, err := RunEvaluation(bad); err == nil {
		t.Error("invalid options should error")
	}
}

func TestGenerateFig3(t *testing.T) {
	opts := tinyOptions()
	f, err := GenerateFig3(opts, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Actual) != 336 || len(f.Attack1B) != 336 || len(f.Attack2A) != 336 || len(f.Attack3A) != 336 {
		t.Fatal("all series must be full weeks")
	}
	// 1B over-reports on average; 2A under-reports on average.
	var sumActual, sum1B, sum2A float64
	for i := range f.Actual {
		sumActual += f.Actual[i]
		sum1B += f.Attack1B[i]
		sum2A += f.Attack2A[i]
	}
	if sum1B <= sumActual {
		t.Errorf("1B attack total %g should exceed actual %g", sum1B, sumActual)
	}
	if sum2A >= sumActual {
		t.Errorf("2A attack total %g should be below actual %g", sum2A, sumActual)
	}
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "slot,actual_kw") {
		t.Error("CSV header missing")
	}
	if got := strings.Count(buf.String(), "\n"); got != 337 {
		t.Errorf("CSV lines = %d, want 337", got)
	}
	if _, err := GenerateFig3(opts, 99999); err == nil {
		t.Error("unknown consumer should error")
	}
}

func TestGenerateFig4(t *testing.T) {
	opts := tinyOptions()
	f, err := GenerateFig4(opts, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.BinEdges) != 11 || len(f.XDistribution) != 10 {
		t.Fatalf("bin structure wrong: %d edges, %d probs", len(f.BinEdges), len(f.XDistribution))
	}
	// Distributions sum to 1.
	for name, dist := range map[string][]float64{
		"X": f.XDistribution, "Xi": f.XiDistribution, "attack": f.AttackDistribution,
	} {
		var sum float64
		for _, p := range dist {
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s distribution sums to %g", name, sum)
		}
	}
	// The paper's headline figure property: the attack week's divergence
	// dwarfs the 95th percentile of the training KLD distribution.
	if f.AttackKLD <= f.Pct95 {
		t.Errorf("attack KLD %g should exceed the 95th percentile %g", f.AttackKLD, f.Pct95)
	}
	if f.Pct90 > f.Pct95 {
		t.Error("90th percentile cannot exceed 95th")
	}
	if len(f.TrainKLDs) != opts.TrainWeeks {
		t.Errorf("train KLDs = %d, want %d", len(f.TrainKLDs), opts.TrainWeeks)
	}
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "attack_kld") {
		t.Error("CSV should embed the Fig. 4(b) data")
	}
	// Default bins.
	f2, err := GenerateFig4(opts, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.XDistribution) != 10 {
		t.Error("bins should default to 10")
	}
}

func TestValidateDataset(t *testing.T) {
	cfg := dataset.Config{Residential: 30, Weeks: 6, Seed: 3}
	rep, err := ValidateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Consumers != 30 || rep.Weeks != 6 {
		t.Error("report counts wrong")
	}
	// The Section VIII-B3 regime: the overwhelming majority of consumers
	// are peak-heavy under the Nightsaver window.
	if rep.PeakHeavyFraction < 0.85 {
		t.Errorf("peak-heavy fraction = %g, want >= 0.85 (paper: 0.944)", rep.PeakHeavyFraction)
	}
	if rep.MeanDemandKW <= 0 || rep.TotalEnergyKWh <= 0 {
		t.Error("scale statistics should be positive")
	}
	if _, err := ValidateDataset(dataset.Config{}); err == nil {
		t.Error("invalid config should error")
	}
}

func TestBinSweep(t *testing.T) {
	opts := tinyOptions()
	points, err := BinSweep(opts, []int{4, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.DetectionRate < 0 || p.DetectionRate > 1 || p.FalsePosRate < 0 || p.FalsePosRate > 1 {
			t.Errorf("bin %d rates out of range: %+v", p.Bins, p)
		}
		if p.SuccessRate > p.DetectionRate {
			t.Errorf("bin %d success cannot exceed detection", p.Bins)
		}
	}
	if _, err := BinSweep(opts, nil); err == nil {
		t.Error("empty bins should error")
	}
	if _, err := BinSweep(opts, []int{0}); err == nil {
		t.Error("invalid bin count should error")
	}
}

func TestTrainLengthSweep(t *testing.T) {
	opts := tinyOptions()
	points, err := TrainLengthSweep(opts, []int{8, 16, 22})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.SuccessRate < 0 || p.SuccessRate > 1 {
			t.Errorf("train %d success = %g", p.TrainWeeks, p.SuccessRate)
		}
	}
	if _, err := TrainLengthSweep(opts, nil); err == nil {
		t.Error("empty weeks should error")
	}
	if _, err := TrainLengthSweep(opts, []int{1}); err == nil {
		t.Error("too-short training should error")
	}
	if _, err := TrainLengthSweep(opts, []int{opts.Dataset.Weeks}); err == nil {
		t.Error("training length >= dataset weeks should error")
	}
}

func TestWorstIntegratedUsesAttackPackage(t *testing.T) {
	// Regression guard: the 1B/2A vectors produced by the evaluation must
	// satisfy the propositions they are built on.
	opts := tinyOptions()
	f, err := GenerateFig3(opts, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var over, under bool
	for i, v := range f.Actual {
		over = over || f.Attack1B[i] > v
		under = under || f.Attack2A[i] < v
	}
	if !over {
		t.Error("1B vector must over-report somewhere (Prop. 2)")
	}
	if !under {
		t.Error("2A vector must under-report somewhere (Prop. 1)")
	}
}
