package attack

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/adr"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/pricing"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

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

// isTheft evaluates the attack condition (Eq. 1): the attacker profits when
// the price-weighted sum of under-reported demand is positive.
func isTheft(s pricing.Scheme, actual, reported timeseries.Series, start timeseries.Slot) (bool, error) {
	p, err := pricing.Profit(s, actual, reported, start)
	if err != nil {
		return false, err
	}
	return p > 0, nil
}

func TestClassStrings(t *testing.T) {
	want := []string{"1A", "2A", "3A", "1B", "2B", "3B", "4B"}
	for i, c := range Classes() {
		if c.String() != want[i] {
			t.Errorf("class %d String = %q, want %q", i, c.String(), want[i])
		}
	}
	if !strings.Contains(Class(99).String(), "99") {
		t.Error("unknown class should include value")
	}
	if Up.String() != "up" || Down.String() != "down" || !strings.Contains(Direction(9).String(), "9") {
		t.Error("direction strings wrong")
	}
}

func TestTableIPredicates(t *testing.T) {
	// Row 5 of Table I, in class order 1A 2A 3A 1B 2B 3B 4B.
	adrReq := []bool{false, false, false, false, false, false, true}
	for i, c := range Classes() {
		if c.RequiresADR() != adrReq[i] {
			t.Errorf("%v RequiresADR = %v, want %v", c, c.RequiresADR(), adrReq[i])
		}
	}
}

// Victim reports whether abnormal readings under this class appear on a
// victimized neighbour's meter (true) or on the attacker's own meter
// (false). Class 1B over-reports neighbours while the attacker's own
// readings stay normal (Section VII-B).
func (c Class) Victim() bool {
	switch c {
	case Class1B, Class4B:
		return true
	default:
		return false
	}
}

func TestVictimLabels(t *testing.T) {
	// Section VII-B: abnormally high readings mark a victim (1B); abnormally
	// low mark the attacker (2A/2B).
	if !Class1B.Victim() || !Class4B.Victim() {
		t.Error("1B and 4B anomalies appear on the victim")
	}
	if Class2A.Victim() || Class2B.Victim() || Class3A.Victim() {
		t.Error("2A/2B/3A anomalies appear on the attacker")
	}
}

// UnderReportsSomewhere checks the necessary condition of Proposition 1:
// ∃t with D'(t) < D(t). Any profitable theft must satisfy it.
func UnderReportsSomewhere(actual, reported timeseries.Series) (bool, error) {
	if len(actual) != len(reported) {
		return false, fmt.Errorf("attack: %w", timeseries.ErrLengthMismatch)
	}
	for i := range actual {
		if reported[i] < actual[i] {
			return true, nil
		}
	}
	return false, nil
}

// OverReportsSomewhere checks the necessary condition of Proposition 2 on a
// neighbour: ∃t with D'_n(t) > D_n(t).
func OverReportsSomewhere(actual, reported timeseries.Series) (bool, error) {
	if len(actual) != len(reported) {
		return false, fmt.Errorf("attack: %w", timeseries.ErrLengthMismatch)
	}
	for i := range actual {
		if reported[i] > actual[i] {
			return true, nil
		}
	}
	return false, nil
}

func TestPropositionCheckers(t *testing.T) {
	actual := timeseries.Series{2, 2}
	under := timeseries.Series{1, 2}
	over := timeseries.Series{3, 2}
	if got, _ := UnderReportsSomewhere(actual, under); !got {
		t.Error("under-report not detected")
	}
	if got, _ := UnderReportsSomewhere(actual, actual); got {
		t.Error("honest report flagged")
	}
	if got, _ := OverReportsSomewhere(actual, over); !got {
		t.Error("over-report not detected")
	}
	if _, err := UnderReportsSomewhere(actual, timeseries.Series{1}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := OverReportsSomewhere(actual, timeseries.Series{1}); err == nil {
		t.Error("length mismatch should error")
	}
	theft, err := isTheft(pricing.Flat{Rate: 0.2}, actual, under, 0)
	if err != nil || !theft {
		t.Error("under-reporting is theft under Eq. 1")
	}
	if _, err := isTheft(pricing.Flat{Rate: 0.2}, actual, timeseries.Series{1}, 0); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestInjectClass1A(t *testing.T) {
	_, test := testConsumer(t, 41, 8, 6)
	week := test.MustWeek(0)
	actual, reported, err := InjectClass1A(week, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Reported equals the typical pattern exactly.
	for i := range week {
		if reported[i] != week[i] {
			t.Fatal("reported must equal typical")
		}
		if math.Abs(actual[i]-3*week[i]) > 1e-12 {
			t.Fatal("actual must be scaled")
		}
	}
	// It is theft under any pricing scheme (Eq. 1) and satisfies Prop. 1.
	if theft, _ := isTheft(pricing.Nightsaver(), actual, reported, 0); !theft {
		t.Error("class 1A must be theft")
	}
	if u, _ := UnderReportsSomewhere(actual, reported); !u {
		t.Error("Proposition 1 violated")
	}
	if _, _, err := InjectClass1A(week, 1); err == nil {
		t.Error("factor <= 1 should error")
	}
	if _, _, err := InjectClass1A(week[:10], 2); err == nil {
		t.Error("short week should error")
	}
}

func TestARIMAAttackEvadesARIMADetector(t *testing.T) {
	train, _ := testConsumer(t, 42, 16, 14)
	det, err := detect.NewARIMADetector(train, detect.ARIMAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []Direction{Up, Down} {
		vec, err := ARIMAAttack(det, dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(vec) != timeseries.SlotsPerWeek {
			t.Fatal("attack vector must be a full week")
		}
		if err := vec.Validate(); err != nil {
			t.Fatalf("%v attack vector invalid: %v", dir, err)
		}
		v, err := det.Detect(vec)
		if err != nil {
			t.Fatal(err)
		}
		if v.Anomalous {
			t.Errorf("%v ARIMA attack must evade the ARIMA detector (score=%g, threshold=%g)",
				dir, v.Score, v.Threshold)
		}
	}
	if _, err := ARIMAAttack(det, Direction(0), 0); err == nil {
		t.Error("invalid direction should error")
	}
}

func TestARIMAAttackDirectionOrdering(t *testing.T) {
	train, _ := testConsumer(t, 43, 16, 14)
	det, err := detect.NewARIMADetector(train, detect.ARIMAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	up, _ := ARIMAAttack(det, Up, 0)
	down, _ := ARIMAAttack(det, Down, 0)
	var upSum, downSum float64
	for i := range up {
		upSum += up[i]
		downSum += down[i]
	}
	if upSum <= downSum {
		t.Errorf("Up attack total (%g) should exceed Down attack total (%g)", upSum, downSum)
	}
}

func TestIntegratedARIMAAttackEvadesIntegratedDetector(t *testing.T) {
	train, _ := testConsumer(t, 44, 20, 18)
	det, err := detect.NewIntegratedARIMADetector(train, detect.IntegratedARIMAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(1)
	evaded := 0
	const trials = 10
	for i := 0; i < trials; i++ {
		vec, err := IntegratedARIMAAttack(det, Up, IntegratedARIMAConfig{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		v, err := det.Detect(vec)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Anomalous {
			evaded++
		}
	}
	// The attack is designed to circumvent this detector (Section VIII-B1);
	// allow a rare trip from the stochastic draw.
	if evaded < trials*8/10 {
		t.Errorf("integrated ARIMA attack evaded only %d/%d trials", evaded, trials)
	}
}

func TestIntegratedARIMAAttackDetectedByKLD(t *testing.T) {
	train, _ := testConsumer(t, 45, 30, 28)
	det, err := detect.NewIntegratedARIMADetector(train, detect.IntegratedARIMAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	kld, err := detect.NewKLDDetector(train, detect.KLDConfig{Significance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(2)
	vec, err := IntegratedARIMAAttack(det, Up, IntegratedARIMAConfig{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	v, err := kld.Detect(vec)
	if err != nil {
		t.Fatal(err)
	}
	// This is the headline result of the paper: the KLD detector catches
	// what the Integrated ARIMA detector cannot.
	if !v.Anomalous {
		t.Errorf("KLD detector should flag the Integrated ARIMA attack (K=%g, threshold=%g)",
			v.Score, v.Threshold)
	}
}

func TestIntegratedARIMAAttackErrors(t *testing.T) {
	train, _ := testConsumer(t, 46, 8, 6)
	det, err := detect.NewIntegratedARIMADetector(train, detect.IntegratedARIMAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := IntegratedARIMAAttack(det, Up, IntegratedARIMAConfig{}, nil); err == nil {
		t.Error("nil rng should error")
	}
	if _, err := IntegratedARIMAAttack(det, Direction(0), IntegratedARIMAConfig{}, stats.NewRand(1)); err == nil {
		t.Error("invalid direction should error")
	}
}

func TestOptimalSwapPreservesMultiset(t *testing.T) {
	_, test := testConsumer(t, 47, 8, 6)
	week := test.MustWeek(0)
	scheme := pricing.Nightsaver()
	swapped, err := OptimalSwap(week, scheme)
	if err != nil {
		t.Fatal(err)
	}
	// Mean, variance, and full multiset are unchanged.
	if math.Abs(stats.Mean(swapped)-stats.Mean(week)) > 1e-12 {
		t.Error("swap must preserve the mean")
	}
	_, sdSwapped := stats.MeanStd(swapped)
	_, sdWeek := stats.MeanStd(week)
	if math.Abs(sdSwapped*sdSwapped-sdWeek*sdWeek) > 1e-9 {
		t.Error("swap must preserve the variance")
	}
	a := append([]float64(nil), week...)
	b := append([]float64(nil), swapped...)
	if stats.Percentile(a, 37) != stats.Percentile(b, 37) {
		t.Error("swap must preserve the multiset of readings")
	}
	if _, err := OptimalSwap(week[:5], scheme); err == nil {
		t.Error("short week should error")
	}
}

func TestOptimalSwapIsProfitable(t *testing.T) {
	_, test := testConsumer(t, 48, 8, 6)
	week := test.MustWeek(0)
	scheme := pricing.Nightsaver()
	swapped, err := OptimalSwap(week, scheme)
	if err != nil {
		t.Fatal(err)
	}
	// Profit from reporting the swapped ordering while consuming the real
	// one (Eq. 1 with variable prices): positive, but no energy stolen.
	profit, err := pricing.Profit(scheme, week, swapped, 0)
	if err != nil {
		t.Fatal(err)
	}
	if profit <= 0 {
		t.Errorf("optimal swap profit = %g, want > 0", profit)
	}
	net, _ := pricing.NetEnergyDelta(week, swapped)
	if math.Abs(net) > 1e-9 {
		t.Errorf("optimal swap must steal no net energy, got %g kWh", net)
	}
}

func TestOptimalSwapGeneral(t *testing.T) {
	_, test := testConsumer(t, 51, 8, 6)
	week := test.MustWeek(0)

	// Under an RTP trace the general swap is profitable and multiset-
	// preserving, like the TOU special case.
	rtp, err := pricing.GenerateRTP(pricing.DefaultMarketConfig(), timeseries.SlotsPerWeek)
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := OptimalSwapGeneral(week, rtp.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stats.Mean(swapped)-stats.Mean(week)) > 1e-12 {
		t.Error("general swap must preserve the mean")
	}
	profit, err := pricing.Profit(rtp, week, swapped, 0)
	if err != nil {
		t.Fatal(err)
	}
	if profit <= 0 {
		t.Errorf("RTP-tailored swap profit = %g, want > 0", profit)
	}

	// Under a flat price every assignment costs the same: zero profit
	// (the Table I 'N' cell for 3A under flat rate).
	flatPrices := make([]float64, timeseries.SlotsPerWeek)
	for i := range flatPrices {
		flatPrices[i] = 0.2
	}
	flatSwapped, err := OptimalSwapGeneral(week, flatPrices)
	if err != nil {
		t.Fatal(err)
	}
	flatProfit, err := pricing.Profit(pricing.Flat{Rate: 0.2}, week, flatSwapped, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(flatProfit) > 1e-9 {
		t.Errorf("flat-rate swap profit = %g, want 0", flatProfit)
	}

	// The general swap dominates (or matches) the TOU-window special case
	// under TOU prices: it solves the same assignment exactly.
	scheme := pricing.Nightsaver()
	touPrices := make([]float64, timeseries.SlotsPerWeek)
	for i := range touPrices {
		touPrices[i] = scheme.Price(timeseries.Slot(i))
	}
	genSwap, err := OptimalSwapGeneral(week, touPrices)
	if err != nil {
		t.Fatal(err)
	}
	winSwap, err := OptimalSwap(week, scheme)
	if err != nil {
		t.Fatal(err)
	}
	genProfit, _ := pricing.Profit(scheme, week, genSwap, 0)
	winProfit, _ := pricing.Profit(scheme, week, winSwap, 0)
	if genProfit < winProfit-1e-9 {
		t.Errorf("general swap profit %g should match or beat window swap %g", genProfit, winProfit)
	}

	// Errors.
	if _, err := OptimalSwapGeneral(week[:5], touPrices); err == nil {
		t.Error("short week should error")
	}
	if _, err := OptimalSwapGeneral(week, touPrices[:5]); err == nil {
		t.Error("short price trace should error")
	}
}

func TestWorstCaseEvading(t *testing.T) {
	// Detector flags everything above 5: the best evading trial is 5.
	gen := func(flag func(float64) bool) func(int, timeseries.Series) (timeseries.Series, detect.Verdict, error) {
		return func(i int, buf timeseries.Series) (timeseries.Series, detect.Verdict, error) {
			v := append(buf[:0], float64(i))
			return v, detect.Verdict{Anomalous: flag(v[0]), Score: v[0]}, nil
		}
	}
	profit := func(v timeseries.Series) (float64, error) {
		return v[0], nil // later trials more profitable
	}
	above5 := gen(func(x float64) bool { return x > 5 })
	best, p, err := WorstCaseEvading(10, above5, profit)
	if err != nil {
		t.Fatal(err)
	}
	if best[0] != 5 || p != 5 {
		t.Errorf("best = %v profit %g, want trial 5", best, p)
	}
	// Everything flagged: fall back to the least suspicious (min score).
	flagAll := gen(func(float64) bool { return true })
	best, p, err = WorstCaseEvading(10, flagAll, profit)
	if err != nil {
		t.Fatal(err)
	}
	if best[0] != 0 || p != 0 {
		t.Errorf("fallback should pick min-score trial 0, got %v profit %g", best, p)
	}
	// Profit peaking mid-run with nothing flagged: the maximum wins even
	// though later trials overwrite the spare buffer.
	peak := func(v timeseries.Series) (float64, error) {
		d := v[0] - 3
		return 10 - d*d, nil
	}
	best, p, err = WorstCaseEvading(10, gen(func(float64) bool { return false }), peak)
	if err != nil {
		t.Fatal(err)
	}
	if best[0] != 3 || p != 10 {
		t.Errorf("best = %v profit %g, want [3] 10", best, p)
	}
	if _, _, err := WorstCaseEvading(0, above5, profit); err == nil {
		t.Error("zero trials should error")
	}
}

// TestWorstCaseEvadingReusesTwoBuffers checks that a generator filling the
// buffer it is handed costs two vectors per call, however many trials run.
func TestWorstCaseEvadingReusesTwoBuffers(t *testing.T) {
	seen := map[*float64]bool{}
	gen := func(i int, buf timeseries.Series) (timeseries.Series, detect.Verdict, error) {
		if cap(buf) < 4 {
			buf = make(timeseries.Series, 4)
		}
		buf = buf[:4]
		seen[&buf[0]] = true
		for j := range buf {
			buf[j] = float64(i*7%11 + j)
		}
		return buf, detect.Verdict{Anomalous: i%3 == 0, Score: float64(i)}, nil
	}
	best, p, err := WorstCaseEvading(50, gen, func(v timeseries.Series) (float64, error) { return v[0], nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Errorf("trials used %d buffers, want 2", len(seen))
	}
	// i*7%11 peaks at 10 for i = 3 (flagged), 14 (evading), ...
	if p != 10 || best[0] != 10 || best[3] != 13 {
		t.Errorf("best = %v profit %g, want the first evading trial at 10", best, p)
	}
}

// TestIntegratedARIMATrialMatchesDetect checks the in-replay self-check:
// every trial's vector equals IntegratedARIMAAttack's from the same stream,
// and its verdict equals Detect's, including for a detector whose interval
// collapses so the truncation bound is padded.
func TestIntegratedARIMATrialMatchesDetect(t *testing.T) {
	train, _ := testConsumer(t, 52, 12, 10)
	flat := make(timeseries.Series, len(train))
	for i := range flat {
		flat[i] = 1.5
	}
	for name, series := range map[string]timeseries.Series{"consumer": train, "constant": flat} {
		det, err := detect.NewIntegratedARIMADetector(series, detect.IntegratedARIMAConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var buf timeseries.Series
		for _, dir := range []Direction{Up, Down} {
			for seed := int64(0); seed < 6; seed++ {
				want, err := IntegratedARIMAAttack(det, dir, IntegratedARIMAConfig{}, stats.NewRand(seed))
				if err != nil {
					t.Fatal(err)
				}
				wantV, err := det.Detect(want)
				if err != nil {
					t.Fatal(err)
				}
				got, gotV, err := IntegratedARIMATrial(det, dir, IntegratedARIMAConfig{}, stats.NewRand(seed), buf)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s %v seed %d: slot %d = %v, want %v", name, dir, seed, i, got[i], want[i])
					}
				}
				if gotV != wantV {
					t.Fatalf("%s %v seed %d: verdict %+v, want %+v", name, dir, seed, gotV, wantV)
				}
				buf = got
			}
		}
	}
	if _, _, err := IntegratedARIMATrial(nil, Up, IntegratedARIMAConfig{}, nil, nil); err == nil {
		t.Error("nil rng should error")
	}
}

func TestInjectClass4B(t *testing.T) {
	_, test := testConsumer(t, 49, 8, 6)
	victimBase := test.MustWeek(0)
	attackerTypical := test.MustWeek(1)
	rtp, err := pricing.GenerateRTP(pricing.DefaultMarketConfig(), timeseries.SlotsPerWeek)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := adr.NewElasticConsumer(-0.5, 0.195, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := InjectClass4B(victimBase, attackerTypical, rtp.Trace, victim, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("class 4B invariants: %v", err)
	}
	// The victim perceives a benefit (Eq. 11) despite losing L_n (Eq. 10).
	db, err := pricing.PerceivedBenefit(rtp, res.SpoofedPrices, res.VictimReported, 0)
	if err != nil {
		t.Fatal(err)
	}
	if db <= 0 {
		t.Errorf("ΔB = %g, want > 0 (victim believes he benefited)", db)
	}
	loss, err := pricing.NeighbourLoss(rtp, res.VictimActual, res.VictimReported, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 {
		t.Errorf("L_n = %g, want > 0 (victim actually lost)", loss)
	}
	// The attacker profits (Eq. 1).
	profit, err := pricing.Profit(rtp, res.AttackerActual, res.AttackerReported, 0)
	if err != nil {
		t.Fatal(err)
	}
	if profit <= 0 {
		t.Errorf("attacker profit = %g, want > 0", profit)
	}
}

func TestInjectClass4BErrors(t *testing.T) {
	victim, _ := adr.NewElasticConsumer(-0.5, 0.195, 0.7)
	week := make(timeseries.Series, timeseries.SlotsPerWeek)
	short := make(timeseries.Series, 5)
	prices := make([]float64, timeseries.SlotsPerWeek)
	for i := range prices {
		prices[i] = 0.2
	}
	if _, err := InjectClass4B(short, week, prices, victim, 1.5); err == nil {
		t.Error("short victim week should error")
	}
	if _, err := InjectClass4B(week, week, prices[:5], victim, 1.5); err == nil {
		t.Error("short price trace should error")
	}
	if _, err := InjectClass4B(week, week, prices, victim, 1); err == nil {
		t.Error("non-inflating spoof factor should error")
	}
}

func TestIntegratedAttackBalancedPairPassesBalanceCheck(t *testing.T) {
	// Full Class 2B story: Mallory under-reports herself and over-reports a
	// neighbour by the same amount; the aggregate matches.
	train, test := testConsumer(t, 50, 20, 18)
	det, err := detect.NewIntegratedARIMADetector(train, detect.IntegratedARIMAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(3)
	mallReported, err := IntegratedARIMAAttack(det, Down, IntegratedARIMAConfig{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	mallActual := test.MustWeek(0)
	neighActual := test.MustWeek(1)
	stolen, err := mallActual.Sub(mallReported)
	if err != nil {
		t.Fatal(err)
	}
	// Over-report the neighbour by exactly the stolen profile (clamped).
	neighReported := make(timeseries.Series, len(neighActual))
	for i := range neighReported {
		d := stolen[i]
		if d < 0 {
			d = 0
		}
		neighReported[i] = neighActual[i] + d
	}
	var totActual, totReported float64
	for i := range mallActual {
		totActual += mallActual[i] + neighActual[i]
		totReported += mallReported[i] + neighReported[i]
	}
	// Wherever Mallory under-reported, the neighbour absorbs it; slots where
	// the attack over-reported Mallory break exact equality, so compare the
	// under-reported mass only.
	if u, _ := UnderReportsSomewhere(mallActual, mallReported); !u {
		t.Fatal("attack should under-report somewhere (Prop. 1)")
	}
	if o, _ := OverReportsSomewhere(neighActual, neighReported); !o {
		t.Fatal("neighbour should be over-reported somewhere (Prop. 2)")
	}
	if totReported < totActual-1e-9 {
		t.Error("aggregate reported should not fall below aggregate actual after balancing")
	}
}
