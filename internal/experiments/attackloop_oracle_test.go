package experiments

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/pricing"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// oracleTrial is one trial of the reference attack loop.
type oracleTrial struct {
	vec     timeseries.Series
	verdict detect.Verdict
	profit  float64
}

// oracleWorstIntegrated is the attack loop in its plainest form: every
// trial builds a fresh math/rand source for its stream, allocates its
// vector through IntegratedARIMAAttack, prices it with pricing's own profit
// functions and is judged by a second, independent replay (det.Detect).
// The selection keeps the best evading trial, else the first
// minimum-score one.
func oracleWorstIntegrated(t *testing.T, det *detect.IntegratedARIMADetector, dir attack.Direction,
	trials int, base int64, normalWeek timeseries.Series, opts Options, attackStart timeseries.Slot) (timeseries.Series, float64, []oracleTrial) {
	t.Helper()
	var all []oracleTrial
	var bestEvading, leastSuspicious timeseries.Series
	bestProfit, minScore, fallbackProfit := math.Inf(-1), math.Inf(1), 0.0
	for trial := 0; trial < trials; trial++ {
		vec, err := attack.IntegratedARIMAAttack(det, dir, attack.IntegratedARIMAConfig{},
			rand.New(rand.NewSource(stats.SplitSeed(base, int64(trial)))))
		if err != nil {
			t.Fatal(err)
		}
		var p float64
		if dir == attack.Up {
			p, err = pricing.NeighbourLoss(opts.Scheme, normalWeek, vec, attackStart)
		} else {
			p, err = pricing.Profit(opts.Scheme, normalWeek, vec, attackStart)
		}
		if err != nil {
			t.Fatal(err)
		}
		v, err := det.Detect(vec)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, oracleTrial{vec: vec, verdict: v, profit: p})
		if !v.Anomalous && p > bestProfit {
			bestProfit, bestEvading = p, vec
		}
		if v.Score < minScore {
			minScore, leastSuspicious, fallbackProfit = v.Score, vec, p
		}
	}
	if bestEvading != nil {
		return bestEvading, bestProfit, all
	}
	return leastSuspicious, fallbackProfit, all
}

func sameBits(a, b timeseries.Series) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// collapsedSlots replays the replica's tracker over a week and counts the
// slots whose interval is empty (hi <= lo), where the attack pads the
// truncation bound.
func collapsedSlots(t *testing.T, det *detect.IntegratedARIMADetector, week timeseries.Series) int {
	t.Helper()
	tr, err := det.Inner().Tracker()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, v := range week {
		if lo, hi := tr.Bounds(); hi <= lo {
			n++
		}
		tr.Observe(v)
	}
	return n
}

// TestWorstIntegratedMatchesOracle checks the production attack loop —
// reseeded source, two reused buffers, the verdict taken from the
// generating replay, the normal week's bill computed once — against the
// reference loop bit for bit: every trial's vector, profit and verdict,
// and the selected vector and its profit, for every quick-protocol
// consumer in both directions plus a constant-history consumer whose
// confidence interval collapses on every slot.
func TestWorstIntegratedMatchesOracle(t *testing.T) {
	opts := QuickOptions()
	ds, err := dataset.Generate(opts.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	consumers := ds.Consumers
	constant := dataset.Consumer{ID: 9999, Demand: make(timeseries.Series, len(consumers[0].Demand))}
	for i := range constant.Demand {
		constant.Demand[i] = 0.75
	}
	consumers = append(consumers, constant)
	need := make([]bool, len(consumers))
	for i := range need {
		need[i] = true
	}
	trained, _, err := trainConsumers(consumers, need, opts, 2)
	if err != nil {
		t.Fatal(err)
	}

	checked, collapsed := 0, 0
	for ci := range consumers {
		tc := &trained[ci]
		if tc.err != nil {
			// The constant consumer's KLD rows cannot train; its ARIMA
			// rows can, and they are all this test needs.
			det, err := detect.NewIntegratedARIMADetector(tc.train, detect.IntegratedARIMAConfig{})
			if err != nil {
				t.Fatalf("consumer %d: %v (suite: %v)", consumers[ci].ID, err, tc.err)
			}
			checkOracle(t, det, tc, consumers[ci].ID, opts, &collapsed)
			checked++
			continue
		}
		checkOracle(t, tc.suite.Integrated(), tc, consumers[ci].ID, opts, &collapsed)
		checked++
	}
	if checked < 21 {
		t.Fatalf("checked %d consumers, want >= 21", checked)
	}
	if collapsed == 0 {
		t.Fatal("no trial hit a collapsed interval; the padded slot is untested")
	}
}

func checkOracle(t *testing.T, det *detect.IntegratedARIMADetector, tc *trainedConsumer, id int, opts Options, collapsed *int) {
	t.Helper()
	normalWeek := tc.test.MustWeek(0)
	attackStart := timeseries.Slot(len(tc.train))
	normalBill := pricing.Bill(opts.Scheme, normalWeek, attackStart)
	profits := map[attack.Direction]func(timeseries.Series) (float64, error){
		attack.Up: func(v timeseries.Series) (float64, error) {
			return pricing.Bill(opts.Scheme, v, attackStart) - normalBill, nil
		},
		attack.Down: func(v timeseries.Series) (float64, error) {
			return normalBill - pricing.Bill(opts.Scheme, v, attackStart), nil
		},
	}
	for _, dir := range []attack.Direction{attack.Up, attack.Down} {
		base := stats.SplitRand(opts.Seed, int64(id)).Int63()
		want, wantProfit, trials := oracleWorstIntegrated(t, det, dir, opts.Trials, base, normalWeek, opts, attackStart)

		rng := stats.NewRand(0)
		var buf timeseries.Series
		for i, o := range trials {
			rng.Seed(stats.SplitSeed(base, int64(i)))
			vec, v, err := attack.IntegratedARIMATrial(det, dir, attack.IntegratedARIMAConfig{}, rng, buf)
			if err != nil {
				t.Fatal(err)
			}
			p, _ := profits[dir](vec)
			if !sameBits(vec, o.vec) || v != o.verdict || math.Float64bits(p) != math.Float64bits(o.profit) {
				t.Fatalf("consumer %d %v trial %d: (profit %v, %+v) differs from oracle (profit %v, %+v)",
					id, dir, i, p, v, o.profit, o.verdict)
			}
			*collapsed += collapsedSlots(t, det, vec)
			buf = vec
		}

		got, err := worstIntegrated(det, dir, opts, fixedInt63(base), profits[dir])
		if err != nil {
			t.Fatal(err)
		}
		gotProfit, _ := profits[dir](got)
		if !sameBits(got, want) || math.Float64bits(gotProfit) != math.Float64bits(wantProfit) {
			t.Fatalf("consumer %d %v: selected vector (profit %v) differs from oracle (profit %v)",
				id, dir, gotProfit, wantProfit)
		}
	}
}

// fixedInt63 hands worstIntegrated a chosen base seed.
type fixedInt63 int64

func (f fixedInt63) Int63() int64 { return int64(f) }
