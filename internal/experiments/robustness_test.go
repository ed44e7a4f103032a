package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fault"
)

// quickRobustOptions is the smallest protocol that exercises every code
// path under test here.
func quickRobustOptions() Options {
	opts := QuickOptions()
	opts.MaxConsumers = 5
	opts.Trials = 2
	return opts
}

func cellsOf(t *testing.T, ev *Evaluation) map[DetectorID]map[Scenario][]ConsumerOutcome {
	t.Helper()
	out := make(map[DetectorID]map[Scenario][]ConsumerOutcome)
	for _, d := range DetectorIDs() {
		out[d] = make(map[Scenario][]ConsumerOutcome)
		for _, s := range Scenarios() {
			cell, err := ev.Cell(d, s)
			if err != nil {
				t.Fatal(err)
			}
			out[d][s] = cell.Outcomes
		}
	}
	return out
}

// TestRunEvaluationQuarantinesPanic is the headline crash-safety
// regression: a detector panicking for one consumer must not crash the
// run; the offending consumer is quarantined and everyone else's outcomes
// are unaffected — deterministically, at any parallelism.
func TestRunEvaluationQuarantinesPanic(t *testing.T) {
	opts := quickRobustOptions()
	clean, err := RunEvaluation(opts)
	if err != nil {
		t.Fatal(err)
	}
	victimID := clean.cells[DetARIMA][Scen1B].Outcomes[2].ConsumerID

	evalHook = func(c *dataset.Consumer) {
		if c.ID == victimID {
			panic(fmt.Sprintf("synthetic detector crash for consumer %d", c.ID))
		}
	}
	defer func() { evalHook = nil }()

	for _, par := range []int{1, 4, 8} {
		opts := quickRobustOptions()
		opts.Parallelism = par
		ev, err := RunEvaluation(opts)
		if err != nil {
			t.Fatalf("parallelism %d: a panicking consumer must not fail the run: %v", par, err)
		}
		if len(ev.Quarantined) != 1 || ev.Quarantined[0].ConsumerID != victimID {
			t.Fatalf("parallelism %d: Quarantined = %+v, want exactly consumer %d", par, ev.Quarantined, victimID)
		}
		if q := ev.Quarantined[0]; q.Err == "" {
			t.Errorf("parallelism %d: quarantine must carry the panic message, got %+v", par, q)
		}
		if ev.Consumers != clean.Consumers-1 {
			t.Errorf("parallelism %d: Consumers = %d, want %d", par, ev.Consumers, clean.Consumers-1)
		}
		for _, d := range DetectorIDs() {
			for _, s := range Scenarios() {
				cell, err := ev.Cell(d, s)
				if err != nil {
					t.Fatal(err)
				}
				var want []ConsumerOutcome
				for _, o := range clean.cells[d][s].Outcomes {
					if o.ConsumerID != victimID {
						want = append(want, o)
					}
				}
				if !reflect.DeepEqual(cell.Outcomes, want) {
					t.Errorf("parallelism %d: %s/%s outcomes changed for the surviving consumers", par, d, s)
				}
			}
		}
	}
}

// TestRunEvaluationStrictFailsFast: Strict restores the historic
// first-error-aborts behaviour.
func TestRunEvaluationStrictFailsFast(t *testing.T) {
	opts := quickRobustOptions()
	clean, err := RunEvaluation(opts)
	if err != nil {
		t.Fatal(err)
	}
	victimID := clean.cells[DetARIMA][Scen1B].Outcomes[0].ConsumerID
	evalHook = func(c *dataset.Consumer) {
		if c.ID == victimID {
			panic("synthetic crash")
		}
	}
	defer func() { evalHook = nil }()

	opts.Strict = true
	if _, err := RunEvaluation(opts); err == nil {
		t.Fatal("strict mode must surface the panic as an error")
	}
}

// TestRunEvaluationAllQuarantinedFails: when no consumer survives, the run
// must error rather than return an empty table.
func TestRunEvaluationAllQuarantinedFails(t *testing.T) {
	evalHook = func(c *dataset.Consumer) { panic("everything is broken") }
	defer func() { evalHook = nil }()
	opts := quickRobustOptions()
	if _, err := RunEvaluation(opts); err == nil {
		t.Fatal("a run with every consumer quarantined must fail")
	}
}

// TestRunEvaluationCheckpointResume simulates a crash-and-restart: a run
// that dies halfway leaves a checkpoint from which a second run resumes,
// and the resumed tables are identical to an uninterrupted run's.
func TestRunEvaluationCheckpointResume(t *testing.T) {
	opts := quickRobustOptions()
	clean, err := RunEvaluation(opts)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "eval.ckpt")
	opts.Checkpoint = ckpt
	opts.Parallelism = 1

	// First run "crashes" after three consumers: the hook kills the process
	// from the inside by panicking outside the recovery boundary — here we
	// approximate it by erroring out via strict mode once three consumers
	// are checkpointed.
	seen := 0
	evalHook = func(c *dataset.Consumer) {
		seen++
		if seen > 3 {
			panic("simulated crash")
		}
	}
	opts.Strict = true
	if _, err := RunEvaluation(opts); err == nil {
		t.Fatal("the interrupted run should fail")
	}
	evalHook = nil

	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("the interrupted run must leave a checkpoint: %v", err)
	}
	if len(raw) == 0 {
		t.Fatal("checkpoint is empty")
	}

	// Resume without the hook (and in default mode): only the remaining
	// consumers are evaluated, and the final tables match the clean run.
	opts.Strict = false
	resumed, err := RunEvaluation(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Quarantined) != 0 {
		t.Fatalf("resumed run quarantined %+v", resumed.Quarantined)
	}
	if !reflect.DeepEqual(cellsOf(t, resumed), cellsOf(t, clean)) {
		t.Error("resumed tables differ from an uninterrupted run")
	}

	// A third run resumes a complete checkpoint: everything is served from
	// the file and the result is again identical.
	evalHook = func(c *dataset.Consumer) { panic("nothing should be re-evaluated") }
	defer func() { evalHook = nil }()
	again, err := RunEvaluation(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cellsOf(t, again), cellsOf(t, clean)) {
		t.Error("fully-resumed tables differ from an uninterrupted run")
	}
}

// TestRunEvaluationCheckpointFingerprintMismatch: changing any
// result-affecting option discards the old checkpoint instead of mixing
// incompatible results.
func TestRunEvaluationCheckpointFingerprintMismatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "eval.ckpt")
	opts := quickRobustOptions()
	opts.Checkpoint = ckpt
	if _, err := RunEvaluation(opts); err != nil {
		t.Fatal(err)
	}
	// Different seed → different attack draws → stale checkpoint.
	opts.Seed++
	ev, err := RunEvaluation(opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh := opts
	fresh.Checkpoint = ""
	want, err := RunEvaluation(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cellsOf(t, ev), cellsOf(t, want)) {
		t.Error("a stale checkpoint must be discarded, not resumed")
	}
}

// TestRunEvaluationFaultFreeBitIdentical: a zero fault plan and zero
// quality policy must not perturb the tables in any way.
func TestRunEvaluationFaultFreeBitIdentical(t *testing.T) {
	opts := quickRobustOptions()
	a, err := RunEvaluation(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Fault = fault.Plan{Seed: 99} // enabled=false: no scenarios
	b, err := RunEvaluation(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cellsOf(t, a), cellsOf(t, b)) {
		t.Error("a disabled fault plan changed the results")
	}
}

// mustParseFaults parses a fault spec the test compiles in.
func mustParseFaults(t *testing.T, spec string) []fault.Scenario {
	t.Helper()
	sc, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestRunEvaluationWithFaultsDeterministic: fault injection preserves the
// parallelism-independence contract.
func TestRunEvaluationWithFaultsDeterministic(t *testing.T) {
	base := quickRobustOptions()
	base.Fault = fault.Plan{
		Seed:      4242,
		Scenarios: mustParseFaults(t, "dropout:0.1+spike:0.01"),
		FromWeek:  base.TrainWeeks,
	}
	serial := base
	serial.Parallelism = 1
	a, err := RunEvaluation(serial)
	if err != nil {
		t.Fatal(err)
	}
	parallel := base
	parallel.Parallelism = 8
	b, err := RunEvaluation(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cellsOf(t, a), cellsOf(t, b)) {
		t.Error("faulted evaluation depends on parallelism")
	}
}

// TestRunEvaluationHeavyFaultsGoInconclusive: drop far more than the
// coverage gate tolerates and no detector may return a definite verdict.
func TestRunEvaluationHeavyFaultsGoInconclusive(t *testing.T) {
	opts := quickRobustOptions()
	opts.Fault = fault.Plan{
		Seed:      7,
		Scenarios: mustParseFaults(t, "dropout:0.5"),
		FromWeek:  opts.TrainWeeks,
	}
	ev, err := RunEvaluation(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range DetectorIDs() {
		for _, s := range Scenarios() {
			cell, err := ev.Cell(d, s)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range cell.Outcomes {
				if !o.Inconclusive {
					t.Errorf("%s/%s consumer %d: 50%% dropout is far below the gate, verdict must be inconclusive", d, s, o.ConsumerID)
				}
				if o.Detected {
					t.Errorf("%s/%s consumer %d: inconclusive outcome cannot claim detection", d, s, o.ConsumerID)
				}
			}
		}
	}
}

// TestRunFaultSweep: the degradation curve exists, starts at the
// fault-free tables, and degrades (weakly) as data goes missing.
func TestRunFaultSweep(t *testing.T) {
	opts := quickRobustOptions()
	res, err := RunFaultSweep(opts, []float64{0.4, 0, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(res.Points))
	}
	if res.Points[0].Rate != 0 || res.Points[1].Rate != 0.1 || res.Points[2].Rate != 0.4 {
		t.Fatalf("points must be sorted by rate: %+v", res.Points)
	}

	clean, err := RunEvaluation(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range DetectorIDs() {
		for _, s := range Scenarios() {
			cell, err := clean.Cell(d, s)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Points[0].DetectionRate[d][s]; got != cell.DetectionRate() {
				t.Errorf("%s/%s: rate-0 point %.4f != fault-free metric %.4f", d, s, got, cell.DetectionRate())
			}
		}
	}
	if res.Points[0].InconclusiveFrac != 0 {
		t.Errorf("rate-0 inconclusive fraction = %g, want 0", res.Points[0].InconclusiveFrac)
	}
	if res.Points[2].InconclusiveFrac <= res.Points[0].InconclusiveFrac {
		t.Errorf("40%% dropout should gate some verdicts: inconclusive fraction %g", res.Points[2].InconclusiveFrac)
	}

	// Reproducibility: the same sweep again is identical.
	res2, err := RunFaultSweep(opts, []float64{0, 0.1, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Points, res2.Points) {
		t.Error("fault sweep is not reproducible")
	}

	if _, err := RunFaultSweep(opts, nil); err == nil {
		t.Error("empty rate list should error")
	}
	if _, err := RunFaultSweep(opts, []float64{1.5}); err == nil {
		t.Error("out-of-range rate should error")
	}
}

// TestTrainConsumersQuarantinesTrainingFailure: a consumer whose detector
// suite cannot be trained carries a "detector suite: ..." error — the
// quarantine RunEvaluation records for it — while everyone else trains,
// and a consumer that does not need evaluating is neither split nor
// trained.
func TestTrainConsumersQuarantinesTrainingFailure(t *testing.T) {
	opts := quickRobustOptions()
	ds, err := dataset.Generate(opts.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	consumers := ds.Consumers[:4]
	const broken, skipped = 1, 2
	consumers[broken].Demand[5] = math.NaN() // inside the training split
	need := []bool{true, true, false, true}

	out, busy, err := trainConsumers(consumers, need, opts, 2)
	if err != nil {
		t.Fatalf("one untrainable consumer must not fail the population: %v", err)
	}
	if busy <= 0 {
		t.Errorf("busy = %g worker-seconds, want > 0", busy)
	}
	for i, tc := range out {
		switch i {
		case broken:
			if tc.suite != nil || tc.err == nil || !strings.HasPrefix(tc.err.Error(), "detector suite: ") {
				t.Errorf("broken consumer: suite %v, err %v; want no suite and a detector suite error", tc.suite, tc.err)
			}
		case skipped:
			if tc.suite != nil || tc.err != nil || tc.train != nil {
				t.Errorf("consumer %d needs no evaluation but was prepared: %+v", i, tc)
			}
		default:
			if tc.suite == nil || tc.err != nil {
				t.Errorf("consumer %d: suite %v, err %v", i, tc.suite, tc.err)
			}
		}
	}
}
