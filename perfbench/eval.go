package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/dataset"
	"repro/internal/experiments"
)

// paperE2E are the end-to-end metrics of the paper's evaluation, which
// every fleet pass runs once before its server is set up.
var paperE2E = []metricDef{
	{"eval_s", "s"},
	{"eval_cpu_s", "s"},
}

// paperLayer are the evaluation's per-layer metrics.
var paperLayer = []metricDef{
	{"experiments.train_cpu_s", "s"},
	{"experiments.attack_cpu_s", "s"},
	{"experiments.detect_cpu_s", "s"},
	{"experiments.worker_utilization", "share"},
	{"dataset.generate_s", "s"},
	{"runtime.alloc_bytes", "B"},
	{"runtime.eval_gc_cycles", "count"},
}

// runPaperEval times dataset.Generate(dataset.PaperConfig()) alone and then
// experiments.RunEvaluation(experiments.PaperOptions()) as a batch job,
// records their metrics on o, and checks the evaluation's Table II and
// Table III against the reference capture. It returns the two steps as
// spans.
func runPaperEval(o *outcome, cfg runConfig) ([]phase, error) {
	raw, err := os.ReadFile(cfg.golden)
	if err != nil {
		return nil, fmt.Errorf("reading the reference tables: %w", err)
	}
	want2, want3, err := goldenTables(string(raw))
	if err != nil {
		return nil, err
	}

	genStart := now()
	ds, err := dataset.Generate(dataset.PaperConfig())
	if err != nil {
		return nil, err
	}
	genEnd := now()
	if len(ds.Consumers) != 500 || ds.Weeks != 74 {
		return nil, fmt.Errorf("paper population has %d consumers over %d weeks, want 500 over 74",
			len(ds.Consumers), ds.Weeks)
	}
	runtime.GC()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, err := cpuNS()
	if err != nil {
		return nil, err
	}
	start := now()
	ev, err := experiments.RunEvaluation(experiments.PaperOptions())
	end := now()
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuNS()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	cfg.logf("paper evaluation: %.3f s wall, %.3f s CPU", float64(end-start)/1e9, float64(cpu1-cpu0)/1e9)

	o.e2e["eval_s"] = float64(end-start) / 1e9
	o.e2e["eval_cpu_s"] = float64(cpu1-cpu0) / 1e9
	sum := ev.Summary
	o.layer["experiments.train_cpu_s"] = sum.Stage.Train
	o.layer["experiments.attack_cpu_s"] = sum.Stage.Attack
	o.layer["experiments.detect_cpu_s"] = sum.Stage.Detect
	o.layer["experiments.worker_utilization"] = sum.WorkerUtilization
	o.layer["dataset.generate_s"] = float64(genEnd-genStart) / 1e9
	o.layer["runtime.alloc_bytes"] = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	o.layer["runtime.eval_gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	if n := len(ev.Quarantined); n > 0 {
		o.fail("paper evaluation quarantined %d of 500 consumers", n)
	}
	checkTables(o, ev, want2, want3)
	return []phase{{"dataset.generate", genStart, genEnd}, {"experiments.run_evaluation", start, end}}, nil
}

// checkTables is the evaluation oracle: the run's Table II and Table III
// equal the reference capture cell for cell.
func checkTables(o *outcome, ev *experiments.Evaluation, want2, want3 string) {
	got2, err := experiments.FormatTableII(ev)
	if err != nil {
		o.fail("formatting Table II: %v", err)
		return
	}
	got3, err := experiments.FormatTableIII(ev)
	if err != nil {
		o.fail("formatting Table III: %v", err)
		return
	}
	if d := diffLines(got2, want2); d != "" {
		o.fail("Table II differs from the reference: %s", d)
	}
	if d := diffLines(got3, want3); d != "" {
		o.fail("Table III differs from the reference: %s", d)
	}
}

// goldenTables cuts the Table II and Table III blocks out of a full-run
// capture: the lines after each "TABLE ...:" header up to the next blank
// line.
func goldenTables(capture string) (t2, t3 string, err error) {
	block := func(header string) (string, error) {
		i := strings.Index(capture, header+"\n")
		if i < 0 {
			return "", fmt.Errorf("reference capture has no %q block", header)
		}
		rest := capture[i+len(header)+1:]
		if j := strings.Index(rest, "\n\n"); j >= 0 {
			rest = rest[:j+1]
		}
		return rest, nil
	}
	if t2, err = block("TABLE II:"); err != nil {
		return "", "", err
	}
	if t3, err = block("TABLE III:"); err != nil {
		return "", "", err
	}
	return t2, t3, nil
}

// diffLines describes the first differing line of two tables, or returns
// "" when they are equal.
func diffLines(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = strings.TrimRight(g[i], " ")
		}
		if i < len(w) {
			wl = strings.TrimRight(w[i], " ")
		}
		if gl != wl {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return ""
}
