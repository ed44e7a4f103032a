package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the server child: the fleet
// workloads re-execute os.Executable(), which under `go test` is this
// binary.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == childArg {
		if err := childMain(os.Args[2], os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench server: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBench runs the benchmark in-process and decodes its last line.
func runBench(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
	}
	return res, stdout.String()
}

// checkResult asserts a correct run that reports exactly defs.
func checkResult(t *testing.T, res result, out string, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

// golden is the paper evaluation's reference capture, seen from this
// directory.
var golden = filepath.Join("..", "results", "full_run.txt")

// TestFleetWorkloads runs a one-second fleet of each kind, untraced and
// traced, each pass with its paper-scale evaluation, and checks every named
// metric, the table oracle, the overhead report and the span file.
func TestFleetWorkloads(t *testing.T) {
	for _, name := range []string{dailyFleet.name, intervalFleet.name} {
		t.Run(name, func(t *testing.T) {
			w := workloads()[name]
			dir := t.TempDir()
			res, out := runBench(t, "--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0", "--out", dir, "--golden", golden)
			checkResult(t, res, out, w.e2e)
			for _, d := range w.e2e {
				if d.name != "setup_s" && res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, res.Metrics[d.name].Value)
				}
			}

			res, out = runBench(t, "--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1", "--out", dir, "--golden", golden)
			checkResult(t, res, out, w.layerMetrics())
			if res.Metrics["serve.alerts_high"].Value < 1 || res.Metrics["detect.observes"].Value < 1 {
				t.Errorf("traced run saw no alerts or observations:\n%s", out)
			}
			var rep overheadReport
			b, err := os.ReadFile(filepath.Join(dir, "overhead-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &rep); err != nil || len(rep.Metrics) != len(w.e2e) {
				t.Fatalf("overhead report: err=%v, %d metrics, want %d", err, len(rep.Metrics), len(w.e2e))
			}
			checkSpans(t, filepath.Join(dir, "spans-"+name+".csv"))
		})
	}
}

// checkSpans asserts the span file's header, field count, and that every
// layer boundary appears.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() || sc.Text()+"\n" != spanHeader {
		t.Fatalf("span file header = %q", sc.Text())
	}
	seen := map[string]bool{}
	for sc.Scan() {
		fields := strings.Split(sc.Text(), ",")
		if len(fields) != 7 {
			t.Fatalf("span line %q has %d fields, want 7", sc.Text(), len(fields))
		}
		seen[fields[1]] = true
	}
	for _, name := range []string{"dataset.generate", "experiments.run_evaluation",
		"setup.generate", "setup.train", "setup.register", "setup.listen", "gen.frame", "ami.bind",
		"ami.send", "serve.sink", "detect.observe", "serve.alert_write"} {
		if !seen[name] {
			t.Errorf("no %s span", name)
		}
	}
}

// TestPeakRSSReset checks the peak RSS falls back after a reset: the
// server's peak is measured over the timed phase only.
func TestPeakRSSReset(t *testing.T) {
	big := make([]byte, 64<<20)
	for i := range big {
		big[i] = 1
	}
	before, err := peakRSSBytes()
	if err != nil {
		t.Fatal(err)
	}
	big = nil
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	after, err := peakRSSBytes()
	if err != nil {
		t.Fatal(err)
	}
	if before < 64<<20 || after > before-32<<20 {
		t.Errorf("peak RSS %d B before the reset, %d B after; want a drop of the 64 MiB released", before, after)
	}
}

func TestDrainOracle(t *testing.T) {
	good := childReport{Accepted: 960, Observed: 960}
	cases := map[string]struct {
		rep   childReport
		acked int64
		fail  bool
	}{
		"drained":             {good, 960, false},
		"dropped reading":     {childReport{Accepted: 960, Observed: 959, Dropped: 1}, 960, true},
		"unobserved reading":  {childReport{Accepted: 960, Observed: 959}, 960, true},
		"acked, not accepted": {good, 961, true},
	}
	for name, c := range cases {
		o := newOutcome()
		checkDrain(o, &c.rep, c.acked)
		if got := len(o.problems) > 0; got != c.fail {
			t.Errorf("%s: failed=%v, want %v (%v)", name, got, c.fail, o.problems)
		}
	}
}

func TestSpotOracle(t *testing.T) {
	f, err := newFleet(childSpec{Seed: 5, Meters: 8, Batch: 48, TrainWeeks: trainWeeks})
	if err != nil {
		t.Fatal(err)
	}
	spots := [][2]int64{{0, int64(f.liveStart)}, {1, int64(f.liveStart + liveSlots - 1)}, {7, int64(f.liveStart + 400)}}
	good := make([]spotValue, len(spots))
	for i, s := range spots {
		good[i] = spotValue{Found: true, KW: f.kw(int(s[0]), int(s[1])-f.liveStart)}
	}
	missing := append([]spotValue(nil), good...)
	missing[1].Found = false
	altered := append([]spotValue(nil), good...)
	altered[2].KW += 0.001
	for name, c := range map[string]struct {
		got  []spotValue
		fail bool
	}{"stored": {good, false}, "dropped reading": {missing, true}, "altered reading": {altered, true},
		"short answer": {good[:2], true}} {
		o := newOutcome()
		checkSpots(o, f, spots, c.got)
		if got := len(o.problems) > 0; got != c.fail {
			t.Errorf("%s: failed=%v, want %v (%v)", name, got, c.fail, o.problems)
		}
	}
}

// TestAlertOracle builds a reference alert log for a small fleet with every
// frame acked, then checks the comparison accepts a reordered copy and
// rejects an altered, a dropped and a duplicated line.
func TestAlertOracle(t *testing.T) {
	f, err := newFleet(childSpec{Seed: 5, Meters: 16, Batch: 48, TrainWeeks: trainWeeks})
	if err != nil {
		t.Fatal(err)
	}
	g := &generator{f: f, recs: make([]frameRec, f.frames())}
	for k := range g.recs {
		g.recs[k].ok = true
	}
	events, err := referenceAlerts(f, g)
	if err != nil {
		t.Fatal(err)
	}
	want := alertKeys(events)
	if len(want) < 2 {
		t.Fatalf("reference raised %d alerts, want a theft week's worth", len(want))
	}
	reordered := append([]alertKey(nil), want[1:]...)
	reordered = append(reordered, want[0])
	altered := append([]alertKey(nil), want...)
	altered[0].Tier = "LOW"
	if want[0].Tier == "LOW" {
		altered[0].Tier = "HIGH"
	}
	restreaked := append([]alertKey(nil), want...)
	restreaked[len(restreaked)-1].Streak++
	for name, c := range map[string]struct {
		got  []alertKey
		fail bool
	}{
		"reordered":      {reordered, false},
		"altered tier":   {altered, true},
		"altered streak": {restreaked, true},
		"dropped line":   {want[1:], true},
		"extra line":     {append(append([]alertKey(nil), want...), want[0]), true},
	} {
		if err := compareAlerts(c.got, want); (err != nil) != c.fail {
			t.Errorf("%s: err=%v, want failure=%v", name, err, c.fail)
		}
	}
}

// TestTableOracle checks the reference capture parses and that a changed
// cell is caught.
func TestTableOracle(t *testing.T) {
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	t2, t3, err := goldenTables(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t2, "KLD detector (5% significance)") || !strings.Contains(t3, "Profit ($)") {
		t.Fatalf("unexpected table blocks:\n%s\n%s", t2, t3)
	}
	if d := diffLines(t2, t2); d != "" {
		t.Errorf("identical tables differ: %s", d)
	}
	if d := diffLines(strings.Replace(t2, "91.0%", "91.1%", 1), t2); d == "" {
		t.Error("an altered Table II cell went unnoticed")
	}
	if d := diffLines(strings.Replace(t3, "819634", "819635", 1), t3); d == "" {
		t.Error("an altered Table III cell went unnoticed")
	}
	if _, _, err := goldenTables("no tables here"); err == nil {
		t.Error("a capture without tables parsed")
	}
}

// TestBenchmarkJSON checks BENCHMARK.json at the repository root lists the
// workloads and metrics this program reports, with their units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	all := workloads()
	for _, w := range spec.Workloads {
		got, ok := all[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not a workload", w.Name)
		}
		if w.Why != got.why {
			t.Errorf("%s: why differs from the program's", w.Name)
		}
		if len(spec.EndToEnd) != len(got.e2e) {
			t.Errorf("%s reports %d end-to-end metrics, BENCHMARK.json lists %d", w.Name, len(got.e2e), len(spec.EndToEnd))
		}
		for i, d := range got.e2e {
			if i < len(spec.EndToEnd) && (spec.EndToEnd[i].Name != d.name || spec.EndToEnd[i].Unit != d.unit) {
				t.Errorf("end_to_end[%d] = %s %s, program reports %s %s", i, spec.EndToEnd[i].Name, spec.EndToEnd[i].Unit, d.name, d.unit)
			}
		}
		layer := got.layerMetrics()
		if len(spec.PerLayer) != len(layer) {
			t.Errorf("%s reports %d per-layer metrics, BENCHMARK.json lists %d", w.Name, len(layer), len(spec.PerLayer))
		}
		for i, d := range layer {
			if i < len(spec.PerLayer) && (spec.PerLayer[i].Name != d.name || spec.PerLayer[i].Unit != d.unit) {
				t.Errorf("per_layer[%d] = %s %s, program reports %s %s", i, spec.PerLayer[i].Name, spec.PerLayer[i].Unit, d.name, d.unit)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
	}
}
