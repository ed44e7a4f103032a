// Command perfbench is the repository benchmark. It drives the F-DETA stack
// through its public APIs and prints one JSON result line:
//
//	bash perfbench/run.sh --workload fleet-daily --seed 1 --seconds 20 --trace 0
//
// The workloads, fleet-daily and fleet-interval, run an open-loop meter
// fleet over real TCP into a WAL-backed, MAC-checked sharded head-end
// (internal/ami) that sinks into the streaming detection service
// (internal/serve) with one compact KLD stream (internal/detect) per meter,
// out to tiered alerts. The server runs in a child process (this binary
// re-executed). Before its fleet, every pass also runs the paper's full
// Table II/III evaluation (internal/experiments) once as a batch job.
//
// With --trace 0 the result carries the end-to-end metrics of an untraced
// run. With --trace 1 the workload runs twice, untraced then traced: the
// result carries the per-layer metrics of the traced run plus the tracing
// overhead (traced minus untraced) of every end-to-end metric, and the
// traced run's spans are written to .bench_out/spans-<workload>.csv.
// README.md in this directory documents the workloads, the metrics, the
// layer ledger and the span format.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// workload is one benchmark workload: the metrics it reports and the
// function that runs it once, traced or not.
type workload struct {
	name    string
	why     string
	e2e     []metricDef
	layer   []metricDef
	measure func(cfg runConfig, traced bool) (*outcome, error)
}

// runConfig carries the command-line settings of one invocation.
type runConfig struct {
	seed    int64
	seconds float64
	rate    float64 // fleet workloads: offered readings/s; 0 = the workload's own
	outDir  string
	golden  string
	log     io.Writer
}

// outcome is what one pass of a workload measured and checked.
type outcome struct {
	problems  []string // failed oracle checks; empty on a correct run
	attempted int64
	failed    int64
	e2e       map[string]float64
	layer     map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// fail records a failed oracle check.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// overheadPrefix names the per-layer metrics that carry the tracing
// overhead of each end-to-end metric.
const overheadPrefix = "trace_overhead."

// workloads returns every workload by name.
func workloads() map[string]workload {
	ws := []workload{fleetWorkload(dailyFleet), fleetWorkload(intervalFleet)}
	out := make(map[string]workload, len(ws))
	for _, w := range ws {
		out[w.name] = w
	}
	return out
}

// layerMetrics is the full per-layer list of a workload: its layer metrics
// followed by the tracing overhead of each end-to-end metric.
func (w workload) layerMetrics() []metricDef {
	out := slices.Clone(w.layer)
	for _, m := range w.e2e {
		out = append(out, metricDef{overheadPrefix + m.name, m.unit})
	}
	return out
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == childArg {
		if err := childMain(os.Args[2], os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench server: %v\n", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, measures the workload and prints the
// result. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fleet-daily or fleet-interval")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: untraced then traced run, per-layer metrics")
	outDir := fs.String("out", ".bench_out", "directory for run artefacts (WAL, alert logs, spans, overhead report)")
	golden := fs.String("golden", filepath.Join("results", "full_run.txt"), "the paper evaluation's reference Table II/III capture")
	rate := fs.Float64("rate", 0, "fleet workloads: override the offered readings/s (saturation probing; 0 = the workload's rate)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads()[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || math.IsInf(*seconds, 0) || *rate < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, rate: *rate, outDir: *outDir, golden: *golden, log: stderr}
	res, err := measure(w, cfg, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure runs the workload once untraced and, for a traced invocation,
// once more traced, and assembles the result line.
func measure(w workload, cfg runConfig, traced bool, stdout io.Writer) (result, error) {
	base, err := w.measure(cfg, false)
	if err != nil {
		return result{}, err
	}
	if err := complete(base.e2e, w.e2e); err != nil {
		return result{}, err
	}
	report(stdout, "untraced", base, base.e2e, w.e2e)
	if !traced {
		return resultOf(base.e2e, w.e2e, base), nil
	}

	tr, err := w.measure(cfg, true)
	if err != nil {
		return result{}, err
	}
	if err := complete(tr.e2e, w.e2e); err != nil {
		return result{}, err
	}
	report(stdout, "traced", tr, tr.e2e, w.e2e)
	for _, m := range w.e2e {
		tr.layer[overheadPrefix+m.name] = tr.e2e[m.name] - base.e2e[m.name]
	}
	if err := complete(tr.layer, w.layerMetrics()); err != nil {
		return result{}, err
	}
	if err := writeOverhead(cfg, w, base, tr); err != nil {
		return result{}, err
	}
	report(stdout, "per-layer", tr, tr.layer, w.layerMetrics())
	return resultOf(tr.layer, w.layerMetrics(), base, tr), nil
}

// complete checks that a pass produced every metric it must report, each a
// finite number.
func complete(got map[string]float64, defs []metricDef) error {
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not a finite number (%v)", d.name, v)
		}
	}
	return nil
}

// resultOf builds the result line from the reported metric set. The
// oracles, attempts and failures of every pass count.
func resultOf(metrics map[string]float64, defs []metricDef, passes ...*outcome) result {
	res := result{Correct: true, Metrics: make(map[string]metricValue, len(defs))}
	for _, p := range passes {
		res.Correct = res.Correct && len(p.problems) == 0
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: metrics[d.name], Unit: d.unit}
	}
	return res
}

// report prints a human-readable summary of one pass ahead of the result
// line.
func report(w io.Writer, label string, o *outcome, metrics map[string]float64, defs []metricDef) {
	fmt.Fprintf(w, "# %s pass: %d attempted, %d failed, %d oracle problem(s)\n",
		label, o.attempted, o.failed, len(o.problems))
	for _, p := range o.problems {
		fmt.Fprintf(w, "#   ORACLE FAILED: %s\n", p)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "#   %-40s %.6g %s\n", d.name, metrics[d.name], d.unit)
	}
}

// overheadReport is the file a traced invocation leaves behind: each
// end-to-end metric untraced, traced, and their difference.
type overheadReport struct {
	Workload string                        `json:"workload"`
	Seed     int64                         `json:"seed"`
	Seconds  float64                       `json:"seconds"`
	Metrics  map[string]overheadReportLine `json:"metrics"`
}

type overheadReportLine struct {
	Unit     string  `json:"unit"`
	Untraced float64 `json:"untraced"`
	Traced   float64 `json:"traced"`
	Overhead float64 `json:"overhead"`
}

// writeOverhead writes .bench_out/overhead-<workload>.json.
func writeOverhead(cfg runConfig, w workload, base, tr *outcome) error {
	rep := overheadReport{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds,
		Metrics: make(map[string]overheadReportLine, len(w.e2e))}
	for _, m := range w.e2e {
		rep.Metrics[m.name] = overheadReportLine{Unit: m.unit, Untraced: base.e2e[m.name],
			Traced: tr.e2e[m.name], Overhead: tr.e2e[m.name] - base.e2e[m.name]}
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "overhead-"+w.name+".json"), append(b, '\n'), 0o644)
}

// now is the benchmark's clock: wall-clock nanoseconds, comparable across
// the generator and the server child on one machine.
func now() int64 { return time.Now().UnixNano() }

// quantiles sorts xs in place and returns the nearest-rank quantile for
// each q, or NaN when xs is empty.
func quantiles(xs []int64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	slices.Sort(xs)
	for i, q := range qs {
		r := int(math.Ceil(q*float64(len(xs)))) - 1
		if r < 0 {
			r = 0
		}
		if r >= len(xs) {
			r = len(xs) - 1
		}
		out[i] = float64(xs[r])
	}
	return out
}

// median returns the median of xs (the mean of the middle pair for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuNS returns the process's user plus system CPU time.
func cpuNS() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), nil
}

// resetPeakRSS restarts the kernel's count of the process's peak resident
// set size (VmHWM) at the current size.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSBytes returns the process's peak resident set size since it
// started or since the last resetPeakRSS.
func peakRSSBytes() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb * 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// logf writes a progress line to the run's log stream.
func (c runConfig) logf(format string, args ...any) {
	fmt.Fprintf(c.log, "perfbench: "+format+"\n", args...)
}
