// Command fdeta is the F-DETA control CLI: it generates the synthetic CER-
// style dataset, validates it, regenerates every table and figure of the
// paper, and runs the ablation sweeps.
//
// Usage:
//
//	fdeta <subcommand> [flags]
//
// Subcommands:
//
//	generate      write a synthetic dataset as CER-style CSV
//	validate      dataset summary + the Section VIII-B3 peak-heavy check
//	table1        regenerate Table I (attack-class feasibility, verified)
//	table2        regenerate Table II (Metric 1: detection percentages)
//	table3        regenerate Table III (Metric 2: attacker gains)
//	fig1          demonstrate upstream-tap under-reporting (Fig. 1)
//	fig2          demonstrate the Fig. 2 topology and balance check
//	fig3          emit the Fig. 3 attack-vector series as CSV
//	fig4          emit the Fig. 4 distribution data as CSV
//	faults        detection-degradation curve under injected meter faults
//	ablate-bins   sweep the KLD histogram bin count B
//	ablate-train  sweep the training history length
//	ablate-divergence  compare divergence measures
//	ttd           streaming time-to-detection
//	spread        multi-victim theft spreading
//	bill          statements + revenue assurance
//	collect       drive a simulated meter fleet into the AMI head-end over TCP
//	serve         always-on streaming detection service with tiered alerts
//	chaos         kill -9/restart durability harness for the WAL-backed head-end
//
// Run `fdeta <subcommand> -h` for per-command flags.
package main

import (
	"fmt"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "generate":
		err = cmdGenerate(rest)
	case "validate":
		err = cmdValidate(rest)
	case "table1":
		err = cmdTable1(rest)
	case "table2", "table3":
		err = cmdTables(cmd, rest)
	case "fig1":
		err = cmdFig1(rest)
	case "fig2":
		err = cmdFig2(rest)
	case "fig3":
		err = cmdFig3(rest)
	case "fig4":
		err = cmdFig4(rest)
	case "ablate-bins":
		err = cmdAblateBins(rest)
	case "ablate-train":
		err = cmdAblateTrain(rest)
	case "ablate-divergence":
		err = cmdAblateDivergence(rest)
	case "ablate-binning":
		err = cmdAblateBinStrategy(rest)
	case "faults":
		err = cmdFaults(rest)
	case "ttd":
		err = cmdTimeToDetect(rest)
	case "spread":
		err = cmdSpread(rest)
	case "baselines":
		err = cmdBaselines(rest)
	case "fp-profile":
		err = cmdFPProfile(rest)
	case "report":
		err = cmdReport(rest)
	case "bill":
		err = cmdBill(rest)
	case "detect":
		err = cmdDetect(rest)
	case "investigate":
		err = cmdInvestigate(rest)
	case "simulate":
		err = cmdSimulate(rest)
	case "collect":
		err = cmdCollect(rest)
	case "serve":
		err = cmdServe(rest)
	case "chaos":
		err = cmdChaos(rest)
	case "help", "-h", "--help":
		usage()
		return 0
	default:
		fmt.Fprintf(os.Stderr, "fdeta: unknown subcommand %q\n\n", cmd)
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdeta:", err)
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprint(os.Stderr, `fdeta — F-DETA electricity-theft detection framework

Usage: fdeta <subcommand> [flags]

Dataset:
  generate      write a synthetic CER-style dataset as CSV
  validate      dataset summary + Section VIII-B3 peak-heavy check

Operations:
  detect        run the detection pipeline over a CER-format CSV
  investigate   balance checks, alarms, and localization on a feeder
  simulate      scripted multi-week feeder simulation with scored detection
  collect       drive a simulated meter fleet into the AMI head-end over TCP
                (one reliable session per meter, or -concurrency N rebinding
                sessions; -fault injects meter faults)
  serve         always-on streaming detection service: compact per-consumer
                detector state fed by the head-end's accepted-reading tap,
                tiered alerts over JSONL + SSE + the admin endpoint, rolling
                re-train without stopping (-smoke for CI)
  chaos         kill -9/restart durability harness: proves acked readings
                survive crashes of the WAL-backed sharded head-end

Paper artifacts:
  table1        Table I  — attack-class feasibility (verified by construction)
  table2        Table II — Metric 1: detection percentages per detector
  table3        Table III — Metric 2: attacker gains per detector
  fig1          Fig. 1 — upstream-tap under-reporting demonstration
  fig2          Fig. 2 — radial topology and the balance check
  fig3          Fig. 3 — attack-vector series (CSV)
  fig4          Fig. 4 — X / X_i / attack distributions and KLD data (CSV)

Extensions:
  faults             detection-degradation curve under injected meter faults
  ablate-bins        sweep the KLD histogram bin count
  ablate-train       sweep the training history length
  ablate-divergence  compare KL vs symmetric-KL vs Jensen-Shannon
  ablate-binning     compare equal-width vs equal-frequency histogram bins
  ttd                time-to-detection via streaming KLD (Section VII-D)
  spread             multi-victim theft spreading (paper future work)
  baselines          detector-family comparison (KLD vs PCA of ref [3])
  fp-profile         false-positive calibration over all normal test weeks
  report             regenerate the complete evaluation into a markdown report
  bill               weekly statements + revenue assurance

Experiment commands (table2, table3, fig3, fig4 and every extension but
bill) accept -parallelism (worker goroutines; results are identical at
any setting) and -cpuprofile/-memprofile (pprof output files). The evaluation
commands (table2, table3, faults, report) also accept -fault SPEC (inject
meter faults into the monitored weeks), -checkpoint FILE (crash-safe
per-consumer progress; rerun to resume), and -strict (fail fast instead
of quarantining a failing consumer).

Long-running commands (detect, collect, and every evaluation command)
also accept -metrics-addr ADDR: an opt-in HTTP admin endpoint serving
/metrics (Prometheus text), /metrics.json, /healthz, and /debug/pprof
for the duration of the run. Unset means no listener.
`)
}
