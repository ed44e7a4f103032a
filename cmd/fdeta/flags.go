package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/obs"
)

// runFlags holds the flags every long-running fdeta subcommand shares:
// CPU/heap profiling and the opt-in HTTP admin endpoint. Evaluation-driven
// commands compose it into evalFlags; `detect`, `collect`, and `serve` bind
// it directly.
type runFlags struct {
	cpuprofile  string
	memprofile  string
	metricsAddr string
}

func bindRunFlags(fs *flag.FlagSet) *runFlags {
	rf := &runFlags{}
	fs.StringVar(&rf.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file (inspect with `go tool pprof`)")
	fs.StringVar(&rf.memprofile, "memprofile", "", "write a post-run heap profile to this file (inspect with `go tool pprof`)")
	fs.StringVar(&rf.metricsAddr, "metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address for the duration of the run (e.g. 127.0.0.1:9090; empty = no listener)")
	return rf
}

// run executes body with the admin endpoint and optional CPU/heap profiling
// wrapped around it. With -metrics-addr unset no listener is started and
// body runs exactly as before. Everything fdeta instruments — detector
// verdicts, evaluation stages, an opted-in head-end — lands on the process
// default registry, which is what the endpoint serves.
func (rf *runFlags) run(body func() error) error {
	if rf.metricsAddr != "" {
		srv, err := obs.ServeAdmin(rf.metricsAddr, obs.Default())
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(os.Stderr, "metrics: admin endpoint on http://%s/metrics\n", srv.Addr())
	}
	if rf.cpuprofile != "" {
		f, err := os.Create(rf.cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() { _ = f.Close() }()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if err := body(); err != nil {
		return err
	}
	if rf.memprofile != "" {
		f, err := os.Create(rf.memprofile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() { _ = f.Close() }()
		runtime.GC() // flush dead objects so the profile shows live memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}
