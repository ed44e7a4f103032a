// Command amiserver runs a standalone AMI head-end: it listens for meter
// connections, collects readings over the wire protocol, and periodically
// prints collection statistics. It is the server half of the
// examples/utilitypipeline scenario, runnable on its own for manual
// experimentation with cmd/amimeter.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ami"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// statsLine renders the head-end's ingestion counters for the periodic and
// final report lines, with the durability counters appended when a WAL is
// configured.
func statsLine(head *ami.ShardedHeadEnd) string {
	st := head.Stats()
	line := fmt.Sprintf("%d meters, %d readings accepted (%d rejected, %d auth-failed) — conns %d active / %d total, %d limit-rejected, %d idle-timeouts, %d forced closes",
		len(head.Meters()), st.Accepted, st.Rejected, st.AuthFailed,
		st.ActiveConns, st.TotalConns, st.LimitRejected, st.IdleTimeouts, st.ForcedCloses)
	if w := head.WALStats(); w.Enabled {
		line += fmt.Sprintf(" — wal %d appended, %d recovered, %d torn tails, %d errors",
			w.Appended, w.Recovered, w.TornTails, w.Errors)
	}
	return line
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("amiserver", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7425", "listen address")
	statsEvery := fs.Duration("stats", 5*time.Second, "statistics print interval")
	duration := fs.Duration("duration", 0, "exit after this long (0 = run until interrupted)")
	maxConns := fs.Int("max-conns", ami.DefaultMaxConns, "concurrent meter connection limit")
	idleTimeout := fs.Duration("idle-timeout", ami.DefaultIdleTimeout, "per-connection idle read deadline")
	drain := fs.Duration("drain", ami.DefaultDrainTimeout, "shutdown grace before force-closing connections")
	shards := fs.Int("shards", 1, "shard the readings store N ways, each shard behind its own lock (<= 0 = one shard per core)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. 127.0.0.1:9090; empty = no listener)")
	walDir := fs.String("wal-dir", "", "per-shard write-ahead log directory: readings are logged before ack and replayed on startup (the shard count is pinned into the log; empty = no durability)")
	walSync := fs.String("wal-sync", "", "WAL sync policy: always (fsync before every ack), interval (background fsync cadence), off (sync on close only); empty = interval")
	fs.SetOutput(errOut)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Warnings the head-end can only log (a torn WAL tail truncated, a
	// compaction or sync failure) reach the operator on stderr.
	obs.EnableLogging(errOut, slog.LevelWarn)
	walPolicy, err := ami.ParseWALSyncPolicy(*walSync)
	if err != nil {
		fmt.Fprintln(errOut, "amiserver:", err)
		return 2
	}

	// Register the signal handler before the listener comes up, so a
	// SIGTERM arriving the instant the bound address is printed is caught.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	opts := []ami.Option{
		ami.WithMaxConns(*maxConns),
		ami.WithIdleTimeout(*idleTimeout),
		ami.WithDrainTimeout(*drain),
	}
	if *walDir != "" {
		opts = append(opts, ami.WithWAL(*walDir), ami.WithWALSync(walPolicy))
	}
	head := ami.NewSharded(*shards, opts...)
	defer func() { _ = head.Close() }()
	if *walDir != "" {
		if err := head.WALError(); err != nil {
			fmt.Fprintln(errOut, "amiserver:", err)
			return 1
		}
		w := head.WALStats()
		fmt.Fprintf(out, "amiserver: wal recovered %d readings from %s (%d torn tails truncated, sync=%s)\n",
			w.Recovered, *walDir, w.TornTails, walPolicy)
	}
	if *metricsAddr != "" {
		// Export the head-end's own registry: /metrics counters are exactly
		// the ones behind head.Stats().
		srv, err := obs.ServeAdmin(*metricsAddr, head.Metrics())
		if err != nil {
			fmt.Fprintln(errOut, "amiserver:", err)
			return 1
		}
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(out, "amiserver: admin endpoint on http://%s/metrics\n", srv.Addr())
	}
	bound, err := head.Listen(*addr)
	if err != nil {
		fmt.Fprintln(errOut, "amiserver:", err)
		return 1
	}
	fmt.Fprintf(out, "amiserver: head-end listening on %s (max-conns %d, idle-timeout %s, drain %s)\n",
		bound, *maxConns, *idleTimeout, *drain)

	var deadline <-chan time.Time
	if *duration > 0 {
		timer := time.NewTimer(*duration)
		defer timer.Stop()
		deadline = timer.C
	}

	ticker := time.NewTicker(*statsEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			fmt.Fprintf(out, "amiserver: %s\n", statsLine(head))
		case <-stop:
			fmt.Fprintln(out, "amiserver: shutting down")
			if err := head.Close(); err != nil {
				fmt.Fprintln(errOut, "amiserver: close:", err)
				return 1
			}
			fmt.Fprintf(out, "amiserver: done — %s\n", statsLine(head))
			return 0
		case <-deadline:
			if err := head.Close(); err != nil {
				fmt.Fprintln(errOut, "amiserver: close:", err)
				return 1
			}
			fmt.Fprintf(out, "amiserver: done — %s\n", statsLine(head))
			return 0
		}
	}
}
