package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ami"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/meter"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// metricSendLatency times one acked frame (first send attempt through
// batch ack) on the fleet side — the client's view of the same exchange
// fdeta_ami_ingest_latency_seconds times on the server side.
const metricSendLatency = "fdeta_collect_send_latency_seconds"

// cmdCollect exercises the hardened AMI ingestion path end to end: a
// simulated fleet streams its readings over real TCP into a sharded
// head-end through ami.DriveFleet — one reliable session per meter by
// default, or -concurrency N sessions rebinding per meter, so a fleet of
// any size multiplexes over N persistent connections. Every frame of
// -batch readings is retried on its own. The fleet cycles -profiles
// synthetic consumption templates, so fleet size is decoupled from
// synthesis cost, and -fault injects meter faults into each meter's
// stream. It reports throughput, ingest and send latency quantiles and
// the head-end's counters, and fails unless every reading sent was
// accepted and, without faults, the stored series are dense.
func cmdCollect(args []string) error {
	fs := flag.NewFlagSet("collect", flag.ContinueOnError)
	rf := bindRunFlags(fs)
	meters := fs.Int("meters", 8, "number of simulated meters")
	slots := fs.Int("slots", timeseries.SlotsPerDay, "readings per meter")
	seed := fs.Int64("seed", 2016, "synthetic neighbourhood seed")
	maxConns := fs.Int("max-conns", ami.DefaultMaxConns, "head-end connection limit")
	idleTimeout := fs.Duration("idle-timeout", ami.DefaultIdleTimeout, "head-end idle read deadline")
	drain := fs.Duration("drain", time.Second, "shutdown grace before force-closing connections")
	retries := fs.Int("retries", 3, "delivery attempts per frame")
	faultSpec := fs.String("fault", "", "inject meter faults into the collected stream, e.g. 'dropout:0.1+spike:0.01,20' (dropped slots are never sent)")
	shards := fs.Int("shards", 1, "shard the head-end store N ways, each shard behind its own lock (<= 0 = one shard per core)")
	batch := fs.Int("batch", 1, "readings per wire-v3 batch frame (>= 1)")
	concurrency := fs.Int("concurrency", 0, "client sessions, each rebinding across its share of the fleet (0 = one session per meter)")
	profiles := fs.Int("profiles", 64, "synthetic consumption profiles cycled across the fleet")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *meters < 1 {
		return fmt.Errorf("collect: -meters must be >= 1")
	}
	if *slots < 1 || *slots > timeseries.SlotsPerWeek {
		return fmt.Errorf("collect: -slots must be in [1, %d]", timeseries.SlotsPerWeek)
	}
	if *batch < 1 {
		return fmt.Errorf("collect: -batch must be >= 1")
	}
	scens, err := fault.Parse(*faultSpec)
	if err != nil {
		return fmt.Errorf("collect: %w", err)
	}

	cfg := ami.HeadEndConfig{
		MaxConns:     *maxConns,
		IdleTimeout:  *idleTimeout,
		DrainTimeout: *drain,
	}
	if *batch > ami.DefaultMaxBatch {
		cfg.MaxBatch = *batch
	}
	headOpts := []ami.Option{ami.WithConfig(cfg)}
	if rf.metricsAddr != "" {
		// The admin endpoint serves the process default registry; point the
		// head-end's ingest counters at it so they are scrapeable live.
		headOpts = append(headOpts, ami.WithMetrics(obs.Default()))
	}
	head := ami.NewSharded(*shards, headOpts...)
	// The run closes the head-end itself to read its final counters; this
	// covers its early-error returns (Close is idempotent).
	defer func() { _ = head.Close() }()

	f := collectFleet{
		meters:   *meters,
		slots:    *slots,
		batch:    *batch,
		sessions: *concurrency,
		retries:  *retries,
		profiles: *profiles,
		seed:     *seed,
		plan:     fault.Plan{Seed: *seed, Scenarios: scens},
	}
	return rf.run(func() error { return f.run(head) })
}

// collectFleet is the fleet collect drives: its size and traffic shape,
// its client sessions, and the faults injected into its streams.
type collectFleet struct {
	meters, slots, batch int
	sessions, retries    int
	profiles             int
	seed                 int64
	plan                 fault.Plan
}

// meterFeed is one meter's stream as its session frames it: the reported
// series, its fault mask (nil without faults), and the first slot not yet
// framed. The series is released once the last frame is taken.
type meterFeed struct {
	series timeseries.Series
	mask   timeseries.Mask
	pos    int
}

// run drives the fleet into head, then checks and reports the delivery.
func (f collectFleet) run(head *ami.ShardedHeadEnd) error {
	ds, err := dataset.Generate(dataset.Config{Residential: min(max(f.profiles, 1), f.meters), Weeks: 2, Seed: f.seed})
	if err != nil {
		return err
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	sessions := f.sessions
	if sessions <= 0 || sessions > f.meters {
		sessions = f.meters
	}
	fmt.Printf("collect: head-end on %s (%d shards, batch %d, %d sessions, %d meters)\n",
		addr, head.Shards(), f.batch, sessions, f.meters)

	ids := make([]string, f.meters)
	for m := range ids {
		ids[m] = fmt.Sprintf("meter-%06d", m)
	}
	// Each meter is framed by the one session that owns it, so its feed
	// needs no lock.
	feeds := make([]meterFeed, f.meters)
	var dropped, corrupted atomic.Int64
	next := func(m int, buf []meter.Reading) ([]meter.Reading, error) {
		fd := &feeds[m]
		if fd.pos == 0 {
			fd.series = ds.Consumers[m%len(ds.Consumers)].Demand[:f.slots]
			if f.plan.Enabled() {
				// Faults hit the reported stream: the realization rewrites
				// the register values (spikes, stuck windows) and marks the
				// slots the backhaul lost, which are never sent.
				r, err := f.plan.Realize(int64(m), f.slots)
				if err != nil {
					return nil, err
				}
				if fd.series, fd.mask, err = r.Apply(fd.series); err != nil {
					return nil, err
				}
				for _, st := range fd.mask {
					switch st {
					case timeseries.StatusMissing:
						dropped.Add(1)
					case timeseries.StatusCorrupt:
						corrupted.Add(1)
					}
				}
			}
		}
		for ; fd.pos < f.slots && len(buf) < f.batch; fd.pos++ {
			if fd.mask != nil && fd.mask[fd.pos] == timeseries.StatusMissing {
				continue
			}
			buf = append(buf, meter.Reading{MeterID: ids[m], Slot: timeseries.Slot(fd.pos), KW: fd.series[fd.pos]})
		}
		if fd.pos == f.slots {
			fd.series, fd.mask = nil, nil
		}
		return buf, nil
	}

	clientReg := obs.NewRegistry()
	sendLatency := clientReg.Histogram(metricSendLatency,
		"one acked batch frame, first send attempt through batch ack, fleet side", obs.FineLatencyBuckets())
	var frames atomic.Int64
	acked := func(_ int, _ []meter.Reading, rtt time.Duration) {
		sendLatency.Observe(rtt.Seconds())
		frames.Add(1)
	}

	start := time.Now()
	err = ami.DriveFleet(ctx, addr, sessions, f.retries, ids, next, acked)
	elapsed := time.Since(start)
	head.Flush()
	if err != nil {
		return fmt.Errorf("collect: %w", err)
	}
	// Injected dropouts are intentional gaps, so density is only checked
	// on the fault-free path.
	checked := 0
	if !f.plan.Enabled() {
		if checked, err = f.spotCheck(head, ids); err != nil {
			return err
		}
	}
	headSnap := head.Metrics().Snapshot()
	if err := head.Close(); err != nil {
		return err
	}

	st := head.Stats()
	total := int64(f.meters)*int64(f.slots) - dropped.Load()
	merged := obs.MergeSnapshots(headSnap, clientReg.Snapshot())
	quantileUS := func(metric string, q float64) float64 {
		if m := merged.Find(metric); m != nil {
			return 1e6 * obs.Quantile(m, q)
		}
		return 0
	}
	const ingest = "fdeta_ami_ingest_latency_seconds"

	fmt.Printf("collect: %d meters delivered %d/%d readings in %d frames over %s\n",
		f.meters, st.Accepted, total, frames.Load(), elapsed.Round(time.Millisecond))
	fmt.Printf("collect: %.0f readings/s, %.0f frames/s; ingest p50 %.1fµs p99 %.1fµs; send p50 %.1fµs p99 %.1fµs\n",
		float64(st.Accepted)/elapsed.Seconds(), float64(frames.Load())/elapsed.Seconds(),
		quantileUS(ingest, 0.50), quantileUS(ingest, 0.99),
		quantileUS(metricSendLatency, 0.50), quantileUS(metricSendLatency, 0.99))
	fmt.Printf("collect: conns %d total, %d limit-rejected; readings %d rejected, %d auth-failed; %d idle-timeouts, %d forced closes\n",
		st.TotalConns, st.LimitRejected, st.Rejected, st.AuthFailed, st.IdleTimeouts, st.ForcedCloses)
	if st.Accepted != total {
		return fmt.Errorf("collect: accepted %d of %d readings", st.Accepted, total)
	}
	if f.plan.Enabled() {
		fmt.Printf("collect: fault plan %s dropped %d readings and corrupted %d in flight\n",
			f.plan, dropped.Load(), corrupted.Load())
	} else {
		fmt.Printf("collect: spot-checked %d/%d series dense\n", checked, f.meters)
	}
	return nil
}

// spotCheck verifies stored-series density on a deterministic sample of
// the fleet (every meter up to 1024, then a fixed stride), so validation
// cost does not scale with fleet size. It returns how many it checked.
func (f collectFleet) spotCheck(head *ami.ShardedHeadEnd, ids []string) (int, error) {
	stride := max(f.meters/1024, 1)
	checked := 0
	for m := 0; m < f.meters; m += stride {
		if _, err := head.Series(ids[m], f.slots); err != nil {
			return checked, err
		}
		checked++
	}
	return checked, nil
}
