package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
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

// metricSendLatency times one batch-frame round trip (send through batch
// ack) on the load-harness side — the client's view of the same exchange
// fdeta_ami_ingest_latency_seconds times on the server side.
const metricSendLatency = "fdeta_collect_send_latency_seconds"

// cmdCollect exercises the hardened AMI ingestion path end to end. In its
// default mode it streams a synthetic neighbourhood's readings from
// concurrent reliable meter clients over real TCP, then prints the
// ingestion counters and verifies that every collected series is dense.
// With -concurrency it becomes a load harness: a fixed pool of persistent
// wire-v3 connections multiplexes an arbitrarily large simulated fleet
// (rebinding per meter, batching readings per frame) against the head-end,
// and reports throughput and latency quantiles.
func cmdCollect(args []string) error {
	fs := flag.NewFlagSet("collect", flag.ContinueOnError)
	rf := bindRunFlags(fs)
	meters := fs.Int("meters", 8, "number of simulated meters")
	slots := fs.Int("slots", timeseries.SlotsPerDay, "readings per meter")
	seed := fs.Int64("seed", 2016, "synthetic neighbourhood seed")
	maxConns := fs.Int("max-conns", ami.DefaultMaxConns, "head-end connection limit")
	idleTimeout := fs.Duration("idle-timeout", ami.DefaultIdleTimeout, "head-end idle read deadline")
	drain := fs.Duration("drain", time.Second, "shutdown grace before force-closing connections")
	retries := fs.Int("retries", 3, "delivery attempts per reading (per-meter mode)")
	faultSpec := fs.String("fault", "", "inject meter faults into the collected stream, e.g. 'dropout:0.1+spike:0.01,20' (dropped slots are never sent)")
	shards := fs.Int("shards", 1, "shard the head-end store N ways, each with its own async ingest queue (<= 0 = one shard per core)")
	batch := fs.Int("batch", 0, "readings per wire-v3 batch frame (0 = one v1 frame per reading)")
	concurrency := fs.Int("concurrency", 0, "load-harness connection pool size; >0 multiplexes the fleet over persistent v3 connections (requires -batch >= 1)")
	profiles := fs.Int("profiles", 64, "synthetic consumption profiles cycled across the fleet (load-harness mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *meters < 1 {
		return fmt.Errorf("collect: -meters must be >= 1")
	}
	if *slots < 1 || *slots > timeseries.SlotsPerWeek {
		return fmt.Errorf("collect: -slots must be in [1, %d]", timeseries.SlotsPerWeek)
	}
	if *concurrency > 0 && *batch < 1 {
		return fmt.Errorf("collect: -concurrency requires -batch >= 1 (the pool multiplexes v3 batch sessions)")
	}
	if *concurrency > 0 && *faultSpec != "" {
		return fmt.Errorf("collect: -fault is a per-meter-client feature; drop -concurrency to use it")
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
	// The collection bodies close the head-end themselves to read its
	// final counters; this covers their early-error returns (Close is
	// idempotent).
	defer func() { _ = head.Close() }()

	if *concurrency > 0 {
		h := &harness{
			meters:      *meters,
			slots:       *slots,
			seed:        *seed,
			batch:       *batch,
			concurrency: *concurrency,
			profiles:    *profiles,
			head:        head,
		}
		return rf.run(h.run)
	}

	plan := fault.Plan{Seed: *seed, Scenarios: scens}
	ds, err := dataset.Generate(dataset.Config{Residential: *meters, Weeks: 2, Seed: *seed})
	if err != nil {
		return err
	}
	return rf.run(func() error {
		return runCollect(head, ds, plan, *meters, *slots, *retries, *batch, *maxConns, *idleTimeout, *drain)
	})
}

// runCollect is the per-meter-client collection body: one goroutine and one
// reliable client per meter, exactly the seed topology (with -batch > 1 the
// clients speak v3 batch frames instead of one frame per reading).
func runCollect(head *ami.ShardedHeadEnd, ds *dataset.Dataset, plan fault.Plan,
	meterCount, slotCount, retries, batch, maxConns int, idleTimeout, drain time.Duration) error {
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("collect: head-end on %s (max-conns %d, idle-timeout %s, drain %s)\n",
		addr, maxConns, idleTimeout, drain)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	start := time.Now()
	errc := make(chan error, meterCount)
	var dropped, corrupted atomic.Int64
	var wg sync.WaitGroup
	for i := range ds.Consumers {
		c := &ds.Consumers[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("meter-%d", c.ID)
			// Faults hit the reported stream: the realization rewrites the
			// register values (spikes, stuck windows) and marks the slots
			// the backhaul lost, which the client then never sends.
			series := c.Demand[:slotCount]
			mask := timeseries.Mask(nil)
			if plan.Enabled() {
				r, err := plan.Realize(int64(c.ID), slotCount)
				if err != nil {
					errc <- err
					return
				}
				series, mask, err = r.Apply(series)
				if err != nil {
					errc <- err
					return
				}
			}
			m, err := meter.New(id, series, meter.Config{})
			if err != nil {
				errc <- err
				return
			}
			newClient := ami.NewReliableClient
			if batch > 1 {
				newClient = ami.NewReliableBatchClient
			}
			rc, err := newClient(addr, id, nil, 5*time.Second, retries, 50*time.Millisecond)
			if err != nil {
				errc <- err
				return
			}
			defer func() { _ = rc.Close() }()
			readings, err := m.ReportRange(0, slotCount)
			if err != nil {
				errc <- err
				return
			}
			if len(mask) > 0 {
				kept := readings[:0]
				for _, r := range readings {
					switch mask[r.Slot] {
					case timeseries.StatusMissing:
						dropped.Add(1)
						continue
					case timeseries.StatusCorrupt:
						corrupted.Add(1)
					}
					kept = append(kept, r)
				}
				readings = kept
			}
			errc <- rc.SendAllContext(ctx, readings)
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			_ = head.Close()
			return err
		}
	}
	elapsed := time.Since(start)
	head.Flush()

	// Every collected series must be dense — a gap is a lost reading.
	// Injected dropouts are intentional gaps, so the density check only
	// applies on the fault-free path.
	if !plan.Enabled() {
		for _, id := range head.Meters() {
			if _, err := head.Series(id, slotCount); err != nil {
				_ = head.Close()
				return err
			}
		}
	}
	if err := head.Close(); err != nil {
		return err
	}

	st := head.Stats()
	total := int64(meterCount)*int64(slotCount) - dropped.Load()
	fmt.Printf("collect: %d meters delivered %d/%d readings in %s (%.0f readings/s)\n",
		meterCount, st.Accepted, total, elapsed.Round(time.Millisecond),
		float64(st.Accepted)/elapsed.Seconds())
	fmt.Printf("collect: conns %d total, %d limit-rejected; readings %d rejected, %d auth-failed; %d idle-timeouts, %d forced closes\n",
		st.TotalConns, st.LimitRejected, st.Rejected, st.AuthFailed, st.IdleTimeouts, st.ForcedCloses)
	if st.Accepted != total {
		return fmt.Errorf("collect: accepted %d of %d readings", st.Accepted, total)
	}
	if plan.Enabled() {
		fmt.Printf("collect: fault plan %s dropped %d readings and corrupted %d in flight\n",
			plan, dropped.Load(), corrupted.Load())
		return nil
	}
	fmt.Println("collect: all series dense — clean shutdown, no forced closes expected on this path")
	return nil
}

// harness drives the load-harness mode: a pool of persistent v3
// connections multiplexing the simulated fleet, with profile templates
// standing in for per-meter datasets so fleet size is decoupled from
// synthesis cost.
type harness struct {
	meters, slots         int
	seed                  int64
	batch                 int
	concurrency, profiles int
	head                  *ami.ShardedHeadEnd
}

// loadProfiles synthesizes the consumption templates the fleet cycles over.
func (h *harness) loadProfiles() ([]timeseries.Series, error) {
	n := h.profiles
	if n < 1 {
		n = 1
	}
	if n > h.meters {
		n = h.meters
	}
	weeks := (h.slots + timeseries.SlotsPerWeek - 1) / timeseries.SlotsPerWeek
	if weeks < 2 {
		weeks = 2 // dataset.Generate's floor
	}
	ds, err := dataset.Generate(dataset.Config{Residential: n, Weeks: weeks, Seed: h.seed})
	if err != nil {
		return nil, err
	}
	out := make([]timeseries.Series, len(ds.Consumers))
	for i := range ds.Consumers {
		out[i] = ds.Consumers[i].Demand[:h.slots]
	}
	return out, nil
}

// run drives the batched, optionally sharded ingestion tier at fleet
// scale and reports its throughput and latency quantiles.
func (h *harness) run() error {
	profiles, err := h.loadProfiles()
	if err != nil {
		return err
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	head := h.head
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("collect: head-end on %s (%d shards, batch %d, %d conns, %d meters)\n",
		addr, head.Shards(), h.batch, h.poolSize(h.meters), h.meters)

	clientReg := obs.NewRegistry()
	sendLatency := clientReg.Histogram(metricSendLatency,
		"one batch frame send through batch ack, harness side", obs.FineLatencyBuckets())
	var frames atomic.Int64

	// Each pool worker owns one persistent v3 session (its slot in this
	// slice — no cross-worker locking) and rebinds it per meter instead of
	// redialing, which is what keeps a 100k fleet from exhausting
	// ephemeral ports.
	clients := make([]*ami.Client, h.poolSize(h.meters))
	defer func() {
		for _, c := range clients {
			if c != nil {
				_ = c.Close()
			}
		}
	}()
	workerClient := func(worker int, meterID string) (*ami.Client, error) {
		if c := clients[worker]; c != nil {
			if err := c.Bind(meterID); err != nil {
				return nil, err
			}
			return c, nil
		}
		c, err := ami.DialBatch(addr, meterID, nil, 5*time.Second)
		if err != nil {
			return nil, err
		}
		clients[worker] = c
		return c, nil
	}

	start := time.Now()
	err = h.pool(ctx, h.meters, func(worker int, meterID string, readings []meter.Reading) error {
		c, err := workerClient(worker, meterID)
		if err != nil {
			return err
		}
		for off := 0; off < len(readings); off += h.batch {
			end := off + h.batch
			if end > len(readings) {
				end = len(readings)
			}
			t0 := time.Now()
			if err := c.SendBatch(readings[off:end]); err != nil {
				return err
			}
			sendLatency.Observe(time.Since(t0).Seconds())
			frames.Add(1)
		}
		return nil
	}, profiles)
	elapsed := time.Since(start)
	for i, c := range clients {
		if c != nil {
			_ = c.Close()
			clients[i] = nil
		}
	}
	head.Flush()

	if err != nil {
		_ = head.Close()
		return err
	}
	if err := h.spotCheck(head); err != nil {
		_ = head.Close()
		return err
	}
	headSnap := head.Metrics().Snapshot()
	if err := head.Close(); err != nil {
		return err
	}

	st := head.Stats()
	total := int64(h.meters) * int64(h.slots)
	if st.Accepted != total {
		return fmt.Errorf("collect: accepted %d of %d readings", st.Accepted, total)
	}
	rate := float64(total) / elapsed.Seconds()
	frameRate := float64(frames.Load()) / elapsed.Seconds()

	merged := obs.MergeSnapshots(headSnap, clientReg.Snapshot())
	quantileUS := func(metric string, q float64) float64 {
		if m := merged.Find(metric); m != nil {
			return 1e6 * obs.Quantile(m, q)
		}
		return 0
	}
	const ingest = "fdeta_ami_ingest_latency_seconds"

	fmt.Printf("collect: %d meters delivered %d readings in %d frames over %s\n",
		h.meters, total, frames.Load(), elapsed.Round(time.Millisecond))
	fmt.Printf("collect: %.0f readings/s, %.0f frames/s; ingest p50 %.1fµs p99 %.1fµs; send p50 %.1fµs p99 %.1fµs\n",
		rate, frameRate,
		quantileUS(ingest, 0.50), quantileUS(ingest, 0.99),
		quantileUS(metricSendLatency, 0.50), quantileUS(metricSendLatency, 0.99))
	fmt.Printf("collect: conns %d total, %d limit-rejected; readings %d rejected, %d auth-failed; %d forced closes\n",
		st.TotalConns, st.LimitRejected, st.Rejected, st.AuthFailed, st.ForcedCloses)
	return nil
}

// poolSize caps the connection pool at the fleet size.
func (h *harness) poolSize(fleet int) int {
	if h.concurrency < fleet {
		return h.concurrency
	}
	return fleet
}

// pool fans the fleet [0, fleet) over the worker pool: worker w owns the
// meters congruent to w, visiting each with a readings buffer rebuilt from
// the meter's profile template. Stops at the first error or cancellation.
func (h *harness) pool(ctx context.Context, fleet int,
	visit func(worker int, meterID string, readings []meter.Reading) error,
	profiles []timeseries.Series) error {
	workers := h.poolSize(fleet)
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]meter.Reading, h.slots)
			for i := w; i < fleet; i += workers {
				if err := ctx.Err(); err != nil {
					errc <- err
					return
				}
				id := fmt.Sprintf("meter-%06d", i)
				prof := profiles[i%len(profiles)]
				for s := 0; s < h.slots; s++ {
					buf[s] = meter.Reading{MeterID: id, Slot: timeseries.Slot(s), KW: prof[s]}
				}
				if err := visit(w, id, buf); err != nil {
					errc <- fmt.Errorf("collect: meter %s: %w", id, err)
					return
				}
			}
			errc <- nil
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			return err
		}
	}
	return nil
}

// spotCheck verifies stored-series density on a deterministic sample of
// the fleet (every meter up to 1024, then a fixed stride), so validation
// cost does not scale with fleet size.
func (h *harness) spotCheck(head *ami.ShardedHeadEnd) error {
	stride := h.meters / 1024
	if stride < 1 {
		stride = 1
	}
	checked := 0
	for i := 0; i < h.meters; i += stride {
		id := fmt.Sprintf("meter-%06d", i)
		if _, err := head.Series(id, h.slots); err != nil {
			return err
		}
		checked++
	}
	fmt.Printf("collect: spot-checked %d/%d series dense\n", checked, h.meters)
	return nil
}
