package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ami"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/meter"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/timeseries"
)

// serveRetries is the delivery attempts per frame for the demo fleet.
const serveRetries = 3

// cmdServe runs the always-on streaming detection service: a sharded AMI
// head-end taps every accepted reading into a serve.Server holding compact
// per-consumer detector state, with tiered alerts on JSONL, SSE, and the
// admin endpoint. The default mode demonstrates the full loop on a
// synthetic fleet (driven over real TCP) until the data runs out or
// SIGTERM; -smoke is the CI assertion variant.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	rf := bindRunFlags(fs)
	meters := fs.Int("meters", 8, "synthetic fleet size")
	weeks := fs.Int("weeks", 13, "weeks of data per meter (>= train+2)")
	trainWeeks := fs.Int("train", 11, "training-history weeks per re-train; thin histories produce tight, false-positive-prone thresholds")
	seed := fs.Int64("seed", 2026, "synthetic fleet seed")
	shards := fs.Int("shards", 4, "head-end store shards")
	theftFrac := fs.Float64("theft", 0.25, "fraction of the fleet switching to total theft in the final week")
	alertOut := fs.String("alerts-out", "", "append alert events to this JSONL file (empty = stdout summary only)")
	retrainEvery := fs.Duration("retrain-interval", 0, "rolling re-train cadence for the live loop (0 = re-train once after the history phase)")
	smoke := fs.Bool("smoke", false, "CI smoke: one honest + one tampered meter; exit non-zero unless exactly the tampered meter raises a HIGH alert")
	adminAddr := fs.String("admin-addr", "127.0.0.1:0", "address for the admin endpoint serving /alerts, /consumers/{id}, /dashboard.json and /metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trainWeeks < 2 {
		return fmt.Errorf("serve: -train must be >= 2")
	}
	if *weeks < *trainWeeks+2 {
		return fmt.Errorf("serve: -weeks must be >= train+2 (%d)", *trainWeeks+2)
	}
	if *smoke {
		*meters = 2
		*theftFrac = 0.5 // exactly meter 1
	}
	if *meters < 2 {
		return fmt.Errorf("serve: -meters must be >= 2")
	}
	// Warnings the service and its head-end can only log (an alert-log
	// append or WAL failure) reach the operator on stderr.
	obs.EnableLogging(os.Stderr, slog.LevelWarn)
	return rf.run(func() error {
		return runServe(*meters, *weeks, *trainWeeks, *seed, *shards, *theftFrac,
			*alertOut, *retrainEvery, *adminAddr, *smoke)
	})
}

// runServe drives the service end to end: history weeks stream in live
// (over real TCP, through the sharded head-end's sink), the fleet
// re-trains from the accumulated store without stopping, and the final
// week carries a theft on part of the fleet. Shutdown is the production
// order — head-end first, then the service — so every acked reading is
// observed before exit.
func runServe(meters, weeks, trainWeeks int, seed int64, shards int, theftFrac float64,
	alertOut string, retrainEvery time.Duration, adminAddr string, smoke bool) error {
	ds, err := dataset.Generate(dataset.Config{Residential: meters, Weeks: weeks, Seed: seed})
	if err != nil {
		return err
	}

	// The service pins a strict significance and long persistence gates:
	// honest weekly drift produces threshold excursions of a few dozen
	// slots even on a well-calibrated detector, so nothing alerts below a
	// day-long streak — while a real theft holds its streak for the whole
	// week (and escalates faster still on the score/threshold ratio).
	cfg := detect.KLDConfig{Significance: 0.01}
	policy := serve.AlertPolicy{MinStreak: 48, MediumStreak: 96, HighStreak: 144}

	var alertW *os.File
	if alertOut != "" {
		alertW, err = os.OpenFile(alertOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer func() { _ = alertW.Close() }()
	}

	// The head-end is built first (the service re-trains from its store)
	// with an indirected sink: the service attaches itself before Listen,
	// so no accepted reading can miss the tap. The pointer is published
	// atomically because every session goroutine reads it.
	var sinkPtr atomic.Pointer[ami.ReadingSink]
	head := ami.NewSharded(shards, ami.WithMetrics(obs.Default()),
		ami.WithDrainTimeout(2*time.Second),
		ami.WithSink(func(meterID string, readings []ami.BatchReading) {
			if f := sinkPtr.Load(); f != nil {
				(*f)(meterID, readings)
			}
		}))
	var srv *serve.Server
	// One teardown for every return, in drain order: the head-end first
	// (acks stop, and every session's sink call finishes), then the
	// service (the sink stops accepting). Both Closes are idempotent; the
	// success path closes both itself to check their errors.
	defer func() {
		_ = head.Close()
		if srv != nil {
			_ = srv.Close()
		}
	}()

	opts := []serve.Option{
		serve.WithAlertPolicy(policy),
		serve.WithMetrics(obs.Default()),
		serve.WithStore(head),
		serve.WithRetrain(serve.KLDRetrainer(trainWeeks, cfg)),
	}
	if alertW != nil {
		opts = append(opts, serve.WithAlertLog(alertW))
	}
	if retrainEvery > 0 {
		opts = append(opts, serve.WithRetrainInterval(retrainEvery))
	}
	srv, err = serve.New(opts...)
	if err != nil {
		return err
	}
	sink := srv.Sink()
	sinkPtr.Store(&sink)

	// Seed per-consumer state: detectors trained on the first trainWeeks
	// weeks, compact streams expecting the live feed to start at slot 0
	// (the history weeks stream through like any other reading).
	ids := make([]string, meters)
	for i := range ds.Consumers {
		c := &ds.Consumers[i]
		ids[i] = fmt.Sprintf("meter-%d", c.ID)
		train, _, err := c.Demand.Split(trainWeeks)
		if err != nil {
			return err
		}
		d, err := detect.NewKLDDetector(train, cfg)
		if err != nil {
			return err
		}
		sd, err := d.NewCompactStream(train.MustWeek(trainWeeks - 1))
		if err != nil {
			return err
		}
		if err := srv.Register(ids[i], sd, 0); err != nil {
			return err
		}
	}

	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("serve: head-end on %s (%d shards), %d consumers registered\n", addr, shards, meters)

	admin, err := obs.ServeAdmin(adminAddr, obs.Default())
	if err != nil {
		return err
	}
	defer func() { _ = admin.Close() }()
	srv.Mount(admin)
	fmt.Printf("serve: admin endpoint on http://%s — /alerts, /alerts/stream, /consumers/{id}, /dashboard.json, /metrics\n", admin.Addr())

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// Both phases stream day frames through the fleet driver, one session
	// per meter, each meter from its cursor up to the phase's end; in the
	// final week the first theftFrac of the fleet under-reports everything
	// to zero (Table I's total-theft vector) and the rest stay honest.
	nTheft := int(theftFrac * float64(meters))
	pos := make([]int, meters)
	end, theft := 0, false
	next := func(i int, buf []meter.Reading) ([]meter.Reading, error) {
		stop := min(pos[i]+timeseries.SlotsPerDay, end)
		tampered := theft && (smoke && i == 1 || !smoke && i < nTheft)
		for ; pos[i] < stop; pos[i]++ {
			kw := ds.Consumers[i].Demand[pos[i]]
			if tampered {
				kw = 0
			}
			buf = append(buf, meter.Reading{MeterID: ids[i], Slot: timeseries.Slot(pos[i]), KW: kw})
		}
		return buf, nil
	}

	// Phase 1 — history: every meter streams its honest weeks (all but the
	// last) through the wire; the service observes them live.
	end = (weeks - 1) * timeseries.SlotsPerWeek
	if err := ami.DriveFleet(ctx, addr, 0, serveRetries, ids, next, nil); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	head.Flush()
	srv.Flush()
	if smoke {
		if n := len(srv.Alerts(0)); n != 0 {
			return fmt.Errorf("serve: smoke: %d alert(s) during the honest history phase, want 0", n)
		}
	}

	// Rolling re-train: rebuild every detector from the store's freshest
	// history and swap it in behind the live stream.
	ok, failed := srv.RetrainAll()
	fmt.Printf("serve: re-trained %d consumers (%d failed) from %d stored weeks\n", ok, failed, weeks-1)
	if failed > 0 {
		return fmt.Errorf("serve: %d re-trains failed", failed)
	}

	// Phase 2 — the final week, with the theft.
	end, theft = weeks*timeseries.SlotsPerWeek, true
	if err := ami.DriveFleet(ctx, addr, 0, serveRetries, ids, next, nil); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	head.Flush()
	srv.Flush()

	// Graceful drain, in the teardown's order.
	if err := head.Close(); err != nil {
		return err
	}
	if err := srv.Close(); err != nil {
		return err
	}

	st := srv.Stats()
	fmt.Printf("serve: observed %d readings (%d missing, %d stale, %d dropped); verdicts %d normal / %d anomalous / %d inconclusive\n",
		st.Observed, st.Missing, st.Stale, st.Dropped, st.Normal, st.Anomalous, st.Inconclusive)
	fmt.Printf("serve: alerts %d LOW / %d MEDIUM / %d HIGH / %d cleared\n",
		st.AlertsLow, st.AlertsMedium, st.AlertsHigh, st.AlertsClear)
	events := srv.Alerts(0)
	for i := len(events) - 1; i >= 0; i-- {
		e := events[i]
		fmt.Printf("serve:   [%s] %s slot %d score %.3g threshold %.3g streak %d\n",
			e.Tier, e.Consumer, e.Slot, e.Score, e.Threshold, e.Streak)
	}

	if smoke {
		return smokeVerdict(srv, head, admin, ids, st)
	}
	return nil
}

// smokeVerdict is the CI assertion set: the tampered meter (and only it)
// must reach HIGH, the alert must be visible over HTTP, and the drain must
// have observed every acked reading.
func smokeVerdict(srv *serve.Server, head *ami.ShardedHeadEnd, admin *obs.AdminServer, ids []string, st serve.Stats) error {
	var honestAlerts, tamperedHigh int
	for _, e := range srv.Alerts(0) {
		switch e.Consumer {
		case ids[0]:
			honestAlerts++
		case ids[1]:
			if e.Tier == "HIGH" {
				tamperedHigh++
			}
		}
	}
	if honestAlerts != 0 {
		return fmt.Errorf("serve: smoke: honest meter %s raised %d alert(s), want 0", ids[0], honestAlerts)
	}
	if tamperedHigh == 0 {
		return fmt.Errorf("serve: smoke: tampered meter %s never reached HIGH", ids[1])
	}
	cs, okc := srv.ConsumerState(ids[1])
	if !okc || cs.Tier != "HIGH" {
		return fmt.Errorf("serve: smoke: tampered consumer state = %+v, want tier HIGH", cs)
	}

	// The alert must be served over the admin mux, not just in memory.
	resp, err := http.Get("http://" + admin.Addr() + "/alerts")
	if err != nil {
		return fmt.Errorf("serve: smoke: GET /alerts: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	var got []serve.AlertEvent
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		return fmt.Errorf("serve: smoke: decode /alerts: %w", err)
	}
	found := false
	for _, e := range got {
		if e.Consumer == ids[1] && e.Tier == "HIGH" {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("serve: smoke: /alerts lacks the HIGH event for %s", ids[1])
	}

	// Drain accounting: everything the head-end acked was observed (live or
	// as a gap-filled missing slot) and nothing was dropped.
	accepted := head.Stats().Accepted
	if st.Dropped != 0 {
		return fmt.Errorf("serve: smoke: %d sink deliveries dropped during drain", st.Dropped)
	}
	if st.Observed != accepted {
		return fmt.Errorf("serve: smoke: observed %d of %d acked readings", st.Observed, accepted)
	}
	fmt.Printf("serve: smoke OK — tampered meter HIGH, honest meter silent, %d/%d acked readings observed\n",
		st.Observed, accepted)
	return nil
}
