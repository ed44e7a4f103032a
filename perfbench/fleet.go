package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"repro/internal/ami"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/meter"
	"repro/internal/serve"
	"repro/internal/timeseries"
)

// Fleet shape shared by both fleet workloads.
const (
	// trainWeeks of history train each meter's detector; the live traffic
	// is the liveWeeks that follow: one honest week, then the theft week.
	trainWeeks = 8
	liveWeeks  = 2
	liveSlots  = liveWeeks * timeseries.SlotsPerWeek
	// theftDivisor: the first 1/theftDivisor of the fleet reports zero for
	// the whole theft week (Table I's total theft).
	theftDivisor = 4
	// fleetShards is the head-end's shard count.
	fleetShards = 2
	// verdictSample is roughly how many consumers carry the verdict-stamp
	// wrapper.
	verdictSample = 64
	// spotChecks is how many acked readings are read back from the store.
	spotChecks = 256
	// The server child sets up at least setupRepeats times and for at
	// least setupSpan; setup_s is the median set-up and the last one
	// serves the timed load.
	setupRepeats = 5
	setupSpan    = 3 * time.Second
	// opTimeout bounds every wire operation of the generator.
	opTimeout = 10 * time.Second
	// windows splits the schedule by due time. The p50 latencies and the
	// CPU cost per reading are medians over the windows of each window's
	// figure, so a burst of contention from outside the benchmark that
	// covers a few windows does not move them.
	windows = 10
	// startLead is how far ahead of the first due time the schedule is
	// fixed, leaving time to open the server's timed phase.
	startLead = 100 * time.Millisecond
)

// fleetKey is the MAC key of every simulated meter: Bind keeps the
// session's key, so the keyring enrols the same key for all of them.
var fleetKey = []byte("perfbench fleet key")

// The detection policy of `fdeta serve`.
var (
	serveKLD    = detect.KLDConfig{Significance: 0.01}
	servePolicy = serve.AlertPolicy{MinStreak: 48, MediumStreak: 96, HighStreak: 144}
)

// fleetShape is what distinguishes the two fleet workloads.
type fleetShape struct {
	name  string
	why   string
	batch int     // readings per wire-v2 batch frame
	rate  float64 // offered readings per second
}

// The offered rates sit well below each workload's saturation point; the
// measured saturation points and margins are recorded in README.md.
var (
	dailyFleet = fleetShape{
		name:  "fleet-daily",
		why:   "one day (48 readings) per frame: per-reading work dominates (shard apply, sink copy, Observe); wire cost is spread over 48 readings",
		batch: timeseries.SlotsPerDay,
		rate:  80000,
	}
	intervalFleet = fleetShape{
		name:  "fleet-interval",
		why:   "one reading per frame, slot-major with a Bind per frame: per-frame work dominates (decode, hello, MAC, WAL record, serve job)",
		batch: 1,
		rate:  7000,
	}
)

// fleetE2E are the end-to-end metrics of both fleet workloads, followed by
// those of the paper evaluation every pass runs.
var fleetE2E = append([]metricDef{
	{"setup_s", "s"},
	{"readings_per_s", "1/s"},
	{"ack_p50_ms", "ms"},
	{"verdict_p50_ms", "ms"},
	{"alert_lag_p50_ms", "ms"},
	{"cpu_us_per_reading", "us"},
	{"server_rss_mb", "MB"},
}, paperE2E...)

// fleetLayer are the per-layer metrics of both fleet workloads, followed
// by those of the paper evaluation. The first four are demoted end-to-end
// metrics; README.md gives the reasons.
var fleetLayer = append([]metricDef{
	{"ack_p99_ms", "ms"},
	{"verdict_p99_ms", "ms"},
	{"alert_lag_p90_ms", "ms"},
	{"error_share", "share"},
	{"ami.send_us_p50", "us"},
	{"ami.send_us_p99", "us"},
	{"ami.bind_us_p50", "us"},
	{"ami.bind_us_p99", "us"},
	{"ami.ingest_us_p99", "us"},
	{"ami.wal_sync_us_p99", "us"},
	{"ami.wal_records", "count"},
	{"ami.shard_queue_depth_max", "count"},
	{"ami.store_lag_us_p50", "us"},
	{"ami.store_lag_us_p99", "us"},
	{"serve.sink_us_p99", "us"},
	{"serve.queue_wait_us_p50", "us"},
	{"serve.queue_wait_us_p99", "us"},
	{"serve.alert_write_us_p99", "us"},
	{"serve.observed", "count"},
	{"serve.missing", "count"},
	{"serve.stale", "count"},
	{"serve.dropped", "count"},
	{"serve.alerts_high", "count"},
	{"detect.observe_ns_p50", "ns"},
	{"detect.observe_ns_p99", "ns"},
	{"detect.observes", "count"},
	{"detect.train_ms", "ms"},
	{"dataset.fleet_generate_s", "s"},
	{"runtime.alloc_bytes_per_reading", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"gen.offered_per_s", "1/s"},
	{"gen.late_ms_p99", "ms"},
}, paperLayer...)

func fleetWorkload(shape fleetShape) workload {
	return workload{
		name:  shape.name,
		why:   shape.why,
		e2e:   fleetE2E,
		layer: fleetLayer,
		measure: func(cfg runConfig, traced bool) (*outcome, error) {
			return runFleet(shape, cfg, traced)
		},
	}
}

// fleetMeters sizes the fleet so the live traffic at the offered rate
// lasts the timed phase: meters × liveSlots readings at rate per second.
// The count is a multiple of the session count, so every session serves
// the same number of meters.
func fleetMeters(rate, seconds float64, sessions int) int {
	n := int(math.Ceil(rate * seconds / liveSlots / float64(sessions)))
	if least := (8 + sessions - 1) / sessions; n < least {
		n = least
	}
	return n * sessions
}

// fleet is one synthetic meter population and its live traffic. The
// generator and the server child each build it from the same spec.
type fleet struct {
	sp        childSpec
	ds        *dataset.Dataset
	ids       []string
	index     map[string]int
	liveStart int // global slot of the first live reading
	nTheft    int
}

// newFleet synthesizes the population of a spec.
func newFleet(sp childSpec) (*fleet, error) {
	ds, err := dataset.Generate(dataset.Config{
		Residential:  sp.Meters,
		Weeks:        sp.TrainWeeks + liveWeeks,
		VacationRate: 0.005,
		PartyRate:    0.004,
		Seed:         sp.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("generating fleet: %w", err)
	}
	f := &fleet{sp: sp, ds: ds, ids: make([]string, sp.Meters), index: make(map[string]int, sp.Meters),
		liveStart: sp.TrainWeeks * timeseries.SlotsPerWeek, nTheft: sp.Meters / theftDivisor}
	for m := range f.ids {
		f.ids[m] = fmt.Sprintf("meter-%05d", m)
		f.index[f.ids[m]] = m
	}
	return f, nil
}

// kw is the reading meter m reports at live offset j: its demand, or zero
// for a thief in the theft week.
func (f *fleet) kw(m, j int) float64 {
	if m < f.nTheft && j >= timeseries.SlotsPerWeek {
		return 0
	}
	return f.ds.Consumers[m].Demand[f.liveStart+j]
}

// framesPerMeter is how many frames carry one meter's live traffic.
func (f *fleet) framesPerMeter() int { return liveSlots / f.sp.Batch }

// frames is the schedule length.
func (f *fleet) frames() int { return f.sp.Meters * f.framesPerMeter() }

// frameIndex is the schedule position of the frame carrying meter m's
// live offset j. Frames are time-major across the fleet: every meter's
// first frame, then every meter's second, and so on.
func (f *fleet) frameIndex(m, j int) int { return (j/f.sp.Batch)*f.sp.Meters + m }

// streams trains one compact KLD stream per meter on its training weeks,
// seeded with the last training week, exactly as `fdeta serve` does.
func (f *fleet) streams() ([]detect.StreamDetector, error) {
	out := make([]detect.StreamDetector, len(f.ids))
	for m := range out {
		train := f.ds.Consumers[m].Demand[:f.liveStart]
		d, err := detect.NewKLDDetector(train, serveKLD)
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", f.ids[m], err)
		}
		sd, err := d.NewCompactStream(train.MustWeek(f.sp.TrainWeeks - 1))
		if err != nil {
			return nil, fmt.Errorf("seeding %s: %w", f.ids[m], err)
		}
		out[m] = sd
	}
	return out, nil
}

// frameRec is the generator's record of one scheduled frame, in wall-clock
// nanoseconds.
type frameRec struct {
	start int64 // the session began working on the frame
	bound int64 // Bind returned; SendBatch starts
	ack   int64 // the batch ack arrived
	ok    bool
}

// generator sends the schedule open-loop: frame k is due at t0 + k×interval
// whether or not earlier frames were acknowledged. Each meter is pinned to
// one session (meter m to session m mod sessions), so per-meter order holds.
type generator struct {
	f        *fleet
	addr     string
	sessions []*ami.Client
	t0       int64
	interval float64 // nanoseconds between consecutive frames
	recs     []frameRec
}

// newGenerator dials one wire-v2 session per sending goroutine, each bound
// to its first meter.
func newGenerator(f *fleet, addr string, sessions int, rate float64) (*generator, error) {
	g := &generator{f: f, addr: addr, interval: float64(f.sp.Batch) / rate * 1e9,
		recs: make([]frameRec, f.frames())}
	for p := 0; p < sessions; p++ {
		c, err := ami.DialBatch(addr, f.ids[p], fleetKey, opTimeout)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("dialing session %d: %w", p, err)
		}
		g.sessions = append(g.sessions, c)
	}
	return g, nil
}

func (g *generator) close() {
	for _, c := range g.sessions {
		if c != nil {
			_ = c.Close()
		}
	}
}

// due is frame k's scheduled send time.
func (g *generator) due(k int) int64 { return g.t0 + int64(float64(k)*g.interval) }

// windowNS is the length of one of the schedule's windows.
func (g *generator) windowNS() int64 {
	return int64(float64(len(g.recs)) * g.interval / windows)
}

// window is the schedule window a due time falls in.
func (g *generator) window(due int64) int {
	w := int((due - g.t0) / g.windowNS())
	if w < 0 {
		return 0
	}
	if w >= windows {
		return windows - 1
	}
	return w
}

// run sends the whole schedule from t0 and returns once every session is
// done. It returns the number of frames that failed.
func (g *generator) run() int64 {
	var wg sync.WaitGroup
	failed := make([]int64, len(g.sessions))
	for p := range g.sessions {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			failed[p] = g.session(p)
		}(p)
	}
	wg.Wait()
	var n int64
	for _, x := range failed {
		n += x
	}
	return n
}

// session sends every frame of the meters pinned to session p. A failed
// frame closes the connection; the next frame redials.
func (g *generator) session(p int) (failed int64) {
	f := g.f
	n := f.sp.Meters
	c, bound := g.sessions[p], p
	rs := make([]meter.Reading, f.sp.Batch)
	for k := p; k < len(g.recs); k += len(g.sessions) {
		sleepUntil(g.due(k))
		m, j0 := k%n, (k/n)*f.sp.Batch
		rec := frameRec{start: now()}
		var err error
		if c == nil {
			c, err = ami.DialBatch(g.addr, f.ids[m], fleetKey, opTimeout)
			bound = m
		} else if bound != m {
			err = c.Bind(f.ids[m])
			bound = m
		}
		if err == nil {
			rec.bound = now()
			for i := range rs {
				j := j0 + i
				rs[i] = meter.Reading{MeterID: f.ids[m], Slot: timeseries.Slot(f.liveStart + j), KW: f.kw(m, j)}
			}
			err = c.SendBatch(rs)
			rec.ack = now()
		}
		if err != nil {
			failed++
			if c != nil {
				_ = c.Close()
			}
			c = nil
		} else {
			rec.ok = true
		}
		g.recs[k] = rec
	}
	g.sessions[p] = c
	return failed
}

// sleepUntil blocks until the wall clock reaches t. It sleeps the thread
// with nanosleep because the runtime's timers round sleeps below a
// millisecond up to one, which would show up as generator lateness.
func sleepUntil(t int64) {
	for d := t - now(); d > 0; d = t - now() {
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is resumed by the loop
	}
}

// runFleet measures one fleet workload: run the paper evaluation, set up
// the server child, drive the schedule against it, drain it, and check the
// oracles.
func runFleet(shape fleetShape, cfg runConfig, traced bool) (*outcome, error) {
	sessions := runtime.NumCPU()
	rate := shape.rate
	if cfg.rate > 0 {
		rate = cfg.rate
	}
	meters := fleetMeters(rate, cfg.seconds, sessions)
	dir, err := os.MkdirTemp(cfg.outDir, shape.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	stride := meters / verdictSample
	if stride < 1 {
		stride = 1
	}
	sp := childSpec{Seed: cfg.seed, Meters: meters, Batch: shape.batch, TrainWeeks: trainWeeks,
		Shards: fleetShards, Stride: stride, Dir: filepath.Join(dir, "server"), Trace: traced}
	if traced {
		sp.SpanFile = filepath.Join(cfg.outDir, "spans-"+shape.name+".csv")
	}

	o := newOutcome()
	evalSteps, err := runPaperEval(o, cfg)
	if err != nil {
		return nil, err
	}
	// Hand the evaluation's memory back before the fleet starts.
	debug.FreeOSMemory()

	cfg.logf("%s: %d meters, %d sessions, %.0f readings/s offered, traced=%v", shape.name, meters, sessions, rate, traced)
	f, err := newFleet(sp)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}

	// Collect the generator's garbage now, so its collector does not
	// compete with the server's set-up for the CPUs.
	runtime.GC()
	c, ready, err := startChild(exe, sp)
	if err != nil {
		return nil, err
	}
	defer c.kill()
	cfg.logf("%s: %d set-ups, median %.3f s", shape.name, len(ready.Setups), ready.medianPhase(""))

	gen, err := newGenerator(f, ready.Addr, sessions, rate)
	if err != nil {
		return nil, err
	}
	defer gen.close()
	gen.t0 = now() + int64(startLead)
	if err := c.call(command{Cmd: "start", T0: gen.t0, WindowNS: gen.windowNS()}, new(struct{})); err != nil {
		return nil, err
	}
	failed := gen.run()
	spots := pickSpots(gen, cfg.seed)
	var rep childReport
	if err := c.call(command{Cmd: "finish", Spot: spots}, &rep); err != nil {
		return nil, err
	}
	if err := c.wait(); err != nil {
		return nil, err
	}
	gen.close()

	o.attempted = int64(len(gen.recs))
	o.failed = failed
	if failed > 0 {
		o.fail("%d of %d frames failed or were refused", failed, len(gen.recs))
	}
	events, err := readAlertLog(filepath.Join(sp.Dir, alertLogName))
	if err != nil {
		return nil, err
	}
	fleetMetrics(o, gen, &rep, events)
	o.e2e["setup_s"] = ready.medianPhase("")
	o.layer["dataset.fleet_generate_s"] = ready.medianPhase("setup.generate")
	o.layer["detect.train_ms"] = ready.medianPhase("setup.train") * 1e3

	// Oracles.
	checkDrain(o, &rep, ackedReadings(gen))
	checkSpots(o, f, spots, rep.Spot)
	want, err := referenceAlerts(f, gen)
	if err != nil {
		return nil, err
	}
	if err := compareAlerts(alertKeys(events), alertKeys(want)); err != nil {
		o.fail("alert log differs from the reference server: %v", err)
	}
	if rep.AlertsHigh == 0 {
		o.fail("no HIGH alert fired in the theft week")
	}
	if rep.AuthFailed > 0 || rep.Rejected > 0 {
		o.fail("head-end refused %d frames on MAC checks and %d on protocol", rep.AuthFailed, rep.Rejected)
	}

	if traced {
		if err := appendGeneratorSpans(sp.SpanFile, evalSteps, gen); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// ackedReadings counts the readings the generator saw acknowledged.
func ackedReadings(g *generator) int64 {
	var n int64
	for _, r := range g.recs {
		if r.ok {
			n += int64(g.f.sp.Batch)
		}
	}
	return n
}

// fleetMetrics fills the end-to-end and per-layer metrics of a fleet run
// from the generator's records, the server's report and its alert log.
func fleetMetrics(o *outcome, g *generator, rep *childReport, events []serve.AlertEvent) {
	f := g.f
	var ack, late, bind, send, storeLag []int64
	ackW, verdictW := make([][]int64, windows), make([][]int64, windows)
	var lastAck, firstStart, lastStart int64
	for k, r := range g.recs {
		if r.start > 0 && (firstStart == 0 || r.start < firstStart) {
			firstStart = r.start
		}
		if r.start > lastStart {
			lastStart = r.start
		}
		if !r.ok {
			continue
		}
		due := g.due(k)
		ack = append(ack, r.ack-due)
		ackW[g.window(due)] = append(ackW[g.window(due)], r.ack-due)
		late = append(late, r.start-due)
		bind = append(bind, r.bound-r.start)
		send = append(send, r.ack-r.bound)
		if r.ack > lastAck {
			lastAck = r.ack
		}
		if len(rep.Handoff) == len(g.recs) && rep.Handoff[k] > 0 {
			storeLag = append(storeLag, rep.Handoff[k]-r.ack)
		}
	}
	acked := ackedReadings(g)
	o.e2e["readings_per_s"] = float64(acked) / (float64(lastAck-g.t0) / 1e9)
	a := quantiles(ack, 0.99)
	o.e2e["ack_p50_ms"], o.layer["ack_p99_ms"] = windowedMedian(ackW, 0.5)/1e6, a[0]/1e6

	var verdict []int64
	for _, s := range rep.Samples {
		for j, t := range s.Stamps {
			due := g.due(f.frameIndex(s.Meter, j))
			verdict = append(verdict, t-due)
			verdictW[g.window(due)] = append(verdictW[g.window(due)], t-due)
		}
	}
	v := quantiles(verdict, 0.99)
	o.e2e["verdict_p50_ms"], o.layer["verdict_p99_ms"] = windowedMedian(verdictW, 0.5)/1e6, v[0]/1e6

	var lag []int64
	if len(rep.AlertEnds) == len(events) {
		for i, e := range events {
			m, ok := f.index[e.Consumer]
			j := int(e.Slot) - f.liveStart
			if !ok || j < 0 || j >= liveSlots {
				continue
			}
			lag = append(lag, rep.AlertEnds[i]-g.due(f.frameIndex(m, j)))
		}
	} else {
		o.fail("alert log holds %d lines but the writer saw %d writes", len(events), len(rep.AlertEnds))
	}
	al := quantiles(lag, 0.5, 0.9)
	o.e2e["alert_lag_p50_ms"], o.layer["alert_lag_p90_ms"] = al[0]/1e6, al[1]/1e6
	if len(lag) == 0 {
		o.fail("no alert events to time alert lag on")
	}

	var perReading []float64
	for w := 1; w < len(rep.WindowCPUNS) && w < len(rep.WindowAccepted); w++ {
		if n := rep.WindowAccepted[w] - rep.WindowAccepted[w-1]; n > 0 {
			perReading = append(perReading, float64(rep.WindowCPUNS[w]-rep.WindowCPUNS[w-1])/1e3/float64(n))
		}
	}
	o.e2e["cpu_us_per_reading"] = median(perReading)
	o.e2e["server_rss_mb"] = float64(rep.PeakRSSBytes) / 1e6
	o.layer["error_share"] = float64(o.failed) / float64(len(g.recs))

	s := quantiles(send, 0.5, 0.99)
	o.layer["ami.send_us_p50"], o.layer["ami.send_us_p99"] = s[0]/1e3, s[1]/1e3
	b := quantiles(bind, 0.5, 0.99)
	o.layer["ami.bind_us_p50"], o.layer["ami.bind_us_p99"] = b[0]/1e3, b[1]/1e3
	o.layer["ami.ingest_us_p99"] = rep.IngestP99S * 1e6
	o.layer["ami.wal_sync_us_p99"] = rep.WALSyncP99S * 1e6
	o.layer["ami.wal_records"] = float64(rep.WALRecords)
	o.layer["ami.shard_queue_depth_max"] = rep.QueueDepthMax
	sl := quantiles(storeLag, 0.5, 0.99)
	o.layer["ami.store_lag_us_p50"], o.layer["ami.store_lag_us_p99"] = sl[0]/1e3, sl[1]/1e3
	o.layer["serve.sink_us_p99"] = rep.SinkP99NS / 1e3
	o.layer["serve.queue_wait_us_p50"] = rep.QueueWaitP50NS / 1e3
	o.layer["serve.queue_wait_us_p99"] = rep.QueueWaitP99NS / 1e3
	o.layer["serve.alert_write_us_p99"] = rep.AlertWriteP99NS / 1e3
	o.layer["serve.observed"] = float64(rep.Observed)
	o.layer["serve.missing"] = float64(rep.Missing)
	o.layer["serve.stale"] = float64(rep.Stale)
	o.layer["serve.dropped"] = float64(rep.Dropped)
	o.layer["serve.alerts_high"] = float64(rep.AlertsHigh)
	o.layer["detect.observe_ns_p50"] = rep.ObserveP50NS
	o.layer["detect.observe_ns_p99"] = rep.ObserveP99NS
	o.layer["detect.observes"] = float64(rep.Observes)
	o.layer["runtime.alloc_bytes_per_reading"] = float64(rep.AllocBytes) / float64(acked)
	o.layer["runtime.gc_cycles"] = float64(rep.GCCycles)
	o.layer["runtime.gc_pause_ms"] = float64(rep.GCPauseNS) / 1e6
	o.layer["gen.offered_per_s"] = float64(acked) / (float64(lastStart-firstStart) / 1e9)
	lt := quantiles(late, 0.99)
	o.layer["gen.late_ms_p99"] = lt[0] / 1e6
}

// windowedMedian is the median, over the windows holding at least
// minWindowSamples samples, of each window's q-quantile.
func windowedMedian(ws [][]int64, q float64) float64 {
	var per []float64
	for _, w := range ws {
		if len(w) >= minWindowSamples {
			per = append(per, quantiles(w, q)[0])
		}
	}
	return median(per)
}

// minWindowSamples is the fewest samples a window needs to count.
const minWindowSamples = 20

// pickSpots draws acked readings to read back from the server's store, as
// (meter index, slot) pairs.
func pickSpots(g *generator, seed int64) [][2]int64 {
	f := g.f
	rng := rand.New(rand.NewSource(seed))
	var out [][2]int64
	for tries := 0; len(out) < spotChecks && tries < 50*spotChecks; tries++ {
		m, j := rng.Intn(f.sp.Meters), rng.Intn(liveSlots)
		if g.recs[f.frameIndex(m, j)].ok {
			out = append(out, [2]int64{int64(m), int64(f.liveStart + j)})
		}
	}
	return out
}

// checkDrain is the drain oracle: after the head-end and the service have
// drained, the service observed exactly what the head-end accepted, dropped
// nothing, and the head-end accepted every reading the generator saw acked.
func checkDrain(o *outcome, rep *childReport, acked int64) {
	if rep.Observed != rep.Accepted {
		o.fail("serve observed %d readings, head-end accepted %d", rep.Observed, rep.Accepted)
	}
	if rep.Dropped != 0 {
		o.fail("serve dropped %d readings", rep.Dropped)
	}
	if rep.Accepted < acked {
		o.fail("head-end accepted %d readings, generator saw %d acked", rep.Accepted, acked)
	}
}

// checkSpots is the store oracle: every sampled acked reading is in the
// store with the exact value sent.
func checkSpots(o *outcome, f *fleet, spots [][2]int64, got []spotValue) {
	if len(got) != len(spots) {
		o.fail("store spot check returned %d values for %d readings", len(got), len(spots))
		return
	}
	bad := 0
	for i, s := range spots {
		want := f.kw(int(s[0]), int(s[1])-f.liveStart)
		if !got[i].Found || math.Float64bits(got[i].KW) != math.Float64bits(want) {
			bad++
		}
	}
	if bad > 0 {
		o.fail("%d of %d acked readings spot-checked are missing or wrong in the store", bad, len(spots))
	}
}

// referenceAlerts runs a reference serve.Server — no wire, WAL or shards —
// fed every acked frame straight through its sink, and returns its alert
// log.
func referenceAlerts(f *fleet, g *generator) ([]serve.AlertEvent, error) {
	var log bytes.Buffer
	srv, err := serve.New(serve.WithAlertPolicy(servePolicy), serve.WithAlertLog(&log))
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	streams, err := f.streams()
	if err != nil {
		return nil, err
	}
	for m, sd := range streams {
		if err := srv.Register(f.ids[m], sd, int64(f.liveStart)); err != nil {
			return nil, err
		}
	}
	sink := srv.Sink()
	rs := make([]ami.BatchReading, f.sp.Batch)
	for m := range f.ids {
		for j0 := 0; j0 < liveSlots; j0 += f.sp.Batch {
			if !g.recs[f.frameIndex(m, j0)].ok {
				continue
			}
			for i := range rs {
				rs[i] = ami.BatchReading{Slot: int64(f.liveStart + j0 + i), KW: f.kw(m, j0+i)}
			}
			sink(f.ids[m], rs)
		}
	}
	if err := srv.Close(); err != nil {
		return nil, err
	}
	return parseAlertLog(log.Bytes())
}

// alertKey is the part of an alert event the oracle compares: sequence
// numbers and timestamps differ between any two runs.
type alertKey struct {
	Consumer string
	Slot     int64
	Tier     string
	Streak   int
}

func alertKeys(events []serve.AlertEvent) []alertKey {
	out := make([]alertKey, len(events))
	for i, e := range events {
		out[i] = alertKey{e.Consumer, e.Slot, e.Tier, e.Streak}
	}
	return out
}

// compareAlerts is the alert oracle: the two logs are equal as multisets
// of (consumer, slot, tier, streak).
func compareAlerts(got, want []alertKey) error {
	count := make(map[alertKey]int, len(want))
	for _, k := range want {
		count[k]++
	}
	for _, k := range got {
		count[k]--
	}
	var extra, missing int
	var example string
	for k, c := range count {
		switch {
		case c < 0:
			extra += -c
		case c > 0:
			missing += c
		default:
			continue
		}
		if example == "" {
			example = fmt.Sprintf("%s slot %d %s streak %d", k.Consumer, k.Slot, k.Tier, k.Streak)
		}
	}
	if extra+missing > 0 {
		return fmt.Errorf("%d events extra, %d missing of %d (e.g. %s)", extra, missing, len(want), example)
	}
	return nil
}

// readAlertLog parses a JSONL alert log file.
func readAlertLog(path string) ([]serve.AlertEvent, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseAlertLog(b)
}

func parseAlertLog(b []byte) ([]serve.AlertEvent, error) {
	var out []serve.AlertEvent
	for _, line := range bytes.Split(b, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e serve.AlertEvent
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("alert log line %q: %w", line, err)
		}
		out = append(out, e)
	}
	return out, nil
}
