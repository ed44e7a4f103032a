package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/ami"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/timeseries"
)

// childArg re-executes the benchmark binary as the server under test, so
// the server's CPU time and RSS are its own.
const childArg = "--serve-child"

// alertLogName is the service's JSONL alert log inside the run directory.
const alertLogName = "alerts.jsonl"

// The head-end instruments the benchmark reads from its registry snapshot.
const (
	metricIngestLatency   = "fdeta_ami_ingest_latency_seconds"
	metricWALSync         = "fdeta_ami_wal_sync_seconds"
	metricWALAppended     = "fdeta_ami_wal_appended_total"
	metricShardQueueDepth = "fdeta_ami_shard_queue_depth"
)

// queuePoll is how often a traced run samples the shard queue depth.
const queuePoll = 5 * time.Millisecond

// childSpec is everything the server child needs to rebuild the fleet the
// generator drives.
type childSpec struct {
	Seed       int64  `json:"seed"`
	Meters     int    `json:"meters"`
	Batch      int    `json:"batch"`
	TrainWeeks int    `json:"train_weeks"`
	Shards     int    `json:"shards"`
	Stride     int    `json:"stride"`    // every Stride-th meter carries the verdict stamps
	Dir        string `json:"dir"`       // WAL and alert log
	SpanFile   string `json:"span_file"` // traced runs: the server's spans go here
	Trace      bool   `json:"trace"`
}

// phase is one timed set-up step of the server child.
type phase struct {
	Name  string `json:"name"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
}

// readyMsg is the child's first line: it is listening on Addr. Setups holds
// the steps of every set-up the child made; the last one serves the load.
type readyMsg struct {
	Addr   string    `json:"addr"`
	Setups [][]phase `json:"setups"`
}

// phaseDur is the length of the named step of one set-up, or of the whole
// set-up for "".
func phaseDur(steps []phase, name string) time.Duration {
	if name == "" && len(steps) > 0 {
		return time.Duration(steps[len(steps)-1].End - steps[0].Start)
	}
	for _, p := range steps {
		if p.Name == name {
			return time.Duration(p.End - p.Start)
		}
	}
	return 0
}

// medianPhase is the median over the set-ups of phaseDur, in seconds.
func (r readyMsg) medianPhase(name string) float64 {
	var xs []float64
	for _, steps := range r.Setups {
		xs = append(xs, phaseDur(steps, name).Seconds())
	}
	return median(xs)
}

// command is one line from the generator to the child: "start" opens the
// timed phase, "finish" drains and reports.
type command struct {
	Cmd      string     `json:"cmd"`
	T0       int64      `json:"t0,omitempty"`        // start: first due time
	WindowNS int64      `json:"window_ns,omitempty"` // start: schedule window length
	Spot     [][2]int64 `json:"spot,omitempty"`      // finish: (meter index, slot) to read back
}

type spotValue struct {
	Found bool    `json:"found"`
	KW    float64 `json:"kw"`
}

// sampleStamps are the verdict stamps of one sampled consumer: when the
// stream's j-th live observation returned.
type sampleStamps struct {
	Meter  int     `json:"meter"`
	Stamps []int64 `json:"stamps"`
}

// childReport is the child's last line, written after the drain.
type childReport struct {
	Accepted   int64 `json:"accepted"`
	Rejected   int64 `json:"rejected"`
	AuthFailed int64 `json:"auth_failed"`
	Observed   int64 `json:"observed"`
	Missing    int64 `json:"missing"`
	Stale      int64 `json:"stale"`
	Dropped    int64 `json:"dropped"`
	AlertsHigh int64 `json:"alerts_high"`

	Spot []spotValue `json:"spot"`

	// CPU time (user+sys) and accepted readings at each schedule window
	// boundary.
	WindowCPUNS    []int64 `json:"window_cpu_ns"`
	WindowAccepted []int64 `json:"window_accepted"`
	// PeakRSSBytes is the peak resident set size from the start of the
	// timed phase to the end of the drain; set-up's peak is reset first.
	PeakRSSBytes int64  `json:"peak_rss_bytes"`
	AllocBytes   uint64 `json:"alloc_bytes"`
	GCCycles     uint32 `json:"gc_cycles"`
	GCPauseNS    uint64 `json:"gc_pause_ns"`

	Samples   []sampleStamps `json:"samples"`
	AlertEnds []int64        `json:"alert_ends"` // when each alert-log line was written

	IngestP99S  float64 `json:"ingest_p99_s"`
	WALSyncP99S float64 `json:"wal_sync_p99_s"`
	WALRecords  int64   `json:"wal_records"`

	// Traced runs only.
	QueueDepthMax   float64 `json:"queue_depth_max"`
	Handoff         []int64 `json:"handoff"` // per frame: the shard worker handed it to serve
	SinkP99NS       float64 `json:"sink_p99_ns"`
	QueueWaitP50NS  float64 `json:"queue_wait_p50_ns"`
	QueueWaitP99NS  float64 `json:"queue_wait_p99_ns"`
	ObserveP50NS    float64 `json:"observe_p50_ns"`
	ObserveP99NS    float64 `json:"observe_p99_ns"`
	Observes        int64   `json:"observes"`
	AlertWriteP99NS float64 `json:"alert_write_p99_ns"`
}

// child is the generator's handle on a running server child.
type child struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *os.File
	dec  *json.Decoder
	done chan error // receives cmd.Wait's result once
	err  error
	exit bool
}

// startChild starts a server child and waits until it listens.
func startChild(exe string, sp childSpec) (*child, readyMsg, error) {
	spec, err := json.Marshal(sp)
	if err != nil {
		return nil, readyMsg{}, err
	}
	cmd := exec.Command(exe, childArg, string(spec))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, readyMsg{}, err
	}
	// A pipe of our own rather than StdoutPipe: Wait closes StdoutPipe's
	// read end as soon as the child exits, racing the read of its report.
	out, outW, err := os.Pipe()
	if err != nil {
		return nil, readyMsg{}, err
	}
	cmd.Stdout = outW
	err = cmd.Start()
	outW.Close()
	if err != nil {
		out.Close()
		return nil, readyMsg{}, fmt.Errorf("starting server child: %w", err)
	}
	c := &child{cmd: cmd, in: in, out: out, dec: json.NewDecoder(bufio.NewReaderSize(out, 1<<20)), done: make(chan error, 1)}
	go func() { c.done <- cmd.Wait() }()
	var ready readyMsg
	if err := c.recv(&ready); err != nil {
		c.kill()
		return nil, readyMsg{}, fmt.Errorf("server child never became ready: %w", err)
	}
	return c, ready, nil
}

// recv decodes the child's next line, giving up (and killing the child)
// after childTimeout.
func (c *child) recv(v any) error {
	got := make(chan error, 1)
	go func() { got <- c.dec.Decode(v) }()
	t := time.NewTimer(childTimeout)
	defer t.Stop()
	select {
	case err := <-got:
		return err
	case <-t.C:
		c.kill()
		<-got
		return fmt.Errorf("server child silent for %v", childTimeout)
	}
}

// childTimeout bounds every wait on the server child.
const childTimeout = 120 * time.Second

// call sends a command and decodes the child's answer.
func (c *child) call(cmd command, v any) error {
	b, err := json.Marshal(cmd)
	if err != nil {
		return err
	}
	if _, err := c.in.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("sending %s: %w", cmd.Cmd, err)
	}
	return c.recv(v)
}

// wait waits for the child to exit on its own, killing it after
// childTimeout.
func (c *child) wait() error {
	if c.exit {
		return c.err
	}
	_ = c.in.Close()
	t := time.NewTimer(childTimeout)
	defer t.Stop()
	select {
	case c.err = <-c.done:
	case <-t.C:
		_ = c.cmd.Process.Kill()
		c.err = <-c.done
		if c.err == nil {
			c.err = errors.New("server child did not exit")
		}
	}
	c.exit = true
	c.out.Close()
	if c.err != nil {
		return fmt.Errorf("server child: %w", c.err)
	}
	return nil
}

// kill stops the child if it is still running and reaps it.
func (c *child) kill() {
	if c.exit {
		return
	}
	_ = c.in.Close()
	_ = c.cmd.Process.Kill()
	c.err = <-c.done
	c.exit = true
	c.out.Close()
}

// server is one set-up of the server under test: a WAL-backed, MAC-checked
// sharded head-end sinking into a serve.Server with one compact KLD stream
// per meter, and the benchmark's wrappers around them.
type server struct {
	f       *fleet
	srv     *serve.Server
	head    *ami.ShardedHeadEnd
	logFile *os.File
	alerts  *alertWriter
	samples []*stampStream
	timed   []*timedStream
	// handoff and sinkNS are per frame, traced runs only.
	handoff, sinkNS []int64
	addr            string
	steps           []phase
}

// setUp builds the server of a spec in an empty sp.Dir: it synthesizes the
// fleet, trains its detectors, registers them, opens the WAL and listens on
// loopback, timing each step.
func setUp(sp childSpec) (*server, error) {
	s := &server{}
	mark := func(name string, start int64) int64 {
		end := now()
		s.steps = append(s.steps, phase{name, start, end})
		return end
	}

	t := now()
	f, err := newFleet(sp)
	if err != nil {
		return nil, err
	}
	t = mark("setup.generate", t)
	streams, err := f.streams()
	if err != nil {
		return nil, err
	}
	f.ds = nil // the streams are self-contained; release the population
	s.f = f
	t = mark("setup.train", t)

	if err := os.MkdirAll(sp.Dir, 0o755); err != nil {
		return nil, err
	}
	if s.logFile, err = os.Create(filepath.Join(sp.Dir, alertLogName)); err != nil {
		return nil, err
	}
	s.alerts = &alertWriter{f: s.logFile}
	if s.srv, err = serve.New(serve.WithAlertPolicy(servePolicy), serve.WithAlertLog(s.alerts)); err != nil {
		s.logFile.Close()
		return nil, err
	}
	for m, sd := range streams {
		if sp.Trace {
			ts := newTimedStream(sd)
			s.timed = append(s.timed, ts)
			sd = ts
		}
		if m%sp.Stride == 0 {
			ss := &stampStream{StreamDetector: sd, meter: m, stamps: make([]int64, 0, liveSlots)}
			s.samples = append(s.samples, ss)
			sd = ss
		}
		if err := s.srv.Register(f.ids[m], sd, int64(f.liveStart)); err != nil {
			s.close()
			return nil, err
		}
	}
	t = mark("setup.register", t)

	keys := make(map[string][]byte, len(f.ids))
	for _, id := range f.ids {
		keys[id] = fleetKey
	}
	sink := s.srv.Sink()
	if sp.Trace {
		s.handoff, s.sinkNS = make([]int64, f.frames()), make([]int64, f.frames())
		serveSink := sink
		sink = func(meterID string, rs []ami.BatchReading) {
			start := now()
			serveSink(meterID, rs)
			k := f.frameIndex(f.index[meterID], int(rs[0].Slot)-f.liveStart)
			s.handoff[k], s.sinkNS[k] = start, now()-start
		}
	}
	s.head = ami.NewSharded(sp.Shards,
		ami.WithWAL(filepath.Join(sp.Dir, "wal")),
		ami.WithWALSync(ami.WALSyncInterval),
		ami.WithKeyring(ami.NewKeyring(keys)),
		ami.WithSink(sink))
	if s.addr, err = s.head.Listen("127.0.0.1:0"); err != nil {
		s.close()
		return nil, err
	}
	mark("setup.listen", t)
	return s, nil
}

// close shuts the server down in production drain order, head-end first,
// and reports the first error.
func (s *server) close() error {
	var err error
	if s.head != nil {
		err = s.head.Close()
	}
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	if cerr := s.logFile.Close(); err == nil {
		err = cerr
	}
	return err
}

// setUpRepeatedly sets the server up at least setupRepeats times and for at
// least setupSpan, each time in a fresh sp.Dir, shutting down all but the
// last set-up, which it returns with the steps of every set-up.
func setUpRepeatedly(sp childSpec) (*server, [][]phase, error) {
	var all [][]phase
	begin := now()
	for {
		if err := os.RemoveAll(sp.Dir); err != nil {
			return nil, nil, err
		}
		s, err := setUp(sp)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, s.steps)
		if len(all) >= setupRepeats && time.Duration(now()-begin) >= setupSpan {
			return s, all, nil
		}
		if err := s.close(); err != nil {
			return nil, nil, err
		}
	}
}

// childMain is the server child: it sets up, reports ready, and follows
// the generator's commands.
func childMain(specJSON string, in io.Reader, out io.Writer) error {
	var sp childSpec
	if err := json.Unmarshal([]byte(specJSON), &sp); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	s, setups, err := setUpRepeatedly(sp)
	if err != nil {
		return err
	}
	defer s.close()
	f, head, srv := s.f, s.head, s.srv

	// Return set-up's garbage to the kernel and restart the peak-RSS count,
	// so the timed phase's peak is its own.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	ready := readyMsg{Addr: s.addr, Setups: setups}
	enc := json.NewEncoder(out)
	if err := enc.Encode(ready); err != nil {
		return err
	}

	var (
		ms0     runtime.MemStats
		poll    *depthPoller
		sampler *windowSampler
		scanner = bufio.NewScanner(in)
	)
	scanner.Buffer(make([]byte, 64<<10), 16<<20)
	for scanner.Scan() {
		var cmd command
		if err := json.Unmarshal(scanner.Bytes(), &cmd); err != nil {
			return fmt.Errorf("command: %w", err)
		}
		switch cmd.Cmd {
		case "start":
			runtime.ReadMemStats(&ms0)
			sampler = startWindowSampler(head, cmd.T0, cmd.WindowNS)
			if sp.Trace {
				poll = startDepthPoller(head.Metrics())
			}
			if err := enc.Encode(struct{}{}); err != nil {
				return err
			}
		case "finish":
			rep := childReport{}
			if poll != nil {
				rep.QueueDepthMax = poll.stop()
			}
			head.Flush()
			srv.Flush()
			if sampler == nil {
				return errors.New("finish before start")
			}
			rep.WindowCPUNS, rep.WindowAccepted, err = sampler.stop()
			if err != nil {
				return err
			}
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			rep.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
			rep.GCCycles = ms1.NumGC - ms0.NumGC
			rep.GCPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
			for _, sp := range cmd.Spot {
				kw, ok := head.Reading(f.ids[sp[0]], timeseries.Slot(sp[1]))
				rep.Spot = append(rep.Spot, spotValue{ok, kw})
			}
			hs := head.Stats()
			rep.Accepted, rep.Rejected, rep.AuthFailed = hs.Accepted, hs.Rejected, hs.AuthFailed
			snap := head.Metrics().Snapshot()
			rep.IngestP99S = histQuantile(snap, metricIngestLatency, 0.99)
			rep.WALSyncP99S = histQuantile(snap, metricWALSync, 0.99)
			rep.WALRecords = int64(snap.Total(metricWALAppended))

			// Production drain order: head-end first, then the service.
			if err := head.Close(); err != nil {
				return err
			}
			if err := srv.Close(); err != nil {
				return err
			}
			st := srv.Stats()
			rep.Observed, rep.Missing, rep.Stale, rep.Dropped, rep.AlertsHigh =
				st.Observed, st.Missing, st.Stale, st.Dropped, st.AlertsHigh
			if rep.PeakRSSBytes, err = peakRSSBytes(); err != nil {
				return err
			}
			for _, ss := range s.samples {
				rep.Samples = append(rep.Samples, sampleStamps{ss.meter, ss.stamps})
			}
			rep.AlertEnds = s.alerts.ends
			if sp.Trace {
				if err := traceReport(&rep, s); err != nil {
					return err
				}
			}
			return enc.Encode(rep)
		default:
			return fmt.Errorf("unknown command %q", cmd.Cmd)
		}
	}
	return scanner.Err()
}

// traceReport fills the traced-only fields of the report and writes the
// server's spans.
func traceReport(rep *childReport, s *server) error {
	f, timed, handoff, alerts := s.f, s.timed, s.handoff, s.alerts
	rep.Handoff = handoff
	var waits, obsDur []int64
	for k, h := range handoff {
		m, j0 := k%f.sp.Meters, (k/f.sp.Meters)*f.sp.Batch
		if ts := timed[m]; h > 0 && j0 < len(ts.start) {
			waits = append(waits, ts.start[j0]-h)
		}
	}
	for _, ts := range timed {
		obsDur = append(obsDur, ts.dur...)
	}
	writes := make([]int64, len(alerts.ends))
	for i := range writes {
		writes[i] = alerts.ends[i] - alerts.starts[i]
	}
	rep.Observes = int64(len(obsDur))
	rep.SinkP99NS = quantileOr0(append([]int64(nil), s.sinkNS...), 0.99)
	rep.QueueWaitP50NS, rep.QueueWaitP99NS = quantileOr0(waits, 0.5), quantileOr0(waits, 0.99)
	rep.ObserveP50NS, rep.ObserveP99NS = quantileOr0(obsDur, 0.5), quantileOr0(obsDur, 0.99)
	rep.AlertWriteP99NS = quantileOr0(writes, 0.99)
	events, err := readAlertLog(filepath.Join(f.sp.Dir, alertLogName))
	if err != nil {
		return err
	}
	return writeServerSpans(s, events)
}

// quantileOr0 is the q-quantile of xs, or 0 when xs is empty (the report
// is JSON, which has no NaN; the generator's oracles flag empty runs).
func quantileOr0(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantiles(xs, q)[0]
}

// histQuantile estimates a quantile of a histogram family, merging its
// label sets (one per shard) bucket by bucket.
func histQuantile(snap obs.Snapshot, name string, q float64) float64 {
	var merged *obs.Metric
	for i := range snap.Metrics {
		m := &snap.Metrics[i]
		if m.Name != name || m.Type != "histogram" {
			continue
		}
		if merged == nil {
			c := *m
			c.Buckets = append([]obs.Bucket(nil), m.Buckets...)
			merged = &c
			continue
		}
		merged.Count += m.Count
		for b := range merged.Buckets {
			merged.Buckets[b].Count += m.Buckets[b].Count
		}
	}
	if merged == nil || merged.Count == 0 {
		return 0
	}
	return obs.Quantile(merged, q)
}

// depthPoller samples the largest shard queue depth while the load runs.
type depthPoller struct {
	done chan struct{}
	wg   sync.WaitGroup
	max  float64
}

func startDepthPoller(reg *obs.Registry) *depthPoller {
	p := &depthPoller{done: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(queuePoll)
		defer tick.Stop()
		for {
			select {
			case <-p.done:
				return
			case <-tick.C:
				snap := reg.Snapshot()
				for _, m := range snap.Metrics {
					if m.Name == metricShardQueueDepth && m.Value > p.max {
						p.max = m.Value
					}
				}
			}
		}
	}()
	return p
}

// stop ends the polling and returns the largest depth seen.
func (p *depthPoller) stop() float64 {
	close(p.done)
	p.wg.Wait()
	return p.max
}

// windowSampler records the process CPU time and the head-end's accepted
// count at every schedule window boundary, t0 + i×window for i = 0..windows.
type windowSampler struct {
	done          chan struct{}
	wg            sync.WaitGroup
	cpu, accepted []int64
	err           error
}

func startWindowSampler(head *ami.ShardedHeadEnd, t0, window int64) *windowSampler {
	s := &windowSampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for i := int64(0); i <= windows; i++ {
			t := time.NewTimer(time.Duration(t0 + i*window - now()))
			select {
			case <-s.done:
				t.Stop()
				return
			case <-t.C:
			}
			c, err := cpuNS()
			if err != nil {
				s.err = err
				return
			}
			s.cpu, s.accepted = append(s.cpu, c), append(s.accepted, head.Stats().Accepted)
		}
	}()
	return s
}

// stop ends the sampling (the schedule is over by now) and returns the
// samples.
func (s *windowSampler) stop() (cpu, accepted []int64, err error) {
	close(s.done)
	s.wg.Wait()
	return s.cpu, s.accepted, s.err
}

// stampStream wraps a sampled consumer's stream and stamps when each
// observation's verdict is ready. It is present in every run, traced or
// not, so verdict latency means the same in both.
type stampStream struct {
	detect.StreamDetector
	meter  int
	stamps []int64
}

func (s *stampStream) Observe(v float64) (detect.Verdict, error) {
	out, err := s.StreamDetector.Observe(v)
	s.stamps = append(s.stamps, now())
	return out, err
}

func (s *stampStream) ObserveStatus(v float64, st timeseries.ReadingStatus) (detect.Verdict, error) {
	out, err := s.StreamDetector.ObserveStatus(v, st)
	s.stamps = append(s.stamps, now())
	return out, err
}

// timedStream times every observation of one consumer (traced runs only).
type timedStream struct {
	detect.StreamDetector
	start, dur []int64
}

func newTimedStream(sd detect.StreamDetector) *timedStream {
	return &timedStream{StreamDetector: sd, start: make([]int64, 0, liveSlots), dur: make([]int64, 0, liveSlots)}
}

func (s *timedStream) Observe(v float64) (detect.Verdict, error) {
	t := now()
	out, err := s.StreamDetector.Observe(v)
	s.start, s.dur = append(s.start, t), append(s.dur, now()-t)
	return out, err
}

func (s *timedStream) ObserveStatus(v float64, st timeseries.ReadingStatus) (detect.Verdict, error) {
	t := now()
	out, err := s.StreamDetector.ObserveStatus(v, st)
	s.start, s.dur = append(s.start, t), append(s.dur, now()-t)
	return out, err
}

// alertWriter is the alert log's writer: it appends to the log file and
// stamps each line. The service serializes its writes.
type alertWriter struct {
	f            *os.File
	mu           sync.Mutex
	starts, ends []int64
}

func (w *alertWriter) Write(p []byte) (int, error) {
	start := now()
	n, err := w.f.Write(p)
	end := now()
	w.mu.Lock()
	w.starts, w.ends = append(w.starts, start), append(w.ends, end)
	w.mu.Unlock()
	return n, err
}
