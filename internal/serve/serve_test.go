package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ami"
	"repro/internal/detect"
	"repro/internal/timeseries"
)

// fakeStream is a scripted StreamDetector: each Observe pops the next
// verdict. It lets alerting tests steer the verdict sequence exactly.
type fakeStream struct {
	mu       sync.Mutex
	verdicts []detect.Verdict
	observed int
	missing  int
	reseeds  int
	failObs  bool
}

func (f *fakeStream) Name() string { return "fake" }

func (f *fakeStream) Observe(v float64) (detect.Verdict, error) {
	return f.ObserveStatus(v, timeseries.StatusOK)
}

func (f *fakeStream) ObserveStatus(_ float64, st timeseries.ReadingStatus) (detect.Verdict, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failObs {
		return detect.Verdict{}, fmt.Errorf("scripted failure")
	}
	if st == timeseries.StatusMissing {
		f.missing++
	} else {
		f.observed++
	}
	if len(f.verdicts) == 0 {
		return detect.Verdict{Score: 0.1, Threshold: 1}, nil
	}
	v := f.verdicts[0]
	f.verdicts = f.verdicts[1:]
	return v, nil
}

func (f *fakeStream) Reason(v detect.Verdict) string { return v.Reason }

func (f *fakeStream) Filled() int { return timeseries.SlotsPerWeek }

func (f *fakeStream) Coverage() float64 { return 1 }

func (f *fakeStream) Reseed(timeseries.Series) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reseeds++
	return nil
}

// repeat scripts n copies of one verdict.
func repeat(v detect.Verdict, n int) []detect.Verdict {
	out := make([]detect.Verdict, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func anomalous(ratio float64) detect.Verdict {
	return detect.Verdict{Anomalous: true, Score: ratio, Threshold: 1, Reason: "scripted"}
}

var normalVerdict = detect.Verdict{Score: 0.2, Threshold: 1}

// feed pushes slots [start, start+n) through the sink for one meter.
func feed(t *testing.T, s *Server, meter string, start int64, vals []float64) {
	t.Helper()
	sink := s.Sink()
	rs := make([]ami.BatchReading, len(vals))
	for i, v := range vals {
		rs[i] = ami.BatchReading{Slot: start + int64(i), KW: v}
	}
	sink(meter, rs)
}

func newTestServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	s, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(WithRetrainInterval(time.Hour)); err == nil {
		t.Error("retrain interval without a retrain func should error")
	}
	if _, err := New(WithAlertPolicy(AlertPolicy{MinStreak: 5, MediumStreak: 3, HighStreak: 9, MediumRatio: 2, HighRatio: 3})); err == nil {
		t.Error("inverted streak ordering should error")
	}
	if _, err := New(WithAlertPolicy(AlertPolicy{MediumRatio: 0.5, HighRatio: 0.6})); err == nil {
		t.Error("ratio <= 1 should error")
	}
}

func TestRegisterDuplicate(t *testing.T) {
	s := newTestServer(t)
	if err := s.Register("c1", &fakeStream{}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("c1", &fakeStream{}, 0); err == nil {
		t.Error("duplicate register should error")
	}
	if err := s.Register("", &fakeStream{}, 0); err == nil {
		t.Error("empty id should error")
	}
	if err := s.Register("c2", nil, 0); err == nil {
		t.Error("nil detector should error")
	}
	if got := s.Consumers(); got != 1 {
		t.Errorf("Consumers() = %d, want 1", got)
	}
}

// TestObserveFlow: accepted readings flow sink -> worker -> stream, with
// gap slots observed as missing and stale slots skipped.
func TestObserveFlow(t *testing.T) {
	s := newTestServer(t)
	fs := &fakeStream{}
	if err := s.Register("c1", fs, 10); err != nil {
		t.Fatal(err)
	}

	feed(t, s, "c1", 10, []float64{1, 2, 3}) // slots 10..12: live
	feed(t, s, "c1", 15, []float64{4})       // gap of 2 -> slots 13,14 missing
	feed(t, s, "c1", 12, []float64{9})       // stale: window moved past
	feed(t, s, "ghost", 0, []float64{1})     // unregistered meter
	s.Flush()

	st := s.Stats()
	if st.Observed != 4 || st.Missing != 2 || st.Stale != 1 || st.Unknown != 1 {
		t.Errorf("stats = %+v, want observed 4 missing 2 stale 1 unknown 1", st)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.observed != 4 || fs.missing != 2 {
		t.Errorf("stream saw observed %d missing %d, want 4 and 2", fs.observed, fs.missing)
	}
}

// TestAlertTiers: persistence escalates LOW -> MEDIUM -> HIGH, and a
// normal verdict emits CLEARED. Events fire on transitions only.
func TestAlertTiers(t *testing.T) {
	var logBuf bytes.Buffer
	s := newTestServer(t,
		WithAlertLog(&logBuf),
		WithAlertPolicy(AlertPolicy{MinStreak: 2, MediumStreak: 4, HighStreak: 6, MediumRatio: 10, HighRatio: 20}),
	)
	script := append(repeat(anomalous(1.1), 7), normalVerdict)
	if err := s.Register("c1", &fakeStream{verdicts: script}, 0); err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, len(script))
	feed(t, s, "c1", 0, vals)
	s.Flush()

	events := s.Alerts(0)
	// Newest first: CLEARED, HIGH(streak 6), MEDIUM(streak 4), LOW(streak 2).
	wantTiers := []string{tierCleared, "HIGH", "MEDIUM", "LOW"}
	if len(events) != len(wantTiers) {
		t.Fatalf("got %d events %+v, want %d", len(events), events, len(wantTiers))
	}
	for i, want := range wantTiers {
		if events[i].Tier != want {
			t.Errorf("event %d tier = %q, want %q", i, events[i].Tier, want)
		}
	}
	if events[1].Streak != 6 || events[3].Streak != 2 {
		t.Errorf("streaks = %d, %d; want HIGH at 6, LOW at 2", events[1].Streak, events[3].Streak)
	}

	// The JSONL log carries the same events, oldest first, one per line.
	var lines []AlertEvent
	sc := bufio.NewScanner(&logBuf)
	for sc.Scan() {
		var e AlertEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		lines = append(lines, e)
	}
	if len(lines) != 4 || lines[0].Tier != "LOW" || lines[3].Tier != tierCleared {
		t.Errorf("JSONL log = %+v, want LOW..CLEARED", lines)
	}

	st := s.Stats()
	if st.AlertsLow != 1 || st.AlertsMedium != 1 || st.AlertsHigh != 1 || st.AlertsClear != 1 {
		t.Errorf("alert counters = %+v, want one per tier", st)
	}
}

// TestAlertSeverityEscalation: a large score/threshold ratio jumps straight
// to HIGH once the minimum streak is met.
func TestAlertSeverityEscalation(t *testing.T) {
	s := newTestServer(t, WithAlertPolicy(AlertPolicy{MinStreak: 2, MediumRatio: 1.5, HighRatio: 2.5, MediumStreak: 100, HighStreak: 200}))
	if err := s.Register("c1", &fakeStream{verdicts: repeat(anomalous(3), 2)}, 0); err != nil {
		t.Fatal(err)
	}
	feed(t, s, "c1", 0, []float64{1, 2})
	s.Flush()
	events := s.Alerts(0)
	if len(events) != 1 || events[0].Tier != "HIGH" {
		t.Fatalf("events = %+v, want a single HIGH", events)
	}
	if events[0].Ratio != 3 {
		t.Errorf("ratio = %g, want 3", events[0].Ratio)
	}
}

// TestMinStreakSuppressesOneOffs: isolated anomalous verdicts below the
// minimum streak never alert.
func TestMinStreakSuppressesOneOffs(t *testing.T) {
	s := newTestServer(t, WithAlertPolicy(AlertPolicy{MinStreak: 3}))
	script := []detect.Verdict{anomalous(5), normalVerdict, anomalous(5), normalVerdict}
	if err := s.Register("c1", &fakeStream{verdicts: script}, 0); err != nil {
		t.Fatal(err)
	}
	feed(t, s, "c1", 0, make([]float64, len(script)))
	s.Flush()
	if events := s.Alerts(0); len(events) != 0 {
		t.Errorf("one-off anomalies alerted: %+v", events)
	}
}

// TestInconclusivePreservesStreak: coverage-gated verdicts neither extend
// nor reset an anomaly streak.
func TestInconclusivePreservesStreak(t *testing.T) {
	s := newTestServer(t, WithAlertPolicy(AlertPolicy{MinStreak: 2, MediumStreak: 50, HighStreak: 60}))
	script := []detect.Verdict{
		anomalous(1.1),
		{Inconclusive: true},
		anomalous(1.1), // streak reaches 2 -> LOW
	}
	if err := s.Register("c1", &fakeStream{verdicts: script}, 0); err != nil {
		t.Fatal(err)
	}
	feed(t, s, "c1", 0, make([]float64, len(script)))
	s.Flush()
	events := s.Alerts(0)
	if len(events) != 1 || events[0].Tier != "LOW" {
		t.Fatalf("events = %+v, want one LOW (inconclusive must not reset the streak)", events)
	}
	if st := s.Stats(); st.Inconclusive != 1 {
		t.Errorf("inconclusive counter = %d, want 1", st.Inconclusive)
	}
}

// TestRetrainSwap: RetrainAll swaps the detector without stopping the
// stream, and a failing re-train keeps the current one.
func TestRetrainSwap(t *testing.T) {
	old1, old2 := &fakeStream{}, &fakeStream{}
	next := &fakeStream{}
	s := newTestServer(t, WithRetrain(func(id string, _ Store, cur detect.StreamDetector) (detect.StreamDetector, error) {
		if id == "c2" {
			return nil, fmt.Errorf("no history")
		}
		if cur != detect.StreamDetector(old1) {
			t.Errorf("re-train got unexpected current detector")
		}
		return next, nil
	}))
	if err := s.Register("c1", old1, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("c2", old2, 0); err != nil {
		t.Fatal(err)
	}

	ok, failed := s.RetrainAll()
	if ok != 1 || failed != 1 {
		t.Fatalf("RetrainAll = (%d ok, %d failed), want (1, 1)", ok, failed)
	}

	// c1 observes on the swapped detector; c2 kept its original.
	feed(t, s, "c1", 0, []float64{1})
	feed(t, s, "c2", 0, []float64{1})
	s.Flush()
	next.mu.Lock()
	gotNext := next.observed
	next.mu.Unlock()
	old2.mu.Lock()
	gotOld2 := old2.observed
	old2.mu.Unlock()
	if gotNext != 1 || gotOld2 != 1 {
		t.Errorf("post-retrain observations: next %d old2 %d, want 1 and 1", gotNext, gotOld2)
	}
}

// TestRetrainLoop: the rolling re-train ticker fires without stopping
// ingestion.
func TestRetrainLoop(t *testing.T) {
	retrained := make(chan string, 8)
	s := newTestServer(t,
		WithRetrainInterval(10*time.Millisecond),
		WithRetrain(func(id string, _ Store, cur detect.StreamDetector) (detect.StreamDetector, error) {
			select {
			case retrained <- id:
			default:
			}
			return cur, nil
		}))
	if err := s.Register("c1", &fakeStream{}, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-retrained:
		if id != "c1" {
			t.Fatalf("re-trained %q, want c1", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retrain loop never fired")
	}
}

// TestCloseDrainsThenDrops: readings delivered before Close stay
// observed, and later sink deliveries are dropped and counted instead.
func TestCloseDrainsThenDrops(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeStream{}
	if err := s.Register("c1", fs, 0); err != nil {
		t.Fatal(err)
	}
	sink := s.Sink()
	feed(t, s, "c1", 0, []float64{1, 2, 3})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sink("c1", []ami.BatchReading{{Slot: 3, KW: 4}})

	st := s.Stats()
	if st.Observed != 3 {
		t.Errorf("observed = %d, want 3 (readings delivered before Close are observed)", st.Observed)
	}
	if st.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", st.Dropped)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// blockingWriter parks every Write until release is closed.
type blockingWriter struct {
	entered, release chan struct{}
	once             sync.Once
}

func (b *blockingWriter) Write(p []byte) (int, error) {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return len(p), nil
}

// TestCloseWaitsForSinkCalls: a sink call still delivering an alert when
// Close begins (past the consumer lock, writing the alert log) finishes
// before Close returns, so the caller may close the log after Close.
func TestCloseWaitsForSinkCalls(t *testing.T) {
	bw := &blockingWriter{entered: make(chan struct{}), release: make(chan struct{})}
	s, err := New(WithAlertPolicy(AlertPolicy{MinStreak: 2, MediumStreak: 50, HighStreak: 60}), WithAlertLog(bw))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("c1", &fakeStream{verdicts: repeat(anomalous(1.2), 2)}, 0); err != nil {
		t.Fatal(err)
	}
	go feed(t, s, "c1", 0, []float64{1, 2})
	<-bw.entered
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a sink call was still writing the alert log")
	case <-time.After(50 * time.Millisecond):
	}
	close(bw.release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Observed != 2 || st.AlertsLow != 1 || st.Dropped != 0 {
		t.Fatalf("observed %d, low alerts %d, dropped %d after Close, want 2/1/0", st.Observed, st.AlertsLow, st.Dropped)
	}
}

// TestKLDRetrainer: the production re-train builds a compact stream from
// store history and refuses thin histories.
func TestKLDRetrainer(t *testing.T) {
	train, _ := serveConsumer(t, 417, 6, 6)
	st := &memStore{series: map[string]timeseries.Series{"c1": train}}

	rf := KLDRetrainer(4, detect.KLDConfig{})
	sd, err := rf("c1", st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Filled() != 0 || sd.Coverage() != 1 {
		t.Errorf("retrained stream filled/coverage = %d/%g, want a fresh fully-trusted window",
			sd.Filled(), sd.Coverage())
	}
	if !strings.Contains(sd.Name(), "kld") {
		t.Errorf("detector name = %q, want a KLD stream", sd.Name())
	}

	if _, err := rf("missing", st, nil); err == nil {
		t.Error("re-train with no history should error")
	}
	if _, err := rf("c1", nil, nil); err == nil {
		t.Error("re-train without a store should error")
	}
}

// seqStream records every value it observes, in order. A re-train hands
// the same log to the replacement stream, so the log is the consumer's
// whole observed sequence across stream swaps.
type seqStream struct{ log *[]float64 }

func (q *seqStream) Name() string { return "seq" }

func (q *seqStream) Observe(v float64) (detect.Verdict, error) {
	*q.log = append(*q.log, v)
	return detect.Verdict{Score: 0.1, Threshold: 1}, nil
}

func (q *seqStream) ObserveStatus(v float64, _ timeseries.ReadingStatus) (detect.Verdict, error) {
	return q.Observe(v)
}

func (q *seqStream) Reason(v detect.Verdict) string { return v.Reason }

func (q *seqStream) Filled() int { return len(*q.log) }

func (q *seqStream) Coverage() float64 { return 1 }

func (q *seqStream) Reseed(timeseries.Series) error { return nil }

// TestPerConsumerOrdering: the sink observes on its caller's goroutine, so
// concurrent callers over disjoint meters (one head-end session per meter)
// must each keep their meters' order, while RetrainAll swaps streams and
// /consumers/{id} reads them.
func TestPerConsumerOrdering(t *testing.T) {
	retrain := func(_ string, _ Store, cur detect.StreamDetector) (detect.StreamDetector, error) {
		return &seqStream{log: cur.(*seqStream).log}, nil
	}
	s := newTestServer(t, WithRetrain(retrain))
	ts := httptest.NewServer(s.Routes())
	defer ts.Close()

	const callers, perCaller, slots, batch = 4, 5, 200, 10
	const meters = callers * perCaller
	logs := make([][]float64, meters)
	for m := range logs {
		if err := s.Register(fmt.Sprintf("m%02d", m), &seqStream{log: &logs[m]}, 0); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.RetrainAll()
			}
		}
	}()
	go func() {
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(fmt.Sprintf("%s/consumers/m%02d", ts.URL, i%meters))
			if err != nil {
				t.Error(err)
				return
			}
			var st ConsumerState
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil || st.Observed != uint64(st.NextSlot) {
				t.Errorf("consumer state %+v (err %v): observed must equal next slot", st, err)
				return
			}
		}
	}()

	// Caller c owns meters c, c+callers, ...; it interleaves them a batch
	// at a time, reusing one readings buffer as a session does.
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sink := s.Sink()
			rs := make([]ami.BatchReading, batch)
			for lo := 0; lo < slots; lo += batch {
				for m := c; m < meters; m += callers {
					for i := range rs {
						rs[i] = ami.BatchReading{Slot: int64(lo + i), KW: float64(lo + i)}
					}
					sink(fmt.Sprintf("m%02d", m), rs)
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	bg.Wait()

	st := s.Stats()
	if st.Observed != meters*slots || st.Missing != 0 || st.Stale != 0 {
		t.Fatalf("observed %d missing %d stale %d, want %d/0/0 (ordering broke)",
			st.Observed, st.Missing, st.Stale, meters*slots)
	}
	if st.Retrains == 0 {
		t.Error("no re-train sweep ran alongside the sinks")
	}
	for m, log := range logs {
		for i, v := range log {
			if v != float64(i) {
				t.Fatalf("m%02d: observation %d carried slot %g (order broken)", m, i, v)
			}
		}
		if len(log) != slots {
			t.Fatalf("m%02d: %d observations, want %d", m, len(log), slots)
		}
	}
}
