package serve

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ami"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// Defaults for the service's sizing knobs.
const (
	// DefaultAlertBuffer is how many recent alert events the /alerts
	// endpoint can replay.
	DefaultAlertBuffer = 1024
	// maxGapFill bounds how many missing-slot observations one gap can
	// inject: beyond a full window the earlier misses carry no additional
	// information (the window is already fully untrusted).
	maxGapFill = timeseries.SlotsPerWeek
)

// Store is the read side of a head-end the service re-trains from;
// *ami.ShardedHeadEnd satisfies it.
type Store interface {
	// Series assembles the dense series [0, n) for a meter; gaps are an
	// error.
	Series(meterID string, n int) (timeseries.Series, error)
	// Count returns the number of stored readings for a meter.
	Count(meterID string) int
}

// RetrainFunc builds a replacement stream detector for one consumer — the
// rolling re-train path. Returning an error keeps the consumer's current
// detector in place.
type RetrainFunc func(consumerID string, store Store, current detect.StreamDetector) (detect.StreamDetector, error)

// Option configures a Server at construction time, mirroring ami.NewSharded.
type Option func(*Server)

// WithStore attaches the head-end store re-trains read history from.
func WithStore(st Store) Option {
	return func(s *Server) { s.store = st }
}

// WithAlertPolicy replaces the default alert tiering policy. Zero-valued
// fields fall back to the defaults.
func WithAlertPolicy(p AlertPolicy) Option {
	return func(s *Server) { s.policy = p }
}

// WithRetrainInterval enables the rolling re-train loop on the given
// cadence (0 disables; the production cadence is a week). Requires
// WithRetrain.
func WithRetrainInterval(d time.Duration) Option {
	return func(s *Server) { s.retrainEvery = d }
}

// WithRetrain sets the re-train builder invoked per consumer by the
// re-train loop and RetrainAll.
func WithRetrain(f RetrainFunc) Option {
	return func(s *Server) { s.retrain = f }
}

// WithMetrics registers the service's instruments on reg instead of a
// private registry, so an admin endpoint can export them.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) {
		if reg != nil {
			s.met = newServeMetrics(reg)
		}
	}
}

// WithAlertLog appends every alert event to w as one JSON object per line
// (the append-only alert log). The caller owns w's lifecycle.
func WithAlertLog(w interface{ Write([]byte) (int, error) }) Option {
	return func(s *Server) { s.alertLog = newJSONLLog(w) }
}

// consumer is the per-meter streaming state. The stream itself dominates
// the footprint; everything else is kept deliberately flat so a
// million-consumer fleet stays within the ~1KB/consumer budget (pinned by
// TestServerMemoryPerConsumer).
type consumer struct {
	mu       sync.Mutex
	id       string
	stream   detect.StreamDetector
	nextSlot int64 // next expected global slot

	streak       uint32 // consecutive anomalous verdicts
	tier         Tier
	observed     uint64
	missing      uint32
	stale        uint32
	errors       uint32
	inconclusive uint32
	alerts       uint32 // escalation events emitted (clears excluded)

	lastScore     float64
	lastThreshold float64
}

// Server is the always-on streaming detection service. Construct with New,
// attach to a head-end via Sink, serve HTTP via Mount/Routes, stop with
// Close (which waits for the sink calls in flight first).
type Server struct {
	policy       AlertPolicy
	store        Store
	retrain      RetrainFunc
	retrainEvery time.Duration
	log          *slog.Logger
	met          *serveMetrics
	alertLog     *jsonlLog
	ring         *alertRing
	hub          *sseHub

	mu        sync.RWMutex // guards consumers
	consumers map[string]*consumer

	sinkMu sync.RWMutex   // serializes sink intake against Close
	closed bool           // guarded by sinkMu
	calls  sync.WaitGroup // sink calls in flight; Close waits for them

	stop     chan struct{} // closed at Close start: ends the retrain loop
	done     chan struct{} // closed after drain: ends SSE streams
	loopWG   sync.WaitGroup
	seq      atomic.Uint64
	start    time.Time
	retrains atomic.Int64
}

// New builds a Server from functional options (mirroring ami.NewSharded)
// and, when WithRetrainInterval and WithRetrain are both set, starts the
// rolling re-train loop.
func New(opts ...Option) (*Server, error) {
	s := &Server{
		consumers: make(map[string]*consumer),
		ring:      newAlertRing(DefaultAlertBuffer),
		hub:       newSSEHub(),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		log:       obs.Logger("serve"),
	}
	for _, o := range opts {
		o(s)
	}
	s.policy = s.policy.withDefaults()
	if err := s.policy.Validate(); err != nil {
		return nil, err
	}
	if s.retrainEvery < 0 {
		return nil, fmt.Errorf("serve: negative retrain interval %v", s.retrainEvery)
	}
	if s.retrainEvery > 0 && s.retrain == nil {
		return nil, fmt.Errorf("serve: WithRetrainInterval requires WithRetrain")
	}
	if s.met == nil {
		s.met = newServeMetrics(obs.NewRegistry())
	}
	s.start = time.Now()
	if s.retrainEvery > 0 {
		s.loopWG.Add(1)
		go s.retrainLoop()
	}
	return s, nil
}

// Register installs streaming state for a consumer. nextSlot is the global
// slot index the first live reading is expected at (readings below it are
// counted stale and skipped — they belong to the already-trained past).
func (s *Server) Register(id string, sd detect.StreamDetector, nextSlot int64) error {
	if id == "" {
		return fmt.Errorf("serve: empty consumer id")
	}
	if sd == nil {
		return fmt.Errorf("serve: nil stream detector for %q", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.consumers[id]; dup {
		return fmt.Errorf("serve: consumer %q already registered", id)
	}
	s.consumers[id] = &consumer{id: id, stream: sd, nextSlot: nextSlot}
	s.met.consumers.Set(float64(len(s.consumers)))
	return nil
}

// Consumers returns the number of registered consumers.
func (s *Server) Consumers() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.consumers)
}

// Sink returns the accepted-reading tap to hand to ami.WithSink. It
// observes the readings on the calling goroutine — a head-end's session
// goroutine, before it acks — and keeps nothing of the borrowed slice.
// Calls for distinct consumers run concurrently; calls for one consumer
// serialize on its lock, and a retry's duplicate slots count as stale.
// After Close the sink drops (and counts) deliveries.
func (s *Server) Sink() ami.ReadingSink {
	return func(meterID string, readings []ami.BatchReading) {
		if len(readings) == 0 {
			return
		}
		s.sinkMu.RLock()
		if s.closed {
			s.sinkMu.RUnlock()
			s.met.dropped.Add(int64(len(readings)))
			return
		}
		s.calls.Add(1)
		s.sinkMu.RUnlock()
		defer s.calls.Done()
		s.observe(meterID, readings)
	}
}

// observe advances one consumer's stream by a run of accepted readings.
// Alert events are built under the consumer's lock (they read streak and
// tier state) but delivered after it is released: the ring buffer, JSONL
// log, and SSE hub are shared sinks, and a slow one must stall only this
// call, never every caller parked on this consumer — the same
// outside-the-lock contract the head-end sink documents, here enforced by
// the lockhold analyzer.
func (s *Server) observe(meterID string, readings []ami.BatchReading) {
	s.mu.RLock()
	c := s.consumers[meterID]
	s.mu.RUnlock()
	if c == nil {
		s.met.unknown.Add(int64(len(readings)))
		return
	}
	c.mu.Lock()
	var events []AlertEvent
	for _, r := range readings {
		s.observeOne(c, r, &events)
	}
	c.mu.Unlock()
	s.deliver(events)
}

// observeOne advances one consumer's stream by one accepted reading,
// filling any slot gap with missing-status observations first. Callers
// hold c.mu; alert events are appended to pending for delivery after the
// lock is released.
func (s *Server) observeOne(c *consumer, r ami.BatchReading, pending *[]AlertEvent) {
	if r.Slot < c.nextSlot {
		// Duplicate or regressed slot: the window has moved past it.
		c.stale++
		s.met.staleObs.Inc()
		return
	}
	if gap := r.Slot - c.nextSlot; gap > 0 {
		// The meter skipped slots: observe the most recent min(gap, 336)
		// of them as missing so coverage accounting degrades honestly.
		fill := gap
		if fill > maxGapFill {
			fill = maxGapFill
		}
		for i := int64(0); i < fill; i++ {
			v, err := c.stream.ObserveStatus(0, timeseries.StatusMissing)
			c.missing++
			s.met.missingObs.Inc()
			if err == nil {
				s.judge(c, r.Slot-fill+i, v, pending)
			}
		}
	}
	v, err := c.stream.Observe(r.KW)
	c.nextSlot = r.Slot + 1
	if err != nil {
		// The wire layer rejects non-finite and negative readings, so this
		// is defense in depth, not an expected path.
		c.errors++
		s.met.errObs.Inc()
		return
	}
	c.observed++
	s.met.okObs.Inc()
	s.judge(c, r.Slot, v, pending)
}

// judge folds one verdict into the consumer's alert state, appending an
// event to pending on tier transitions. Callers hold c.mu.
func (s *Server) judge(c *consumer, slot int64, v detect.Verdict, pending *[]AlertEvent) {
	switch {
	case v.Inconclusive:
		// Coverage too low for a definite answer. The streak is preserved:
		// a theft in progress doesn't become innocent because the meter
		// also dropped readings.
		c.inconclusive++
		s.met.vInconclusive.Inc()
	case v.Anomalous:
		s.met.vAnomalous.Inc()
		c.lastScore, c.lastThreshold = v.Score, v.Threshold
		if c.streak < math.MaxUint32 {
			c.streak++
		}
		ratio := math.Inf(1)
		if v.Threshold > 0 {
			ratio = v.Score / v.Threshold
		}
		if next := s.policy.tier(int(c.streak), ratio); next > c.tier {
			c.tier = next
			c.alerts++
			*pending = append(*pending, s.newEvent(c, slot, v, ratio, next.String()))
		}
	default:
		s.met.vNormal.Inc()
		c.lastScore, c.lastThreshold = v.Score, v.Threshold
		c.streak = 0
		if c.tier != TierNone {
			c.tier = TierNone
			*pending = append(*pending, s.newEvent(c, slot, v, 0, tierCleared))
		}
	}
}

// newEvent builds one alert event from the consumer's current state.
// Callers hold c.mu; delivery happens later, via deliver.
func (s *Server) newEvent(c *consumer, slot int64, v detect.Verdict, ratio float64, tier string) AlertEvent {
	return AlertEvent{
		Seq:       s.seq.Add(1),
		Time:      time.Now().UTC(),
		Consumer:  c.id,
		Tier:      tier,
		Slot:      slot,
		Score:     v.Score,
		Threshold: v.Threshold,
		Ratio:     ratio,
		Streak:    int(c.streak),
		Detector:  c.stream.Name(),
		Reason:    c.stream.Reason(v),
	}
}

// deliver records alert events on every output: counter, ring buffer,
// JSONL log, SSE subscribers. Runs with no locks held.
func (s *Server) deliver(events []AlertEvent) {
	for _, e := range events {
		s.met.countAlert(e.Tier)
		s.ring.add(e)
		// One encoding serves the log line and every SSE subscriber.
		b, err := json.Marshal(e)
		if err != nil {
			s.log.Error("alert encoding failed", "err", err)
			continue
		}
		if err := s.alertLog.write(b); err != nil {
			s.log.Error("alert log append failed", "err", err)
		}
		s.hub.broadcast(b)
	}
}

// Alerts returns up to n recent alert events, newest first (n <= 0 returns
// everything buffered).
func (s *Server) Alerts(n int) []AlertEvent { return s.ring.recent(n) }

// Flush sweeps every consumer and publishes the fleet-level coverage/fill
// gauges: minimum and mean window coverage, mean live fill. There is no
// queue to drain: a reading is observed by the time its sink call returns.
// To wait for the sink calls a head-end's sessions still have in flight,
// flush the head-end first.
func (s *Server) Flush() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.consumers)
	if n == 0 {
		return
	}
	minCov, sumCov, sumFill := math.Inf(1), 0.0, 0.0
	for _, c := range s.consumers {
		c.mu.Lock()
		cov := c.stream.Coverage()
		fill := float64(c.stream.Filled()) / timeseries.SlotsPerWeek
		c.mu.Unlock()
		if cov < minCov {
			minCov = cov
		}
		sumCov += cov
		sumFill += fill
	}
	s.met.covMin.Set(minCov)
	s.met.covMean.Set(sumCov / float64(n))
	s.met.fillMean.Set(sumFill / float64(n))
}

// RetrainAll rebuilds every consumer's detector through the configured
// RetrainFunc and swaps each stream atomically behind the observation path
// (per-consumer lock; readings never stop flowing for the fleet). A
// consumer whose re-train fails keeps its current detector.
func (s *Server) RetrainAll() (ok, failed int) {
	if s.retrain == nil {
		return 0, 0
	}
	s.mu.RLock()
	ids := make([]string, 0, len(s.consumers))
	for id := range s.consumers {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	for _, id := range ids {
		s.mu.RLock()
		c := s.consumers[id]
		s.mu.RUnlock()
		if c == nil {
			continue
		}
		c.mu.Lock()
		cur := c.stream
		c.mu.Unlock()
		// The build reads the store and trains outside every lock; only
		// the swap itself takes the consumer's mutex.
		next, err := s.retrain(id, s.store, cur)
		if err != nil || next == nil {
			if err != nil {
				s.log.Warn("re-train failed; keeping current detector", "consumer", id, "err", err)
			}
			s.met.retrainErr.Inc()
			failed++
			continue
		}
		c.mu.Lock()
		c.stream = next
		c.mu.Unlock()
		s.met.retrainOK.Inc()
		ok++
	}
	s.retrains.Add(1)
	return ok, failed
}

// retrainLoop re-trains the fleet on the configured cadence until Close.
func (s *Server) retrainLoop() {
	defer s.loopWG.Done()
	ticker := time.NewTicker(s.retrainEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			ok, failed := s.RetrainAll()
			s.Flush()
			s.log.Info("rolling re-train complete", "ok", ok, "failed", failed)
		}
	}
}

// Close stops the service: the sink stops accepting (further deliveries
// are dropped and counted), the sink calls in flight finish, the aggregate
// gauges get a final sweep, and the SSE streams end. Call after the
// head-end's own Close, so that every reading the head-end acknowledged
// has already been observed. Idempotent.
func (s *Server) Close() error {
	s.sinkMu.Lock()
	if s.closed {
		s.sinkMu.Unlock()
		s.calls.Wait()
		return nil
	}
	s.closed = true
	close(s.stop)
	s.sinkMu.Unlock()
	s.loopWG.Wait()
	s.calls.Wait()
	s.Flush()
	close(s.done)
	s.hub.close()
	return nil
}

// Stats is a point-in-time summary of the service's counters.
type Stats struct {
	Consumers    int   `json:"consumers"`
	Observed     int64 `json:"observed"`
	Missing      int64 `json:"missing"`
	Stale        int64 `json:"stale"`
	Errors       int64 `json:"errors"`
	Unknown      int64 `json:"unknown_meter"`
	Dropped      int64 `json:"dropped"`
	Normal       int64 `json:"verdicts_normal"`
	Anomalous    int64 `json:"verdicts_anomalous"`
	Inconclusive int64 `json:"verdicts_inconclusive"`
	AlertsLow    int64 `json:"alerts_low"`
	AlertsMedium int64 `json:"alerts_medium"`
	AlertsHigh   int64 `json:"alerts_high"`
	AlertsClear  int64 `json:"alerts_cleared"`
	Retrains     int64 `json:"retrain_sweeps"`
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	m := s.met
	return Stats{
		Consumers:    s.Consumers(),
		Observed:     m.okObs.Value(),
		Missing:      m.missingObs.Value(),
		Stale:        m.staleObs.Value(),
		Errors:       m.errObs.Value(),
		Unknown:      m.unknown.Value(),
		Dropped:      m.dropped.Value(),
		Normal:       m.vNormal.Value(),
		Anomalous:    m.vAnomalous.Value(),
		Inconclusive: m.vInconclusive.Value(),
		AlertsLow:    m.alertLow.Value(),
		AlertsMedium: m.alertMedium.Value(),
		AlertsHigh:   m.alertHigh.Value(),
		AlertsClear:  m.alertCleared.Value(),
		Retrains:     s.retrains.Load(),
	}
}

// KLDRetrainer returns the production RetrainFunc: re-train a KLD detector
// on the consumer's most recent trainWeeks full weeks from the store, and
// return a fresh compact stream seeded with the newest trusted week. The
// previous window's live fill restarts from the new seed — a re-train is a
// deliberate reset of the baseline, and StreamDetector.Reseed covers the
// seed-only swap that preserves live slots.
func KLDRetrainer(trainWeeks int, cfg detect.KLDConfig) RetrainFunc {
	return func(id string, st Store, _ detect.StreamDetector) (detect.StreamDetector, error) {
		if st == nil {
			return nil, fmt.Errorf("serve: re-train needs a store (WithStore)")
		}
		weeks := st.Count(id) / timeseries.SlotsPerWeek
		if weeks < 2 {
			return nil, fmt.Errorf("serve: consumer %q has %d full weeks of history, need >= 2", id, weeks)
		}
		if trainWeeks >= 2 && weeks > trainWeeks {
			weeks = trainWeeks
		}
		total := st.Count(id) / timeseries.SlotsPerWeek * timeseries.SlotsPerWeek
		series, err := st.Series(id, total)
		if err != nil {
			return nil, fmt.Errorf("serve: re-train history: %w", err)
		}
		tail := series[total-weeks*timeseries.SlotsPerWeek:]
		d, err := detect.NewKLDDetector(tail, cfg)
		if err != nil {
			return nil, fmt.Errorf("serve: re-train: %w", err)
		}
		return d.NewCompactStream(tail[len(tail)-timeseries.SlotsPerWeek:])
	}
}
