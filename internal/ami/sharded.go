package ami

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/timeseries"
)

// DefaultShardQueueDepth bounds each shard's async ingest queue, in jobs
// (a job is one reading or one whole batch frame). A full queue applies
// backpressure: the enqueueing session blocks, which delays that meter's
// ack — exactly the flow-control signal a well-behaved client responds to.
const DefaultShardQueueDepth = 4096

// ingestJob is one unit of work on a shard's queue: a batch of readings
// for a single meter, a flush sentinel, a WAL compaction request, or the
// shutdown sentinel.
type ingestJob struct {
	meterID  string
	readings []BatchReading
	flush    chan struct{} // non-nil: close it once the queue ahead is drained

	// compact: snapshot the shard store and truncate WAL segments up to
	// compactCover. Runs on the worker so the snapshot is taken after every
	// job queued ahead of it (i.e. every record the covered segments hold)
	// has reached the store.
	compact      bool
	compactCover uint64

	// shutdown ends the worker once every job queued ahead of it has been
	// applied. A sentinel instead of close(queue) so the worker itself may
	// re-enqueue compaction follow-ups without racing a channel close.
	shutdown bool
}

// ingestShard owns one partition of the readings store: a private map of
// each meter's day pages, a private mutex, and an async queue drained by a
// dedicated worker. Meter IDs are hash-partitioned across shards, so two
// sessions for different meters on different shards never contend on a
// lock or a map.
type ingestShard struct {
	mu       sync.Mutex
	readings map[string]*meterPages

	queue  chan ingestJob
	stored *obs.Counter // fdeta_ami_shard_readings_total{shard=i}
	depth  *obs.Gauge   // fdeta_ami_shard_queue_depth{shard=i}

	// sink, when non-nil, receives every stored batch after the store
	// apply. The worker is the shard's single goroutine, so sink calls for
	// any one meter arrive in acceptance order and never touch the session
	// ack path.
	sink ReadingSink

	// wal, when non-nil, is this shard's write-ahead log: storeReading /
	// storeBatch append to it before enqueueing (and before the session
	// acks), and the worker services its compaction requests.
	wal *shardWAL
}

// run drains the shard's queue into its readings map until the shutdown
// sentinel arrives. It is the only writer of the shard's map, so session
// goroutines never block on storage — the async decouple between decode
// and store.
func (s *ingestShard) run(log *slog.Logger) {
	for job := range s.queue {
		if job.shutdown {
			// Abandon any compaction follow-up that landed behind the
			// sentinel, keeping the depth gauge honest.
			for {
				select {
				case <-s.queue:
					s.depth.Add(-1)
				default:
					return
				}
			}
		}
		s.depth.Add(-1)
		if job.flush != nil {
			close(job.flush)
			continue
		}
		if job.compact {
			// Compaction failure is not fatal: the covered segments stay on
			// disk and recovery still works, the log is just bigger.
			if err := s.wal.Compact(job.compactCover, s.snapshot); err != nil {
				log.Error("wal compaction failed", "err", err)
			}
			// A burst can seal segments faster than one compaction covers
			// them; keep compacting until the sealed set is back under the
			// threshold. The follow-up job goes to the queue tail, so every
			// record it covers is applied before the next snapshot.
			s.wal.RetriggerCompact(job.compactCover, s.tryEnqueueCompact)
			continue
		}
		s.mu.Lock()
		s.put(job.meterID, job.readings)
		s.mu.Unlock()
		s.stored.Add(int64(len(job.readings)))
		if s.sink != nil {
			s.sink(job.meterID, job.readings)
		}
	}
}

// put stores one meter's readings. Callers hold s.mu, or own the shard
// outright during recovery.
func (s *ingestShard) put(meterID string, rs []BatchReading) {
	m := s.readings[meterID]
	if m == nil {
		m = &meterPages{pages: make(map[int64]*dayPage)}
		s.readings[meterID] = m
	}
	m.put(rs)
}

// snapshot streams the shard store through write in WAL-record-sized
// chunks, for compaction. Runs on the worker goroutine (the store's only
// writer) under the shard lock, so it sees a consistent store that — by
// queue ordering — contains every reading the covered segments hold.
func (s *ingestShard) snapshot(write func(meterID string, rs []BatchReading) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf []BatchReading
	for meterID, m := range s.readings {
		buf = m.appendAll(buf[:0])
		for rs := buf; len(rs) > 0; {
			n := min(len(rs), walSnapshotChunk)
			//lint:ignore lockhold snapshot must stream under the shard lock for a consistent view; write is the compactor's own file appender, not an arbitrary caller hook
			if err := write(meterID, rs[:n]); err != nil {
				return err
			}
			rs = rs[n:]
		}
	}
	return nil
}

// enqueueCompact queues a compaction request behind everything already on
// the shard queue. Called by the WAL under its append lock.
func (s *ingestShard) enqueueCompact(coverSeq uint64) {
	s.depth.Add(1)
	s.queue <- ingestJob{compact: true, compactCover: coverSeq}
}

// tryEnqueueCompact is enqueueCompact for the worker goroutine itself: a
// blocking send from the queue's only consumer would deadlock when the
// queue is full, so a follow-up compaction is dropped instead (the next
// segment rotation re-arms it).
func (s *ingestShard) tryEnqueueCompact(coverSeq uint64) bool {
	select {
	case s.queue <- ingestJob{compact: true, compactCover: coverSeq}:
		s.depth.Add(1)
		return true
	default:
		return false
	}
}

// enqueue queues one meter's readings for the worker.
func (s *ingestShard) enqueue(meterID string, rs []BatchReading) {
	s.depth.Add(1)
	s.queue <- ingestJob{meterID: meterID, readings: rs}
}

// shardIndex hash-partitions a meter ID over n shards (FNV-1a).
func shardIndex(meterID string, n int) int {
	h := uint64(1469598103934665603)
	for i := 0; i < len(meterID); i++ {
		h ^= uint64(meterID[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// ShardedHeadEnd is the utility-side collection server: one listener and
// accept loop in front of shard-per-core ingest stores. It accepts meter
// connections and routes each accepted reading or batch by meter-ID hash
// to its shard's async queue, so the session goroutine acks without ever
// touching a readings map. The coordinator merges shard stores and the
// shared instrument registry into one Stats()/Meters()/Series() view for
// the control-center detection pipeline. Every active connection is
// tracked so Close can force-close stragglers after the drain timeout
// instead of waiting forever on an idle meter.
//
// Reads are exact once Close has returned. While sessions are live, an
// acknowledged reading may still be on its shard's queue: call Flush
// before reading the store.
type ShardedHeadEnd struct {
	cfg    HeadEndConfig
	shards []*ingestShard

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	conns  map[net.Conn]bool // true: accepted session; false: busy rejection
	active int               // accepted sessions, compared against MaxConns

	met     *headEndMetrics
	log     *slog.Logger
	keyring *Keyring    // per-reading MAC verification (WithKeyring); nil = off
	sink    ReadingSink // accepted-reading tap (WithSink); nil = disabled

	done     chan struct{}  // closed when Close begins; sessions drain on it
	wg       sync.WaitGroup // accept loop + sessions
	workerWG sync.WaitGroup // shard queue workers + WAL background syncer

	// WAL state (zero-valued when cfg.WALDir is empty).
	walCfg  walConfig
	walStop chan struct{} // stops the background syncer
	walErr  error         // recovery failure; Listen refuses while set

	// parked counts sessions blocked reading their next frame after the
	// hello. A session is counted only once it has passed the loop-top
	// drain check, so a parked session leaves only through new data, its
	// idle deadline, or a force-close — never through a graceful drain.
	parked atomic.Int64
}

// NewSharded creates an idle head-end with the given shard count (0
// selects one shard per CPU core). With no options it selects production
// lifecycle defaults, no keyring, no sink, no WAL, and a private metrics
// registry.
func NewSharded(shards int, opts ...Option) *ShardedHeadEnd {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	sh := &ShardedHeadEnd{
		conns: make(map[net.Conn]bool),
		done:  make(chan struct{}),
		log:   obs.Logger("ami"),
	}
	for _, o := range opts {
		o(sh)
	}
	sh.cfg.applyDefaults()
	if sh.met == nil {
		sh.met = newHeadEndMetrics(obs.NewRegistry())
	}
	reg := sh.met.reg
	for i := 0; i < shards; i++ {
		label := obs.L("shard", strconv.Itoa(i))
		s := &ingestShard{
			readings: make(map[string]*meterPages),
			sink:     sh.sink,
			queue:    make(chan ingestJob, sh.cfg.QueueDepth),
			stored: reg.Counter(metricShardStored,
				"readings written to this shard's store", label),
			depth: reg.Gauge(metricShardQueueDepth,
				"jobs waiting on this shard's ingest queue", label),
		}
		sh.shards = append(sh.shards, s)
	}

	// Open and replay the WAL before any worker or session can write:
	// recovery is single-goroutine, so the apply closure fills the shard
	// maps directly. A recovery failure parks the head-end — Listen refuses
	// with the error — rather than silently running without durability.
	if sh.cfg.WALDir != "" {
		sh.walCfg = walConfig{
			sync:         sh.cfg.WALSync,
			syncInterval: sh.cfg.WALSyncInterval,
			segmentBytes: sh.cfg.WALSegmentBytes,
			compactBytes: sh.cfg.WALCompactBytes,
		}
		sh.walCfg.applyDefaults()
		sh.walStop = make(chan struct{})
		sh.walErr = sh.openWALs()
	}

	for _, s := range sh.shards {
		s := s
		sh.workerWG.Add(1)
		go func() {
			defer sh.workerWG.Done()
			s.run(sh.log)
		}()
	}
	if sh.walErr == nil && sh.cfg.WALDir != "" && sh.walCfg.sync == WALSyncInterval {
		sh.workerWG.Add(1)
		go func() {
			defer sh.workerWG.Done()
			sh.runWALSyncer()
		}()
	}
	return sh
}

// openWALs opens one log per shard under cfg.WALDir, replaying each into
// its shard's store.
func (sh *ShardedHeadEnd) openWALs() error {
	if err := checkWALMeta(sh.cfg.WALDir, len(sh.shards)); err != nil {
		return err
	}
	for i, s := range sh.shards {
		s := s
		label := obs.L("shard", strconv.Itoa(i))
		reg := sh.met.reg
		ins := walInstruments{
			appended: reg.Counter(metricWALAppended,
				"records appended to this shard's write-ahead log", label),
			syncTime: reg.Histogram(metricWALSync,
				"time spent fsyncing this shard's write-ahead log", obs.FineLatencyBuckets(), label),
			recovered: reg.Counter(metricWALRecovered,
				"readings replayed from this shard's log at startup", label),
			tornTails: reg.Counter(metricWALTornTail,
				"torn tails truncated during this shard's recovery", label),
			errors: reg.Counter(metricWALErrors,
				"failed WAL appends, syncs, and compactions on this shard", label),
		}
		dir := filepath.Join(sh.cfg.WALDir, fmt.Sprintf("shard-%03d", i))
		wal, err := openShardWAL(dir, sh.walCfg, ins, sh.log, s.put)
		if err != nil {
			return err
		}
		s.wal = wal
	}
	return nil
}

// runWALSyncer fsyncs every dirty shard log on the configured cadence
// (WALSyncInterval policy) until Close stops it.
func (sh *ShardedHeadEnd) runWALSyncer() {
	ticker := time.NewTicker(sh.walCfg.syncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-sh.walStop:
			return
		case <-ticker.C:
			for _, s := range sh.shards {
				if err := s.wal.SyncIfDirty(); err != nil {
					sh.log.Error("wal background sync failed", "err", err)
				}
			}
		}
	}
}

// WALError reports whether WAL recovery failed at construction. A durable
// head-end with a recovery error refuses to Listen.
func (sh *ShardedHeadEnd) WALError() error { return sh.walErr }

// WALStats is a summed-across-shards snapshot of the durability layer's
// counters.
type WALStats struct {
	Enabled   bool  // a WAL directory is configured
	Appended  int64 // records appended since start
	Recovered int64 // readings replayed from the log at startup
	TornTails int64 // torn tails truncated during recovery
	Errors    int64 // failed appends, syncs, and compactions
}

// WALStats snapshots the durability counters across all shards: the
// instruments are registered per shard (labeled shard=i), and
// obs.Snapshot.Total folds each family into the fleet-wide figure.
func (sh *ShardedHeadEnd) WALStats() WALStats {
	st := WALStats{}
	for _, s := range sh.shards {
		if s.wal != nil {
			st.Enabled = true
			break
		}
	}
	if !st.Enabled {
		return st
	}
	snap := sh.met.reg.Snapshot()
	st.Appended = int64(snap.Total(metricWALAppended))
	st.Recovered = int64(snap.Total(metricWALRecovered))
	st.TornTails = int64(snap.Total(metricWALTornTail))
	st.Errors = int64(snap.Total(metricWALErrors))
	return st
}

// Shards returns the shard count.
func (sh *ShardedHeadEnd) Shards() int { return len(sh.shards) }

// Metrics returns the registry holding this head-end's instruments (the
// session-level fdeta_ami_* set plus the per-shard labeled instruments),
// for export via obs.ServeAdmin or direct Snapshot().
func (sh *ShardedHeadEnd) Metrics() *obs.Registry { return sh.met.reg }

// shardFor routes a meter ID to its owning shard.
func (sh *ShardedHeadEnd) shardFor(meterID string) *ingestShard {
	return sh.shards[shardIndex(meterID, len(sh.shards))]
}

// store enqueues one accepted frame's readings on its shard; the readings
// slice transfers to the shard without copying. With a WAL, the frame's
// verified payload (borrowed for the call) is appended to the shard's log
// first, as is. An append failure means
// nothing was enqueued: the session answers with a transient CodeStorage
// rejection, never an ack, so the meter retries. The accepted counter is
// bumped at enqueue: once acknowledged, a reading is the queue's
// responsibility and cannot be rejected.
func (sh *ShardedHeadEnd) store(meterID string, rs []BatchReading, payload []byte) error {
	s := sh.shardFor(meterID)
	if s.wal != nil {
		if err := s.wal.Append(payload,
			func() { s.enqueue(meterID, rs) }, s.enqueueCompact); err != nil {
			return err
		}
	} else {
		s.enqueue(meterID, rs)
	}
	sh.met.accepted.Add(int64(len(rs)))
	return nil
}

// Flush blocks until every reading enqueued before the call has reached
// its shard's store, making reads exact at a quiescent point. Safe to call
// concurrently with sessions (their later readings may or may not be
// covered) and with Close.
func (sh *ShardedHeadEnd) Flush() {
	sh.mu.Lock()
	if sh.closed {
		// Close drains the queues itself; after it, stores are final.
		sh.mu.Unlock()
		return
	}
	chans := make([]chan struct{}, len(sh.shards))
	for i, s := range sh.shards {
		chans[i] = make(chan struct{})
		s.depth.Add(1)
		//lint:ignore lockhold the flush sentinel must enqueue under sh.mu so Close cannot shut the workers mid-send; workers drain without taking sh.mu, so the send always unblocks
		s.queue <- ingestJob{flush: chans[i]}
	}
	sh.mu.Unlock()
	for _, c := range chans {
		<-c
	}
}

// Listen starts accepting connections and returns the bound address. A
// head-end listens at most once; a second Listen returns ErrListening.
func (sh *ShardedHeadEnd) Listen(addr string) (string, error) {
	if sh.walErr != nil {
		// Accepting (and acking) readings after a failed recovery would
		// break the durability contract; park until the operator intervenes.
		return "", fmt.Errorf("ami: head-end: wal recovery failed: %w", sh.walErr)
	}
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return "", fmt.Errorf("ami: head-end: %w", ErrClosed)
	}
	if sh.ln != nil {
		sh.mu.Unlock()
		return "", fmt.Errorf("ami: head-end: %w", ErrListening)
	}
	sh.mu.Unlock()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("ami: head-end listen: %w", err)
	}
	sh.mu.Lock()
	if sh.closed || sh.ln != nil {
		reason := ErrClosed
		if sh.ln != nil {
			reason = ErrListening
		}
		sh.mu.Unlock()
		_ = ln.Close()
		return "", fmt.Errorf("ami: head-end: %w", reason)
	}
	sh.ln = ln
	sh.mu.Unlock()

	sh.log.Info("head-end listening",
		"addr", ln.Addr().String(), "shards", len(sh.shards))
	sh.wg.Add(1)
	go sh.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (sh *ShardedHeadEnd) acceptLoop(ln net.Listener) {
	defer sh.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		sh.mu.Lock()
		if sh.closed {
			sh.mu.Unlock()
			_ = conn.Close()
			return
		}
		if sh.active >= sh.cfg.MaxConns {
			sh.conns[conn] = false
			sh.mu.Unlock()
			sh.met.limitRejected.Inc()
			sh.log.Warn("connection rejected at limit", "remote", conn.RemoteAddr())
			sh.wg.Add(1)
			go func() {
				defer sh.wg.Done()
				defer sh.untrack(conn, false)
				rejectBusyConn(conn, sh.cfg.IdleTimeout, sh.cfg.MaxFrameSize)
			}()
			continue
		}
		sh.conns[conn] = true
		sh.active++
		sh.met.activeConns.Set(float64(sh.active))
		sh.mu.Unlock()
		sh.met.connsTotal.Inc()
		sh.wg.Add(1)
		go func() {
			defer sh.wg.Done()
			defer sh.untrack(conn, true)
			sh.serve(conn)
		}()
	}
}

func (sh *ShardedHeadEnd) untrack(conn net.Conn, session bool) {
	sh.mu.Lock()
	delete(sh.conns, conn)
	if session {
		sh.active--
		sh.met.activeConns.Set(float64(sh.active))
	}
	sh.mu.Unlock()
}

// Close stops the listener and drains active sessions: handlers get
// DrainTimeout to finish their in-flight request, after which every
// registered connection is force-closed. It then shuts the shard queues
// down and waits for the workers to finish storing everything that was
// acknowledged. Bounded even when a meter holds an idle connection.
func (sh *ShardedHeadEnd) Close() error {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		sh.wg.Wait()
		sh.workerWG.Wait()
		return nil
	}
	sh.closed = true
	ln := sh.ln
	close(sh.done)
	sh.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	drained := make(chan struct{})
	go func() {
		sh.wg.Wait()
		close(drained)
	}()
	timer := time.NewTimer(sh.cfg.DrainTimeout)
	defer timer.Stop()
	select {
	case <-drained:
	case <-timer.C:
		sh.mu.Lock()
		forced := 0
		for conn := range sh.conns {
			sh.met.forcedCloses.Inc()
			forced++
			_ = conn.Close()
		}
		sh.mu.Unlock()
		if forced > 0 {
			sh.log.Warn("force-closed stragglers at drain deadline", "count", forced)
		}
		<-drained
	}
	// Sessions are gone; nothing can enqueue anymore (Flush holds the
	// mutex while enqueueing and bows out once closed is set). Shut the
	// workers down via the queue itself so every acknowledged reading is
	// durably in its shard store first, stop the background syncer, then
	// sync and close each shard's log — strictly after the workers, so a
	// queued compaction never races the final close. A compaction follow-up
	// the worker queues behind the sentinel is deliberately abandoned:
	// compaction is an optimization, shutdown is not the time for it.
	sh.mu.Lock()
	for _, s := range sh.shards {
		//lint:ignore lockhold the shutdown sentinel enqueues under sh.mu to exclude a concurrent Flush; workers drain without taking sh.mu, so the send always unblocks
		s.queue <- ingestJob{shutdown: true}
	}
	sh.mu.Unlock()
	if sh.walStop != nil {
		close(sh.walStop)
	}
	sh.workerWG.Wait()
	for _, s := range sh.shards {
		if s.wal != nil {
			err = errors.Join(err, s.wal.Close())
		}
	}
	return err
}

// Stats snapshots the ingestion counters from the shared registry-backed
// instruments — one merged view across all shards and sessions.
func (sh *ShardedHeadEnd) Stats() HeadEndStats {
	sh.mu.Lock()
	active := sh.active
	sh.mu.Unlock()
	m := sh.met
	return HeadEndStats{
		ActiveConns:   active,
		TotalConns:    m.connsTotal.Value(),
		LimitRejected: m.limitRejected.Value(),
		Accepted:      m.accepted.Value(),
		Rejected:      m.rejected.Value(),
		AuthFailed:    m.authFailed.Value(),
		IdleTimeouts:  m.idleTimeouts.Value(),
		ForcedCloses:  m.forcedCloses.Value(),
	}
}

// Meters returns the IDs that have reported at least one stored reading,
// merged across shards and sorted. Call Flush first for an exact view
// while sessions are live.
func (sh *ShardedHeadEnd) Meters() []string {
	var out []string
	for _, s := range sh.shards {
		s.mu.Lock()
		for id := range s.readings {
			out = append(out, id)
		}
		s.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Count returns the number of stored readings for a meter. Call Flush
// first for an exact count while sessions are live.
func (sh *ShardedHeadEnd) Count(meterID string) int {
	s := sh.shardFor(meterID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if m := s.readings[meterID]; m != nil {
		return m.n
	}
	return 0
}

// Reading fetches one stored reading.
func (sh *ShardedHeadEnd) Reading(meterID string, slot timeseries.Slot) (float64, bool) {
	s := sh.shardFor(meterID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if m := s.readings[meterID]; m != nil {
		return m.get(int64(slot))
	}
	return 0, false
}

// Series assembles the dense series [0, n) for a meter. Missing slots are
// an error: the detection pipeline must not silently treat gaps as zero
// consumption (that is what a 2A attack looks like).
func (sh *ShardedHeadEnd) Series(meterID string, n int) (timeseries.Series, error) {
	s := sh.shardFor(meterID)
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.readings[meterID]
	if m == nil {
		return nil, fmt.Errorf("ami: no readings for meter %q", meterID)
	}
	out := make(timeseries.Series, n)
	if slot, ok := m.dense(out); !ok {
		return nil, fmt.Errorf("ami: meter %q missing reading for slot %d", meterID, slot)
	}
	return out, nil
}
