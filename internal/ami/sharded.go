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

// ingestShard owns one partition of the readings store: a private map of
// each meter's day-page index and a private arena holding the pages, behind
// a private mutex. Meter IDs are hash-partitioned across shards, so two
// sessions for meters on different shards never contend on a lock or a map.
type ingestShard struct {
	mu       sync.Mutex
	readings map[string]*meterPages
	pages    pageArena

	stored *obs.Counter // fdeta_ami_shard_readings_total{shard=i}

	// wal, when non-nil, is this shard's write-ahead log. A session appends
	// each frame to it and applies the frame to the store under its append
	// lock, so the store holds readings in log order.
	wal *shardWAL
}

// apply stores one meter's readings under the shard lock. With a WAL it
// runs under the log's append lock too (shardWAL.Append).
func (s *ingestShard) apply(meterID string, rs []BatchReading) {
	s.mu.Lock()
	s.put(meterID, rs)
	s.mu.Unlock()
}

// put stores one meter's readings. Callers hold s.mu, or own the shard
// outright during recovery.
func (s *ingestShard) put(meterID string, rs []BatchReading) {
	m := s.readings[meterID]
	if m == nil {
		m = &meterPages{id: meterID, pages: make(map[int64]uint32)}
		s.readings[meterID] = m
	}
	m.put(&s.pages, rs)
}

// snapshot streams the shard store through write in WAL-record-sized
// chunks, for compaction, under the shard lock: it sees a consistent store
// that already holds every record of the segments it covers, because each
// append applies its record before it releases the append lock.
func (s *ingestShard) snapshot(write func(meterID string, rs []BatchReading) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf []BatchReading
	for meterID, m := range s.readings {
		buf = m.appendAll(&s.pages, buf[:0])
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

// compact is the shard's compactor: it runs one compaction from cover, and
// another for as long as the sealed backlog stays over the threshold (a
// burst can seal segments faster than one compaction covers them, and once
// it ends no rotation remains to trigger the next). An append starts it
// when it claims the WAL's compacting flag, so one runs per shard at a
// time; Close waits for it.
func (s *ingestShard) compact(cover uint64, log *slog.Logger) {
	for ok := true; ok; cover, ok = s.wal.RetriggerCompact(cover) {
		// Compaction failure is not fatal: the covered segments stay on
		// disk and recovery still works, the log is just bigger.
		if err := s.wal.Compact(cover, s.snapshot); err != nil {
			log.Error("wal compaction failed", "err", err)
		}
	}
}

// callGate tracks the calls in flight on one path, so that a barrier can
// wait for the ones that began before it without a lock held across any
// call. Each barrier starts a new generation. A generation's WaitGroup
// keeps one extra count until every older generation has drained, so
// waiting on the newest waits on all of them.
type callGate struct {
	mu  sync.Mutex
	gen *sync.WaitGroup
}

// enter registers one call; the caller calls Done on the result when the
// call ends.
func (g *callGate) enter() *sync.WaitGroup {
	g.mu.Lock()
	wg := g.gen
	wg.Add(1)
	g.mu.Unlock()
	return wg
}

// wait returns once every call that entered before it has ended.
func (g *callGate) wait() {
	next := new(sync.WaitGroup)
	next.Add(1)
	g.mu.Lock()
	prev := g.gen
	g.gen = next
	g.mu.Unlock()
	prev.Wait()
	next.Done()
}

// shardIndex hash-partitions a meter ID over n shards (FNV-1a).
func shardIndex[ID string | []byte](meterID ID, n int) int {
	h := uint64(1469598103934665603)
	for i := 0; i < len(meterID); i++ {
		h ^= uint64(meterID[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// ShardedHeadEnd is the utility-side collection server: one listener and
// accept loop in front of shard-per-core ingest stores. The session
// goroutine is the only goroutine between a frame and its ack: it routes
// each accepted frame by meter-ID hash to its shard, appends it to the
// shard's log and applies it to the shard's store, runs the sink, and
// acks. The coordinator merges shard stores and the shared instrument
// registry into one Stats()/Meters()/Series() view for the control-center
// detection pipeline. Every active connection is tracked so Close can
// force-close stragglers after the drain timeout instead of waiting
// forever on an idle meter.
//
// An acknowledged reading is already in the store and has been through
// the sink. Reads are exact once Close has returned; while sessions are
// live, Flush waits for the frames still between their store and their
// ack.
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

	chunkPages int // pages in each shard arena's first chunk (0 = defaultChunkPages)

	// calls holds the frames between the start of their store and the end
	// of their sink call, for Flush.
	calls callGate

	done chan struct{}  // closed when Close begins; sessions drain on it
	wg   sync.WaitGroup // accept loop + sessions
	bgWG sync.WaitGroup // WAL background syncer + compactors

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
		calls: callGate{gen: new(sync.WaitGroup)},
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
			pages:    newPageArena(sh.chunkPages),
			stored: reg.Counter(metricShardStored,
				"readings written to this shard's store", label),
		}
		sh.shards = append(sh.shards, s)
	}

	// Open and replay the WAL before any session can write: recovery is
	// single-goroutine, so the apply closure fills the shard maps directly.
	// A recovery failure parks the head-end — Listen refuses with the
	// error — rather than silently running without durability.
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

	if sh.walErr == nil && sh.cfg.WALDir != "" && sh.walCfg.sync == WALSyncInterval {
		sh.bgWG.Add(1)
		go func() {
			defer sh.bgWG.Done()
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

// internID returns a rebound meter ID as a string. A meter the store already
// holds reuses the store's copy, so a session rebinding to it allocates
// nothing.
func (sh *ShardedHeadEnd) internID(b []byte) string {
	s := sh.shards[shardIndex(b, len(sh.shards))]
	s.mu.Lock()
	m := s.readings[string(b)]
	s.mu.Unlock()
	if m != nil {
		return m.id
	}
	return string(b)
}

// store makes one accepted frame's readings durable and visible. With a
// WAL, the frame's verified payload (borrowed for the call) is appended to
// the shard's log as is, and the readings are applied to the shard's store
// under the log's append lock, so store order is log order; without one
// they are applied under the shard lock. An append failure means nothing
// was stored: the session answers with a transient CodeStorage rejection,
// never an ack, so the meter retries. The readings slice is not retained.
func (sh *ShardedHeadEnd) store(meterID string, rs []BatchReading, payload []byte) error {
	s := sh.shardFor(meterID)
	if s.wal == nil {
		s.apply(meterID, rs)
	} else {
		cover, compact, err := s.wal.Append(payload, s, meterID)
		if err != nil {
			return err
		}
		if compact {
			// Off the append path: the snapshot takes the shard lock, and
			// the frame's session has an ack to send. Close waits for it.
			sh.bgWG.Add(1)
			go func() {
				defer sh.bgWG.Done()
				s.compact(cover, sh.log)
			}()
		}
	}
	s.stored.Add(int64(len(rs)))
	return nil
}

// Flush waits until every frame whose store began before the call has been
// stored and handed to the sink. An acknowledged reading needs no Flush:
// its session stores it and runs the sink before it acks. Safe to call
// concurrently with sessions (their later frames may or may not be
// covered) and with Close.
func (sh *ShardedHeadEnd) Flush() { sh.calls.wait() }

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
// registered connection is force-closed. It then stops the WAL syncer,
// waits for running compactions, and syncs and closes each shard's log.
// Bounded even when a meter holds an idle connection.
func (sh *ShardedHeadEnd) Close() error {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		sh.wg.Wait()
		sh.bgWG.Wait()
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
	// Sessions are gone, so nothing appends or starts a compaction any
	// more. Stop the background syncer and wait for the compactors, then
	// sync and close each shard's log, strictly after them, so a
	// compaction never races the final close.
	if sh.walStop != nil {
		close(sh.walStop)
	}
	sh.bgWG.Wait()
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
// merged across shards and sorted.
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

// Count returns the number of stored readings for a meter.
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
		return m.get(&s.pages, int64(slot))
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
	if slot, ok := m.dense(&s.pages, out); !ok {
		return nil, fmt.Errorf("ami: meter %q missing reading for slot %d", meterID, slot)
	}
	return out, nil
}
