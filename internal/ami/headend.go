package ami

import (
	"fmt"
	"log/slog"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/timeseries"
)

// Lifecycle defaults. Zero-valued HeadEndConfig fields fall back to these.
const (
	// DefaultMaxConns bounds concurrent meter sessions; the N+1th meter is
	// turned away with a CodeBusy error at accept time.
	DefaultMaxConns = 1024
	// DefaultIdleTimeout is the per-read deadline on a meter session. A
	// connection that sends nothing for this long is closed — the defence
	// against slowloris-style connection hoarding.
	DefaultIdleTimeout = 2 * time.Minute
	// DefaultDrainTimeout is how long Close waits for in-flight sessions
	// to finish before force-closing their connections.
	DefaultDrainTimeout = 5 * time.Second
)

// HeadEndConfig bounds a head-end's resource use. The zero value selects
// production defaults; tests shrink the timeouts.
type HeadEndConfig struct {
	// MaxConns is the concurrent connection limit (0 = DefaultMaxConns).
	MaxConns int
	// IdleTimeout is the per-read deadline (0 = DefaultIdleTimeout).
	IdleTimeout time.Duration
	// DrainTimeout is the Close grace period (0 = DefaultDrainTimeout).
	DrainTimeout time.Duration
	// MaxFrameSize bounds one inbound wire frame (0 = DefaultMaxFrameSize).
	// A hostile meter streaming an endless frame is cut off at this bound
	// with a CodeOversized rejection instead of ballooning memory.
	MaxFrameSize int
	// MaxBatch caps readings per v3 batch frame (0 = DefaultMaxBatch),
	// advertised to v3 clients in the hello response.
	MaxBatch int
	// QueueDepth bounds each shard's async ingest queue, in jobs (sharded
	// head-ends only; 0 = DefaultShardQueueDepth). A full queue delays
	// that shard's acks — backpressure instead of unbounded buffering.
	QueueDepth int

	// WALDir enables the per-shard write-ahead log (sharded head-ends
	// only): every reading is appended to a segmented CRC32-framed log
	// before it is acknowledged, and NewSharded replays the log on startup.
	// Empty (the default) disables durability entirely — behavior is
	// identical to a WAL-less head-end.
	WALDir string
	// WALSync selects when appends reach stable storage
	// ("" = DefaultWALSync). See WALSyncPolicy.
	WALSync WALSyncPolicy
	// WALSyncInterval is the background fsync cadence under
	// WALSyncInterval policy (0 = DefaultWALSyncInterval).
	WALSyncInterval time.Duration
	// WALSegmentBytes rotates the active segment past this size
	// (0 = DefaultWALSegmentBytes).
	WALSegmentBytes int64
	// WALCompactBytes triggers snapshot+truncate compaction once a shard's
	// sealed segments exceed this size (0 = DefaultWALCompactBytes).
	WALCompactBytes int64
}

func (c *HeadEndConfig) applyDefaults() {
	if c.MaxConns <= 0 {
		c.MaxConns = DefaultMaxConns
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	if c.MaxFrameSize <= 0 {
		c.MaxFrameSize = DefaultMaxFrameSize
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
}

// HeadEndStats is a snapshot of the head-end's ingestion counters. It is a
// compatibility view assembled from the registry-backed instruments (see
// metrics.go); the authoritative store is the obs.Registry, which an admin
// endpoint can export live.
type HeadEndStats struct {
	ActiveConns   int   // sessions currently being served
	TotalConns    int64 // sessions accepted since start
	LimitRejected int64 // connections turned away at the limit
	Accepted      int64 // readings stored
	Rejected      int64 // readings refused (protocol / session mismatch)
	AuthFailed    int64 // readings refused for bad MACs
	IdleTimeouts  int64 // sessions closed for idling past the deadline
	ForcedCloses  int64 // connections force-closed at Close's drain deadline
}

// HeadEnd is the utility-side collection server. It accepts meter
// connections, stores acknowledged readings, and exposes them to the
// control-center detection pipeline. Every active connection is tracked in
// a registry so Close can force-close stragglers after the drain timeout
// instead of waiting forever on an idle meter.
type HeadEnd struct {
	cfg HeadEndConfig

	mu       sync.Mutex
	ln       net.Listener
	readings map[string]map[timeseries.Slot]float64
	closed   bool
	keyring  *Keyring

	// conns tracks every live connection (value: true for accepted
	// sessions, false for busy-rejection handshakes); active counts only
	// the sessions, which is what the connection limit compares against.
	conns  map[net.Conn]bool
	active int

	met  *headEndMetrics
	log  *slog.Logger
	sink ReadingSink // accepted-reading tap (WithSink); nil = disabled

	done chan struct{} // closed when Close begins; handlers drain on it
	wg   sync.WaitGroup
	env  *sessionEnv // shared by every session
}

// Metrics returns the registry holding this head-end's instruments, for
// export via obs.ServeAdmin or direct Snapshot().
func (h *HeadEnd) Metrics() *obs.Registry { return h.met.reg }

// AuthFailures returns how many readings were rejected for bad MACs.
func (h *HeadEnd) AuthFailures() int {
	return int(h.met.authFailed.Value())
}

// Stats snapshots the ingestion counters from the registry-backed
// instruments.
func (h *HeadEnd) Stats() HeadEndStats {
	h.mu.Lock()
	active := h.active
	h.mu.Unlock()
	m := h.met
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

// Listen starts accepting connections on the given address ("127.0.0.1:0"
// for an ephemeral test port) and returns the bound address. A head-end
// listens at most once: a second Listen returns ErrListening rather than
// silently leaking the first listener and its accept loop.
func (h *HeadEnd) Listen(addr string) (string, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return "", fmt.Errorf("ami: head-end: %w", ErrClosed)
	}
	if h.ln != nil {
		h.mu.Unlock()
		return "", fmt.Errorf("ami: head-end: %w", ErrListening)
	}
	h.mu.Unlock()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("ami: head-end listen: %w", err)
	}
	h.mu.Lock()
	if h.closed || h.ln != nil {
		reason := ErrClosed
		if h.ln != nil {
			reason = ErrListening
		}
		h.mu.Unlock()
		_ = ln.Close()
		return "", fmt.Errorf("ami: head-end: %w", reason)
	}
	h.ln = ln
	h.mu.Unlock()

	h.log.Info("head-end listening", "addr", ln.Addr().String())
	h.wg.Add(1)
	go h.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (h *HeadEnd) acceptLoop(ln net.Listener) {
	defer h.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			// Listener closed: normal shutdown.
			return
		}
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			_ = conn.Close()
			return
		}
		if h.active >= h.cfg.MaxConns {
			h.conns[conn] = false
			h.mu.Unlock()
			h.met.limitRejected.Inc()
			h.log.Warn("connection rejected at limit", "remote", conn.RemoteAddr())
			h.wg.Add(1)
			go func() {
				defer h.wg.Done()
				defer h.untrack(conn, false)
				rejectBusyConn(conn, h.cfg.IdleTimeout, h.cfg.MaxFrameSize)
			}()
			continue
		}
		h.conns[conn] = true
		h.active++
		h.met.activeConns.Set(float64(h.active))
		h.mu.Unlock()
		h.met.connsTotal.Inc()
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			defer h.untrack(conn, true)
			h.env.serve(conn)
		}()
	}
}

func (h *HeadEnd) untrack(conn net.Conn, session bool) {
	h.mu.Lock()
	delete(h.conns, conn)
	if session {
		h.active--
		h.met.activeConns.Set(float64(h.active))
	}
	h.mu.Unlock()
}

// store stores one accepted frame synchronously under one lock hold
// (ingestStore). The in-memory map cannot fail, so the error is always
// nil. The sink tap runs after the store apply and outside the lock, so a
// slow sink stalls only this meter's session, never the whole store.
func (h *HeadEnd) store(meterID string, rs []BatchReading, _ []byte) error {
	h.mu.Lock()
	m, ok := h.readings[meterID]
	if !ok {
		m = make(map[timeseries.Slot]float64, len(rs))
		h.readings[meterID] = m
	}
	for _, r := range rs {
		m[timeseries.Slot(r.Slot)] = r.KW
	}
	h.mu.Unlock()
	h.met.accepted.Add(int64(len(rs)))
	if h.sink != nil {
		h.sink(meterID, rs)
	}
	return nil
}

// Close stops the listener and drains active sessions: handlers get
// DrainTimeout to finish their in-flight request, after which every
// registered connection is force-closed. Close therefore returns within a
// bounded time even when a meter holds an idle connection open.
func (h *HeadEnd) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		h.wg.Wait()
		return nil
	}
	h.closed = true
	ln := h.ln
	close(h.done)
	h.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	drained := make(chan struct{})
	go func() {
		h.wg.Wait()
		close(drained)
	}()
	timer := time.NewTimer(h.cfg.DrainTimeout)
	defer timer.Stop()
	select {
	case <-drained:
	case <-timer.C:
		h.mu.Lock()
		forced := 0
		for conn := range h.conns {
			h.met.forcedCloses.Inc()
			forced++
			_ = conn.Close()
		}
		h.mu.Unlock()
		if forced > 0 {
			h.log.Warn("force-closed stragglers at drain deadline", "count", forced)
		}
		<-drained
	}
	return err
}

// Meters returns the IDs that have reported at least one reading, sorted.
func (h *HeadEnd) Meters() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.readings))
	for id := range h.readings {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Count returns the number of stored readings for a meter.
func (h *HeadEnd) Count(meterID string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.readings[meterID])
}

// Reading fetches one stored reading.
func (h *HeadEnd) Reading(meterID string, slot timeseries.Slot) (float64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	v, ok := h.readings[meterID][slot]
	return v, ok
}

// Series assembles the dense series [0, n) for a meter. Missing slots are
// an error: the detection pipeline must not silently treat gaps as zero
// consumption (that is what a 2A attack looks like).
func (h *HeadEnd) Series(meterID string, n int) (timeseries.Series, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	m, ok := h.readings[meterID]
	if !ok {
		return nil, fmt.Errorf("ami: no readings for meter %q", meterID)
	}
	out := make(timeseries.Series, n)
	for i := 0; i < n; i++ {
		v, ok := m[timeseries.Slot(i)]
		if !ok {
			return nil, fmt.Errorf("ami: meter %q missing reading for slot %d", meterID, i)
		}
		out[i] = v
	}
	return out, nil
}
