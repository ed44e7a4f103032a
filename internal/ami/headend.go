package ami

import "time"

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

	// WALDir enables the per-shard write-ahead log: every reading is
	// appended to a segmented CRC32-framed log before it is acknowledged,
	// and NewSharded replays the log on startup.
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
	Accepted      int64 // readings acknowledged (stored, and through the sink, before the ack)
	Rejected      int64 // readings refused (protocol / session mismatch)
	AuthFailed    int64 // readings refused for bad MACs
	IdleTimeouts  int64 // sessions closed for idling past the deadline
	ForcedCloses  int64 // connections force-closed at Close's drain deadline
}
