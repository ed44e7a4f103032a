package ami

import (
	"time"

	"repro/internal/obs"
)

// Option configures a ShardedHeadEnd at construction time.
type Option func(*ShardedHeadEnd)

// WithConfig replaces the whole lifecycle config in one option. Zero-valued
// fields still fall back to the production defaults.
func WithConfig(cfg HeadEndConfig) Option {
	return func(h *ShardedHeadEnd) { h.cfg = cfg }
}

// WithMaxConns bounds concurrent meter sessions (0 = DefaultMaxConns).
func WithMaxConns(n int) Option {
	return func(h *ShardedHeadEnd) { h.cfg.MaxConns = n }
}

// WithIdleTimeout sets the per-read deadline on a meter session
// (0 = DefaultIdleTimeout).
func WithIdleTimeout(d time.Duration) Option {
	return func(h *ShardedHeadEnd) { h.cfg.IdleTimeout = d }
}

// WithDrainTimeout sets the Close grace period (0 = DefaultDrainTimeout).
func WithDrainTimeout(d time.Duration) Option {
	return func(h *ShardedHeadEnd) { h.cfg.DrainTimeout = d }
}

// WithKeyring enables per-reading HMAC verification. Readings that fail
// verification are rejected with an error envelope and never stored.
func WithKeyring(kr *Keyring) Option {
	return func(h *ShardedHeadEnd) { h.keyring = kr }
}

// WithWAL enables the per-shard write-ahead log rooted at dir. Every
// reading is appended to its shard's log before it is acknowledged, and
// NewSharded replays the log into the store on startup. An empty dir
// disables durability.
func WithWAL(dir string) Option {
	return func(h *ShardedHeadEnd) { h.cfg.WALDir = dir }
}

// WithWALSync selects the WAL sync policy ("" = DefaultWALSync).
func WithWALSync(p WALSyncPolicy) Option {
	return func(h *ShardedHeadEnd) { h.cfg.WALSync = p }
}

// WithWALSegmentBytes sets the segment rotation threshold
// (0 = DefaultWALSegmentBytes). Tests shrink it to force rotation.
func WithWALSegmentBytes(n int64) Option {
	return func(h *ShardedHeadEnd) { h.cfg.WALSegmentBytes = n }
}

// WithWALCompactBytes sets the sealed-bytes threshold that triggers
// snapshot+truncate compaction (0 = DefaultWALCompactBytes).
func WithWALCompactBytes(n int64) Option {
	return func(h *ShardedHeadEnd) { h.cfg.WALCompactBytes = n }
}

// WithMetrics registers the head-end's instruments on reg instead of a
// private registry, so an admin endpoint (obs.ServeAdmin) can export them.
func WithMetrics(reg *obs.Registry) Option {
	return func(h *ShardedHeadEnd) {
		if reg != nil {
			h.met = newHeadEndMetrics(reg)
		}
	}
}

// ReadingSink receives every accepted reading after it reaches the head-end
// store — the tap a streaming consumer (internal/serve) subscribes with.
//
// Contract: the sink is called once per accepted reading or batch, after
// the store apply, with calls for any one meter delivered in acceptance
// order. The shard worker — a single goroutine per shard — makes the
// call, so the session ack path never blocks on the sink; distinct meters
// may be delivered concurrently from different shards. The readings slice
// is borrowed: the sink must not retain or mutate it after returning. WAL
// recovery at startup repopulates the store directly and does not replay
// through the sink — a consumer that needs history bootstraps from the
// store itself.
type ReadingSink func(meterID string, readings []BatchReading)

// WithSink taps the accepted-reading stream: every reading that is stored
// (and therefore acknowledged) is also handed to sink. A nil sink disables
// the tap.
func WithSink(sink ReadingSink) Option {
	return func(h *ShardedHeadEnd) { h.sink = sink }
}
