package ami

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
