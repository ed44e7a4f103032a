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

// WithChunkPages sets the page count of each shard arena's first chunk
// (0 = defaultChunkPages). Tests shrink it so that a small store spans many
// chunks, or grow it so that one reading maps a large chunk.
func WithChunkPages(n int) Option {
	return func(h *ShardedHeadEnd) { h.chunkPages = n }
}
