package ami

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The durability layer behind the sharded head-end: one segmented,
// CRC32-framed, append-only write-ahead log per shard. A reading is
// appended (and, under WALSyncAlways, fsynced) BEFORE its ack leaves the
// session, so a crash — up to and including kill -9 — can never lose an
// acknowledged reading. On startup the log is replayed into the shard
// store, truncating a torn tail (a record cut mid-write by the crash)
// instead of refusing to start. Snapshot+truncate compaction bounds log
// growth: once the sealed segments pass the compaction threshold, the
// shard's store is written as one snapshot and the segments it covers are
// deleted.
//
// On-disk layout, one directory per shard:
//
//	wal.meta            shard-count fingerprint for the whole WAL dir
//	wal-00000001.seg    record stream (sealed once rotated)
//	wal-00000002.seg    ... the highest seq is the active segment
//	snap-00000001.snap  store snapshot covering segments seq <= 1
//
// Record framing (everything little-endian):
//
//	crc32(payload) uint32 | len(payload) uint32 | payload
//	payload: len(meterID) uint16 | meterID | count uint32 |
//	         count x (slot int64 | kw float64-bits uint64)
//
// The payload is byte for byte the body of a wire-v3 batch frame (see
// frame.go): an accepted frame's verified payload is appended as it
// arrived, and replay decodes it with the wire's own decoder. The CRC is
// over the payload only, so a bit flip anywhere in a record
// fails its checksum and replay stops at the last valid prefix. Snapshots
// reuse the exact record framing; only the file name differs.

// WALSyncPolicy selects when appended records are fsynced to stable
// storage.
type WALSyncPolicy string

const (
	// WALSyncAlways fsyncs inside every append, before the ack. Survives
	// power loss at the cost of one fsync per wire frame.
	WALSyncAlways WALSyncPolicy = "always"
	// WALSyncInterval appends without fsync and lets a background syncer
	// fsync every WALSyncInterval. Survives process crashes (the write
	// syscall completes before the ack; the page cache persists a kill -9)
	// and bounds power-loss exposure to one interval.
	WALSyncInterval WALSyncPolicy = "interval"
	// WALSyncOff never fsyncs until Close. Still survives process crashes
	// for the same write-before-ack reason; power loss may lose the tail.
	WALSyncOff WALSyncPolicy = "off"
)

// ParseWALSyncPolicy maps a flag string onto a policy.
func ParseWALSyncPolicy(s string) (WALSyncPolicy, error) {
	switch WALSyncPolicy(s) {
	case WALSyncAlways, WALSyncInterval, WALSyncOff:
		return WALSyncPolicy(s), nil
	case "":
		return DefaultWALSync, nil
	}
	return "", fmt.Errorf("ami: unknown WAL sync policy %q (want %q, %q, or %q)",
		s, WALSyncAlways, WALSyncInterval, WALSyncOff)
}

// WAL defaults. Zero-valued config fields fall back to these.
const (
	// DefaultWALSync is the sync policy when WAL is enabled and none is set.
	DefaultWALSync = WALSyncInterval
	// DefaultWALSyncInterval is the background fsync cadence under
	// WALSyncInterval.
	DefaultWALSyncInterval = 100 * time.Millisecond
	// DefaultWALSegmentBytes rotates the active segment once it grows past
	// this size.
	DefaultWALSegmentBytes = 64 << 20
	// DefaultWALCompactBytes triggers snapshot+truncate compaction once the
	// sealed (rotated) segments of a shard exceed this many bytes.
	DefaultWALCompactBytes = 256 << 20

	// maxWALRecordBytes bounds one record's payload on both the append and
	// replay paths. Larger than the biggest legitimate record (a full
	// snapshot chunk) and small enough that a corrupt length field cannot
	// make replay allocate gigabytes.
	maxWALRecordBytes = 1 << 26
	// walSnapshotChunk is the readings-per-record chunk size used when
	// writing store snapshots during compaction.
	walSnapshotChunk = 4096

	walRecordHeader = 8 // crc32 + payload length
	walMetaFile     = "wal.meta"
)

// errWALCorrupt marks an invalid record during replay: CRC mismatch, bad
// length, or an inconsistent payload. Replay treats it as the end of the
// valid prefix.
var errWALCorrupt = errors.New("ami: wal record corrupt")

// walConfig is the resolved per-shard WAL configuration.
type walConfig struct {
	sync         WALSyncPolicy
	syncInterval time.Duration
	segmentBytes int64
	compactBytes int64
}

// walInstruments groups one shard's WAL instruments.
type walInstruments struct {
	appended  *obs.Counter   // fdeta_ami_wal_appended_total{shard=i}
	syncTime  *obs.Histogram // fdeta_ami_wal_sync_seconds{shard=i}
	recovered *obs.Counter   // fdeta_ami_wal_recovered_total{shard=i}
	tornTails *obs.Counter   // fdeta_ami_wal_torn_tail_total{shard=i}
	errors    *obs.Counter   // fdeta_ami_wal_errors_total{shard=i}
}

// shardWAL is one shard's append-only log. Appends are serialized by mu,
// and each applies its readings to the shard store before releasing it.
// The compactor never holds mu while it snapshots or touches files: it
// works on sealed segments only, so appends proceed alongside it.
type shardWAL struct {
	dir string
	cfg walConfig
	ins walInstruments
	log *slog.Logger

	mu     sync.Mutex
	f      *os.File
	seq    uint64 // active segment sequence number
	size   int64  // bytes in the active segment
	buf    []byte // record assembly scratch, reused across appends
	closed bool

	sealedBytes atomic.Int64 // bytes across sealed (rotated) segments
	dirty       atomic.Bool  // appended since the last fsync
	compacting  atomic.Bool  // a compaction is running
}

func (c *walConfig) applyDefaults() {
	if c.sync == "" {
		c.sync = DefaultWALSync
	}
	if c.syncInterval <= 0 {
		c.syncInterval = DefaultWALSyncInterval
	}
	if c.segmentBytes <= 0 {
		c.segmentBytes = DefaultWALSegmentBytes
	}
	if c.compactBytes <= 0 {
		c.compactBytes = DefaultWALCompactBytes
	}
}

func walSegmentName(seq uint64) string  { return fmt.Sprintf("wal-%08d.seg", seq) }
func walSnapshotName(seq uint64) string { return fmt.Sprintf("snap-%08d.snap", seq) }

// parseWALFileSeq extracts the sequence number from a segment or snapshot
// file name with the given prefix/suffix; ok is false for foreign files.
func parseWALFileSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	digits := name[len(prefix) : len(name)-len(suffix)]
	if digits == "" {
		return 0, false
	}
	var seq uint64
	for i := 0; i < len(digits); i++ {
		d := digits[i]
		if d < '0' || d > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(d-'0')
	}
	return seq, true
}

// appendWALRecord frames one payload (see appendPayload) as a record:
// CRC and length in front, the payload bytes as they are.
func appendWALRecord(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// decodeWALRecord reads one record starting at data[off]. It returns the
// decoded meter ID and readings and the offset just past the record.
// errWALCorrupt (wrapped) marks the end of the valid prefix — a bad CRC or
// length, or a payload the wire decoder would refuse; io.EOF marks a clean
// end exactly at len(data).
func decodeWALRecord(data []byte, off int) (meterID string, rs []BatchReading, next int, err error) {
	if off == len(data) {
		return "", nil, off, io.EOF
	}
	if len(data)-off < walRecordHeader {
		return "", nil, off, fmt.Errorf("%w: truncated header", errWALCorrupt)
	}
	crc := binary.LittleEndian.Uint32(data[off : off+4])
	plen := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
	if plen < payloadFixed || plen > maxWALRecordBytes {
		return "", nil, off, fmt.Errorf("%w: payload length %d out of range", errWALCorrupt, plen)
	}
	if len(data)-off-walRecordHeader < plen {
		return "", nil, off, fmt.Errorf("%w: truncated payload", errWALCorrupt)
	}
	payload := data[off+walRecordHeader : off+walRecordHeader+plen]
	if crc32.ChecksumIEEE(payload) != crc {
		return "", nil, off, fmt.Errorf("%w: checksum mismatch", errWALCorrupt)
	}
	id, rs, n, err := decodePayload(payload, maxWALRecordBytes/readingBytes)
	if err != nil {
		return "", nil, off, fmt.Errorf("%w: %w", errWALCorrupt, err)
	}
	if n != plen {
		return "", nil, off, fmt.Errorf("%w: payload length %d does not match %d readings", errWALCorrupt, plen, len(rs))
	}
	return string(id), rs, off + walRecordHeader + plen, nil
}

// replayWALFile streams one file's records through apply, returning the
// number of readings applied and the byte offset of the valid prefix. A
// corrupt or truncated tail is reported through the bool, never as an
// error — only I/O failures are errors.
func replayWALFile(path string, apply func(meterID string, rs []BatchReading)) (readings int64, validLen int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("ami: wal replay %s: %w", path, err)
	}
	off := 0
	for {
		meterID, rs, next, derr := decodeWALRecord(data, off)
		if derr != nil {
			if errors.Is(derr, io.EOF) {
				return readings, int64(off), false, nil
			}
			return readings, int64(off), true, nil
		}
		apply(meterID, rs)
		readings += int64(len(rs))
		off = next
	}
}

// openShardWAL opens (creating if needed) one shard's WAL directory,
// replays the newest valid snapshot plus every later segment through
// apply — truncating a torn tail in place — and leaves the log ready for
// appends on a fresh segment.
func openShardWAL(dir string, cfg walConfig, ins walInstruments, log *slog.Logger,
	apply func(meterID string, rs []BatchReading)) (*shardWAL, error) {
	cfg.applyDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ami: wal dir: %w", err)
	}
	w := &shardWAL{dir: dir, cfg: cfg, ins: ins, log: log}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ami: wal dir: %w", err)
	}
	var segs, snaps []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A compaction interrupted before its atomic rename; the segments
			// it would have covered are all still present.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if seq, ok := parseWALFileSeq(name, "wal-", ".seg"); ok {
			segs = append(segs, seq)
		} else if seq, ok := parseWALFileSeq(name, "snap-", ".snap"); ok {
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	// Newest structurally valid snapshot wins; a corrupt one (external
	// damage — compaction renames atomically) falls back to the next.
	var snapSeq uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		path := filepath.Join(dir, walSnapshotName(snaps[i]))
		n, _, torn, rerr := replayWALFile(path, apply)
		if rerr != nil {
			return nil, rerr
		}
		if torn {
			w.ins.tornTails.Inc()
			log.Warn("wal snapshot corrupt, falling back", "path", path)
			continue
		}
		w.ins.recovered.Add(n)
		snapSeq = snaps[i]
		break
	}

	// Replay segments past the snapshot, oldest first. The first invalid
	// record ends the valid prefix: the segment is truncated there and any
	// later segments are dropped (they are past the prefix by definition).
	maxSeq := snapSeq
	stopped := false
	for _, seq := range segs {
		if seq > maxSeq {
			maxSeq = seq
		}
		if seq <= snapSeq {
			continue
		}
		path := filepath.Join(dir, walSegmentName(seq))
		if stopped {
			w.ins.tornTails.Inc()
			log.Warn("wal segment past torn tail dropped", "path", path)
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("ami: wal recovery: %w", err)
			}
			continue
		}
		n, validLen, torn, rerr := replayWALFile(path, apply)
		if rerr != nil {
			return nil, rerr
		}
		w.ins.recovered.Add(n)
		w.sealedBytes.Add(validLen)
		if torn {
			w.ins.tornTails.Inc()
			log.Warn("wal torn tail truncated", "path", path, "valid_bytes", validLen)
			if err := os.Truncate(path, validLen); err != nil {
				return nil, fmt.Errorf("ami: wal recovery: %w", err)
			}
			stopped = true
		}
	}

	// Appends always start on a fresh segment: recovery never has to
	// reason about a reopened tail. Everything sealed so far was replayed
	// straight into the store, so compaction may cover it immediately.
	w.seq = maxSeq + 1
	f, err := os.OpenFile(filepath.Join(dir, walSegmentName(w.seq)),
		os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ami: wal segment: %w", err)
	}
	w.f = f
	return w, nil
}

// Append frames one payload as a record (prepending only the CRC and
// length), writes it to the active segment and — still holding the append
// lock — applies rs, the payload's readings for meterID, to the shard
// store s, so the store holds readings in log order (compaction depends on
// it). Under WALSyncAlways the record is fsynced before the apply. When the
// append seals a segment past the compaction threshold and no compaction is
// running, Append claims the compacting flag and returns compact = true
// with the sequence number the snapshot must cover; the caller runs it
// (shard.compact) off the lock.
func (w *shardWAL) Append(payload []byte, s *ingestShard, meterID string, rs []BatchReading) (cover uint64, compact bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, false, fmt.Errorf("ami: wal: %w", ErrClosed)
	}
	w.buf = appendWALRecord(w.buf[:0], payload)
	//lint:ignore lockhold append-before-ack is the durability contract: the record must hit the segment under the append lock so log order equals store order
	if _, err := w.f.Write(w.buf); err != nil {
		w.ins.errors.Inc()
		return 0, false, fmt.Errorf("ami: wal append: %w", err)
	}
	w.size += int64(len(w.buf))
	w.ins.appended.Inc()
	if w.cfg.sync == WALSyncAlways {
		start := time.Now()
		if err := w.f.Sync(); err != nil {
			w.ins.errors.Inc()
			return 0, false, fmt.Errorf("ami: wal sync: %w", err)
		}
		w.ins.syncTime.Observe(time.Since(start).Seconds())
	} else {
		w.dirty.Store(true)
	}
	if w.size >= w.cfg.segmentBytes {
		if err := w.rotateLocked(); err != nil {
			w.ins.errors.Inc()
			return 0, false, err
		}
		// Everything below the new active segment is sealed, and this
		// record, the last of them, is applied below before the lock is
		// released: a snapshot taken after Append returns covers them all.
		compact = w.sealedBytes.Load() >= w.cfg.compactBytes && w.compacting.CompareAndSwap(false, true)
	}
	s.apply(meterID, rs)
	return w.seq - 1, compact, nil
}

// RetriggerCompact decides, after a completed compaction that covered
// prevCover, whether another must run: a burst of appends can rotate
// segments faster than one compaction covers them, and once the burst ends
// no rotation remains to trigger the next. It claims the compacting flag
// and returns the new cover point, or false.
func (w *shardWAL) RetriggerCompact(prevCover uint64) (uint64, bool) {
	if w.sealedBytes.Load() < w.cfg.compactBytes {
		return 0, false
	}
	w.mu.Lock()
	cover := w.seq - 1 // every sealed record is in the store (Append)
	w.mu.Unlock()
	if cover <= prevCover {
		// No sealed progress since the last cover point: retrying would
		// rewrite the same snapshot (or spin on a persistent failure).
		return 0, false
	}
	if !w.compacting.CompareAndSwap(false, true) {
		return 0, false
	}
	return cover, true
}

// rotateLocked seals the active segment and opens the next one.
func (w *shardWAL) rotateLocked() error {
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("ami: wal sync: %w", err)
	}
	w.ins.syncTime.Observe(time.Since(start).Seconds())
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("ami: wal rotate: %w", err)
	}
	w.sealedBytes.Add(w.size)
	w.seq++
	f, err := os.OpenFile(filepath.Join(w.dir, walSegmentName(w.seq)),
		os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("ami: wal rotate: %w", err)
	}
	w.f = f
	w.size = 0
	w.dirty.Store(false) // the fsync above covered everything written so far
	return nil
}

// SyncIfDirty fsyncs the active segment if anything was appended since the
// last sync. Called by the background syncer under WALSyncInterval.
func (w *shardWAL) SyncIfDirty() error {
	if !w.dirty.Swap(false) {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	start := time.Now()
	//lint:ignore lockhold the interval fsync must exclude appends and rotation or it could sync a half-written record on a swapped file handle
	if err := w.f.Sync(); err != nil {
		w.dirty.Store(true)
		w.ins.errors.Inc()
		return fmt.Errorf("ami: wal sync: %w", err)
	}
	w.ins.syncTime.Observe(time.Since(start).Seconds())
	return nil
}

// Compact writes the shard store as one snapshot covering segments
// seq <= coverSeq, atomically publishes it, and deletes the covered
// segments and any older snapshots. It runs on the shard's compactor after
// the append that sealed coverSeq has applied its records, and never takes
// the append lock: it touches only sealed files, so appends proceed
// concurrently. It releases the compacting flag when it returns.
func (w *shardWAL) Compact(coverSeq uint64, snapshot func(write func(meterID string, rs []BatchReading) error) error) error {
	defer w.compacting.Store(false)
	final := filepath.Join(w.dir, walSnapshotName(coverSeq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		w.ins.errors.Inc()
		return fmt.Errorf("ami: wal compact: %w", err)
	}
	var payload, buf []byte
	werr := snapshot(func(meterID string, rs []BatchReading) error {
		payload = appendPayload(payload[:0], meterID, rs)
		buf = appendWALRecord(buf[:0], payload)
		if _, err := f.Write(buf); err != nil {
			return fmt.Errorf("ami: wal compact: %w", err)
		}
		return nil
	})
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		w.ins.errors.Inc()
		_ = os.Remove(tmp)
		return fmt.Errorf("ami: wal compact: %w", werr)
	}
	if err := os.Rename(tmp, final); err != nil {
		w.ins.errors.Inc()
		_ = os.Remove(tmp)
		return fmt.Errorf("ami: wal compact: %w", err)
	}
	// The snapshot is live; everything it covers is redundant. A crash
	// between these removals just leaves idempotent replay work.
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		w.ins.errors.Inc()
		return fmt.Errorf("ami: wal compact: %w", err)
	}
	var reclaimed int64
	for _, e := range entries {
		name := e.Name()
		remove := false
		if seq, ok := parseWALFileSeq(name, "wal-", ".seg"); ok && seq <= coverSeq {
			if info, err := e.Info(); err == nil {
				reclaimed += info.Size()
			}
			remove = true
		} else if seq, ok := parseWALFileSeq(name, "snap-", ".snap"); ok && seq < coverSeq {
			remove = true
		}
		if remove {
			if err := os.Remove(filepath.Join(w.dir, name)); err != nil {
				w.ins.errors.Inc()
				return fmt.Errorf("ami: wal compact: %w", err)
			}
		}
	}
	w.sealedBytes.Add(-reclaimed)
	w.log.Info("wal compacted", "dir", w.dir, "cover_seq", coverSeq, "reclaimed_bytes", reclaimed)
	return nil
}

// Close syncs and closes the active segment. Idempotent.
func (w *shardWAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	//lint:ignore lockhold the final sync-and-close must exclude in-flight appends; after it the closed flag makes every later append fail fast
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		w.ins.errors.Inc()
		return fmt.Errorf("ami: wal close: %w", err)
	}
	return nil
}

// checkWALMeta fingerprints the WAL directory with the shard count: meter
// IDs are hash-partitioned, so replaying shard directories under a
// different count would scatter readings into the wrong stores and make
// them unreachable. First open writes the meta file; later opens verify it.
func checkWALMeta(dir string, shards int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ami: wal dir: %w", err)
	}
	path := filepath.Join(dir, walMetaFile)
	want := fmt.Sprintf("shards=%d\n", shards)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
			return fmt.Errorf("ami: wal meta: %w", err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("ami: wal meta: %w", err)
	}
	if string(data) != want {
		return fmt.Errorf("ami: wal dir %s was written with %s, reopened with shards=%d; replaying across a different shard count would misroute readings",
			dir, strings.TrimSpace(string(data)), shards)
	}
	return nil
}
