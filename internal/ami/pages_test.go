package ami

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/timeseries"
)

// storeOracle is the readable reference for the paged shard store: one map
// entry per (meter, slot), written in arrival order.
type storeOracle map[string]map[int64]float64

func (o storeOracle) put(meterID string, rs []BatchReading) {
	m := o[meterID]
	if m == nil {
		m = make(map[int64]float64)
		o[meterID] = m
	}
	for _, r := range rs {
		m[r.Slot] = r.KW
	}
}

// oracleBatch draws one meter's batch: a run of slots near base, shuffled
// and with repeats, or a few far-sparse slots (around 2^40 and beyond).
func oracleBatch(rng *rand.Rand, base int64) []BatchReading {
	n := 1 + rng.Intn(60)
	rs := make([]BatchReading, n)
	sparse := rng.Intn(4) == 0
	for i := range rs {
		slot := base + int64(rng.Intn(3*pageSlots))
		if sparse {
			slot = int64(1)<<40 + int64(rng.Intn(8))*(pageSlots*1000+7) + int64(rng.Intn(3))
		}
		rs[i] = BatchReading{Slot: slot, KW: float64(rng.Intn(1000)) / 8}
	}
	if rng.Intn(3) == 0 && n > 1 {
		rs[n-1].Slot = rs[0].Slot // a repeat inside the batch: the later value wins
	}
	return rs
}

// checkStoreMatchesOracle compares every read of the head-end's store with
// the reference.
func checkStoreMatchesOracle(t *testing.T, label string, head *ShardedHeadEnd, want storeOracle) {
	t.Helper()
	ids := make([]string, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if got := head.Meters(); fmt.Sprint(got) != fmt.Sprint(ids) {
		t.Fatalf("%s: Meters() = %v, want %v", label, got, ids)
	}
	for _, id := range ids {
		m := want[id]
		if got := head.Count(id); got != len(m) {
			t.Fatalf("%s: Count(%s) = %d, want %d", label, id, got, len(m))
		}
		for slot, kw := range m {
			got, ok := head.Reading(id, timeseries.Slot(slot))
			if !ok || got != kw {
				t.Fatalf("%s: Reading(%s, %d) = %g, %v, want %g", label, id, slot, got, ok, kw)
			}
			for _, near := range []int64{slot - 1, slot + 1, slot + pageSlots} {
				if _, held := m[near]; held || near < 0 {
					continue
				}
				if _, ok := head.Reading(id, timeseries.Slot(near)); ok {
					t.Fatalf("%s: Reading(%s, %d) found a reading never stored", label, id, near)
				}
			}
		}
		// Series over the dense prefix, and one slot past it.
		gap := int64(0)
		for {
			if _, ok := m[gap]; !ok {
				break
			}
			gap++
		}
		if gap > 0 {
			series, err := head.Series(id, int(gap))
			if err != nil {
				t.Fatalf("%s: Series(%s, %d): %v", label, id, gap, err)
			}
			for i, v := range series {
				if v != m[int64(i)] {
					t.Fatalf("%s: Series(%s)[%d] = %g, want %g", label, id, i, v, m[int64(i)])
				}
			}
		}
		_, err := head.Series(id, int(gap)+1)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("slot %d", gap)) {
			t.Fatalf("%s: Series(%s, %d) = %v, want a missing-slot-%d error", label, id, gap+1, err, gap)
		}
	}
	if head.Count("never-seen") != 0 {
		t.Fatalf("%s: an unknown meter has readings", label)
	}
	if _, ok := head.Reading(ids[0], -1); ok {
		t.Fatalf("%s: a negative slot holds a reading", label)
	}
	if _, err := head.Series("never-seen", 1); err == nil {
		t.Fatalf("%s: Series of an unknown meter should error", label)
	}
}

// TestPagedStoreMatchesOracle drives the paged shard store and a
// map-per-slot reference with the same random batches — repeats, slots out
// of order, far-sparse slots, one meter with a shuffled dense prefix and one
// longer than a snapshot record — and requires Count, Reading, Series and
// Meters to agree: live, after Close, and after a WAL compaction and
// reopen. Each arena's first chunk holds one page, so pages land in chunks
// of 1, 2, 4, … pages and the store spans about nine chunk boundaries per
// shard.
func TestPagedStoreMatchesOracle(t *testing.T) {
	dir := t.TempDir()
	head := NewSharded(2, WithWAL(dir), WithWALSync(WALSyncOff),
		WithWALSegmentBytes(4096), WithWALCompactBytes(8192), WithChunkPages(1))
	if err := head.WALError(); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(24)
	want := storeOracle{}
	store := func(id string, rs []BatchReading) {
		t.Helper()
		if err := head.store(id, rs, appendPayload(nil, id, rs)); err != nil {
			t.Fatal(err)
		}
		want.put(id, rs)
	}
	// The dense meter: days 0–4 complete, written in shuffled order with
	// every slot at least once, so its Series prefix spans several pages.
	dense := make([]BatchReading, 5*pageSlots)
	for i := range dense {
		dense[i] = BatchReading{Slot: int64(i), KW: float64(i) / 4}
	}
	rng.Shuffle(len(dense), func(i, j int) { dense[i], dense[j] = dense[j], dense[i] })
	for len(dense) > 0 {
		n := min(len(dense), 1+rng.Intn(70))
		store("dense", dense[:n])
		dense = dense[n:]
	}
	// A meter holding more readings than one snapshot record carries.
	for d := int64(0); d < walSnapshotChunk/pageSlots+10; d++ {
		day := make([]BatchReading, pageSlots)
		for j := range day {
			day[j] = BatchReading{Slot: d*pageSlots + int64(j), KW: float64(j) + 0.5}
		}
		store("long", day)
	}
	for b := 0; b < 600; b++ {
		id := fmt.Sprintf("m%d", rng.Intn(6))
		store(id, oracleBatch(rng, int64(rng.Intn(20))*pageSlots))
	}
	head.Flush()
	checkStoreMatchesOracle(t, "live", head, want)
	for _, sh := range head.shards {
		if len(sh.pages.chunks) < 5 {
			t.Fatalf("a shard used %d arena chunks: too few chunk boundaries crossed", len(sh.pages.chunks))
		}
	}
	if err := head.Close(); err != nil {
		t.Fatal(err)
	}
	// Close unmaps nothing: reads stay exact after it.
	checkStoreMatchesOracle(t, "closed", head, want)

	snaps, err := filepath.Glob(filepath.Join(dir, "shard-*", "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no shard compacted: the snapshot path went untested")
	}
	reopened := NewSharded(2, WithWAL(dir), WithChunkPages(1))
	if err := reopened.WALError(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = reopened.Close() }()
	checkStoreMatchesOracle(t, "reopened", reopened, want)
}

// BenchmarkShardStoreApply48 measures a session's shard-store apply for
// one 48-reading day frame: lock, page lookup, 48 writes, unlock. A fleet
// of 1000 meters fills two weeks each, then starts on a fresh shard (the
// old one's arena is unmapped by the collection that follows), so the
// benchmark's memory stays bounded (about 6 MB) and most frames open a new
// page, as a live day frame does. Pages come from the arena, so the only
// heap allocations are each meter's index and its growth, about four per
// meter-fortnight: 0 allocs/op.
func BenchmarkShardStoreApply48(b *testing.B) {
	const meters, days = 1000, 14
	ids := make([]string, meters)
	for i := range ids {
		ids[i] = fmt.Sprintf("meter-%06d", i)
	}
	frames := make([][]BatchReading, days)
	for d := range frames {
		frames[d] = make([]BatchReading, pageSlots)
		for j := range frames[d] {
			frames[d][j] = BatchReading{Slot: int64(d*pageSlots + j), KW: float64(j) / 4}
		}
	}
	fresh := func() *ingestShard {
		return &ingestShard{readings: make(map[string]*meterPages), pages: newPageArena(0)}
	}
	s := fresh()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := i % (meters * days)
		if k == 0 && i > 0 {
			b.StopTimer()
			s = fresh()
			runtime.GC()
			b.StartTimer()
		}
		s.mu.Lock()
		s.put(ids[k%meters], frames[k/meters])
		s.mu.Unlock()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pageSlots), "ns/reading")
}

// mappedBytes sums the sizes of this process's memory mappings.
func mappedBytes(t *testing.T) int64 {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, line := range strings.Split(strings.TrimSpace(string(maps)), "\n") {
		var lo, hi uint64
		if _, err := fmt.Sscanf(line, "%x-%x", &lo, &hi); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		total += hi - lo
	}
	return int64(total)
}

// TestDroppedHeadEndsUnmapTheirArenas creates and drops head-ends whose
// stores each hold readings in two 6.4 MB first chunks (mapped only on the
// first reading, and barely touched), and requires the process's mappings
// to stay bounded once the collector has run: about 500 MB of chunks if
// nothing were released.
func TestDroppedHeadEndsUnmapTheirArenas(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/maps")
	}
	const rounds, chunkPages = 40, 1 << 14
	fill := func() {
		head := NewSharded(2, WithChunkPages(chunkPages))
		for _, sh := range head.shards {
			if len(sh.pages.chunks) != 0 {
				t.Fatal("NewSharded mapped a chunk before the first reading")
			}
		}
		for m := 0; m < 8; m++ {
			id := fmt.Sprintf("m%d", m)
			rs := []BatchReading{{Slot: int64(m), KW: 1}}
			if err := head.store(id, rs, nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, sh := range head.shards {
			if len(sh.pages.chunks) != 1 {
				t.Fatalf("a shard holds %d chunks, want 1", len(sh.pages.chunks))
			}
		}
		if err := head.Close(); err != nil {
			t.Fatal(err)
		}
	}
	settle := func(limit int64) int64 {
		got := mappedBytes(t)
		for deadline := time.Now().Add(5 * time.Second); got > limit && time.Now().Before(deadline); {
			runtime.GC() // queues the dropped chunks' finalizers
			time.Sleep(10 * time.Millisecond)
			got = mappedBytes(t)
		}
		return got
	}
	base := mappedBytes(t)
	for i := 0; i < rounds; i++ {
		fill()
		if i%8 == 7 {
			runtime.GC()
		}
	}
	const bound = 128 << 20
	if got := settle(base + bound); got > base+bound {
		t.Fatalf("mappings grew by %d MB over %d dropped head-ends, bound %d MB",
			(got-base)>>20, rounds, bound>>20)
	}
}
