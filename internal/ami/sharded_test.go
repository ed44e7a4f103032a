package ami

import (
	"fmt"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/meter"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// TestShardedMixedTraffic spreads a fleet over the shards, half sending
// one frame per reading and half one frame per meter, and checks the
// coordinator's merged view.
func TestShardedMixedTraffic(t *testing.T) {
	reg := obs.NewRegistry()
	head := NewSharded(4, WithMetrics(reg), WithDrainTimeout(time.Second))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()

	const meters, slots = 12, 8
	var want []string
	for i := 0; i < meters; i++ {
		id := fmt.Sprintf("m%02d", i)
		want = append(want, id)
		rs := make([]meter.Reading, slots)
		for s := range rs {
			rs[s] = meter.Reading{MeterID: id, Slot: timeseries.Slot(s), KW: float64(i)}
		}
		c, err := DialBatch(addr, id, nil, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		frame := slots
		if i%2 == 1 {
			frame = 1
		}
		for off := 0; off < slots; off += frame {
			if err := c.SendBatch(rs[off : off+frame]); err != nil {
				t.Fatal(err)
			}
		}
		_ = c.Close()
	}
	head.Flush()

	got := head.Meters()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("meters = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("meters = %v, want %v (merged list must be sorted)", got, want)
		}
	}
	st := head.Stats()
	if st.Accepted != meters*slots {
		t.Errorf("accepted = %d, want %d", st.Accepted, meters*slots)
	}

	// The per-shard stored counters must sum to the accepted total once
	// flushed, and every drained queue's depth gauge must read zero.
	var storedSum int64
	var depthSum float64
	nonEmpty := 0
	for i := 0; i < head.Shards(); i++ {
		lbl := obs.L("shard", strconv.Itoa(i))
		stored := reg.Counter(metricShardStored, "", lbl).Value()
		storedSum += stored
		depthSum += reg.Gauge(metricShardQueueDepth, "", lbl).Value()
		if stored > 0 {
			nonEmpty++
		}
	}
	if storedSum != meters*slots {
		t.Errorf("shard stored counters sum to %d, want %d", storedSum, meters*slots)
	}
	if depthSum != 0 {
		t.Errorf("queue depth gauges sum to %g after Flush, want 0", depthSum)
	}
	if nonEmpty < 2 {
		t.Errorf("only %d of %d shards received traffic; the hash is not spreading 12 meters", nonEmpty, head.Shards())
	}
}

// TestShardedCloseDrainsQueues: readings acked before Close must be
// visible after Close even with a tiny queue — shutdown drains, it does
// not drop.
func TestShardedCloseDrainsQueues(t *testing.T) {
	head := NewSharded(2, WithConfig(HeadEndConfig{QueueDepth: 2, DrainTimeout: time.Second}))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const meters, slots = 6, 16
	for i := 0; i < meters; i++ {
		id := fmt.Sprintf("m%d", i)
		c, err := DialBatch(addr, id, nil, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		rs := make([]meter.Reading, slots)
		for s := range rs {
			rs[s] = meter.Reading{MeterID: id, Slot: timeseries.Slot(s), KW: 1}
		}
		if err := c.SendBatch(rs); err != nil {
			t.Fatal(err)
		}
		_ = c.Close()
	}
	if err := head.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < meters; i++ {
		id := fmt.Sprintf("m%d", i)
		if got := head.Count(id); got != slots {
			t.Errorf("%s: %d readings survived Close, want %d", id, got, slots)
		}
	}
}

// TestShardedRebindRoutesAcrossShards: one multiplexed v3 session feeding
// meters that hash to different shards must land each meter in its own
// shard's store.
func TestShardedRebindRoutesAcrossShards(t *testing.T) {
	head := NewSharded(4, WithDrainTimeout(time.Second))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()

	// Pick one meter ID from each of two distinct shards.
	var ids []string
	seen := map[int]bool{}
	for i := 0; len(seen) < 2 && i < 1000; i++ {
		id := fmt.Sprintf("meter-%03d", i)
		if sh := shardIndex(id, head.Shards()); !seen[sh] {
			seen[sh] = true
			ids = append(ids, id)
		}
	}
	if len(seen) < 2 {
		t.Fatal("could not find meter IDs spanning two shards")
	}

	c, err := DialBatch(addr, ids[0], nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, id := range ids {
		if i > 0 {
			if err := c.Bind(id); err != nil {
				t.Fatal(err)
			}
		}
		rs := []meter.Reading{{MeterID: id, Slot: 7, KW: float64(i) + 0.25}}
		if err := c.SendBatch(rs); err != nil {
			t.Fatal(err)
		}
	}
	head.Flush()
	for i, id := range ids {
		if v, ok := head.Reading(id, 7); !ok || v != float64(i)+0.25 {
			t.Errorf("%s slot 7 = %g, %v; want %g, true", id, v, ok, float64(i)+0.25)
		}
	}
}

// TestShardIndexDeterministicAndSpread: the partition function is a pure
// function of the meter ID and spreads realistic fleets reasonably.
func TestShardIndexDeterministicAndSpread(t *testing.T) {
	const n = 8
	counts := make([]int, n)
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("meter-%06d", i)
		a, b := shardIndex(id, n), shardIndex(id, n)
		if a != b {
			t.Fatalf("shardIndex(%q) not deterministic: %d vs %d", id, a, b)
		}
		if a < 0 || a >= n {
			t.Fatalf("shardIndex(%q) = %d, out of [0,%d)", id, a, n)
		}
		counts[a]++
	}
	// Perfectly uniform would be 1250 per shard; reject only gross skew
	// (an off-by-one in the hash typically collapses to a few shards).
	for i, c := range counts {
		if c < 625 || c > 2500 {
			t.Errorf("shard %d holds %d of 10000 meters — hash badly skewed: %v", i, c, counts)
		}
	}
}

// TestShardedStatsMatchRegistry: the coordinator's Stats() must be read
// from the same registry the admin endpoint exports.
func TestShardedStatsMatchRegistry(t *testing.T) {
	head := NewSharded(2, WithDrainTimeout(time.Second))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()

	c, err := DialBatch(addr, "m1", nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rs := []meter.Reading{{MeterID: "m1", Slot: 0, KW: 1}, {MeterID: "m1", Slot: 1, KW: 2}}
	if err := c.SendBatch(rs); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	head.Flush()

	st := head.Stats()
	reg := head.Metrics()
	if got := reg.Counter("fdeta_ami_readings_accepted_total", "").Value(); got != st.Accepted {
		t.Errorf("registry accepted = %d, Stats().Accepted = %d", got, st.Accepted)
	}
	if st.Accepted != 2 || st.TotalConns != 1 {
		t.Errorf("stats = %+v, want 2 accepted over 1 conn", st)
	}
}

// TestShardedFlushAfterCloseIsSafe: lifecycle misuse must not panic or
// deadlock (a Flush racing Close was the riskiest path in the design).
func TestShardedFlushAfterCloseIsSafe(t *testing.T) {
	head := NewSharded(2, WithDrainTimeout(time.Second))
	if _, err := head.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := head.Close(); err != nil {
		t.Fatal(err)
	}
	head.Flush()
	if err := head.Close(); err != nil {
		t.Fatal(err)
	}
}
