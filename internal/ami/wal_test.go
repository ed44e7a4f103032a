package ami

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/meter"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// testWALInstruments builds a throwaway instrument set for direct shardWAL
// tests.
func testWALInstruments() walInstruments {
	reg := obs.NewRegistry()
	return walInstruments{
		appended:  reg.Counter(metricWALAppended, ""),
		syncTime:  reg.Histogram(metricWALSync, "", obs.FineLatencyBuckets()),
		recovered: reg.Counter(metricWALRecovered, ""),
		tornTails: reg.Counter(metricWALTornTail, ""),
		errors:    reg.Counter(metricWALErrors, ""),
	}
}

// collectApply returns an apply func recording replayed readings keyed by
// (meter, slot), plus the map it fills.
func collectApply() (func(string, []BatchReading), map[string]float64) {
	got := make(map[string]float64)
	return func(meterID string, rs []BatchReading) {
		for _, r := range rs {
			got[fmt.Sprintf("%s/%d", meterID, r.Slot)] = r.KW
		}
	}, got
}

// crashSharded simulates kill -9 for in-process tests: the listener and
// every connection die instantly, no drain, no WAL sync or close.
// Appended records are durable anyway — write(2) completed before each
// ack, which is exactly the property recovery relies on after a real
// process crash.
func crashSharded(sh *ShardedHeadEnd) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.closed = true
	if sh.ln != nil {
		_ = sh.ln.Close()
	}
	for c := range sh.conns {
		_ = c.Close()
	}
}

// encodeWALRecord frames one meter's readings as a WAL record, the way
// snapshots do.
func encodeWALRecord(buf []byte, meterID string, rs []BatchReading) []byte {
	return appendWALRecord(buf, appendPayload(nil, meterID, rs))
}

func TestWALRecordRoundTrip(t *testing.T) {
	rs := []BatchReading{{Slot: 0, KW: 1.25}, {Slot: 47, KW: 0}, {Slot: 3, KW: 9.5}}
	buf := encodeWALRecord(nil, "meter-007", rs)
	buf = encodeWALRecord(buf, "m2", rs[2:])

	meterID, got, next, err := decodeWALRecord(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if meterID != "meter-007" || len(got) != len(rs) {
		t.Fatalf("decoded %q/%d readings, want meter-007/%d", meterID, len(got), len(rs))
	}
	for i := range rs {
		if got[i] != rs[i] {
			t.Fatalf("reading %d = %+v, want %+v", i, got[i], rs[i])
		}
	}
	meterID, got, next, err = decodeWALRecord(buf, next)
	if err != nil {
		t.Fatal(err)
	}
	if meterID != "m2" || len(got) != 1 || got[0] != rs[2] {
		t.Fatalf("second record = %q/%+v, want m2/[%+v]", meterID, got, rs[2])
	}
	if _, _, _, err := decodeWALRecord(buf, next); !errors.Is(err, io.EOF) {
		t.Fatalf("end of buffer = %v, want io.EOF", err)
	}

	// Replay decodes with the wire's rules: a record no session could have
	// accepted — no readings, a negative slot — ends the valid prefix even
	// when its CRC matches.
	for name, bad := range map[string][]BatchReading{
		"empty":         nil,
		"negative slot": {{Slot: -3, KW: 1}},
	} {
		if _, _, _, err := decodeWALRecord(encodeWALRecord(nil, "m3", bad), 0); !errors.Is(err, errWALCorrupt) {
			t.Errorf("%s record: err = %v, want errWALCorrupt", name, err)
		}
	}
}

func TestWALReplayStopsAtCorruptRecord(t *testing.T) {
	var buf []byte
	buf = encodeWALRecord(buf, "m1", []BatchReading{{Slot: 1, KW: 1}})
	keep := len(buf)
	buf = encodeWALRecord(buf, "m2", []BatchReading{{Slot: 2, KW: 2}})
	buf = encodeWALRecord(buf, "m3", []BatchReading{{Slot: 3, KW: 3}})
	buf[keep+walRecordHeader+3] ^= 0x40 // flip one payload bit in record 2

	dir := t.TempDir()
	path := filepath.Join(dir, walSegmentName(1))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	apply, got := collectApply()
	n, validLen, torn, err := replayWALFile(path, apply)
	if err != nil {
		t.Fatal(err)
	}
	if !torn {
		t.Fatal("bit flip not reported as torn")
	}
	if n != 1 || int(validLen) != keep {
		t.Fatalf("replayed %d readings to offset %d, want 1 reading / offset %d", n, validLen, keep)
	}
	if len(got) != 1 || got["m1/1"] != 1 {
		t.Fatalf("replay invented or lost readings: %v", got)
	}
}

func TestWALTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	ins := testWALInstruments()
	w, err := openShardWAL(dir, walConfig{sync: WALSyncOff}, ins, obs.Logger("test"), func(string, []BatchReading) {})
	if err != nil {
		t.Fatal(err)
	}
	store := &ingestShard{readings: make(map[string]*meterPages)}
	for i := 0; i < 3; i++ {
		id, rs := fmt.Sprintf("m%d", i), []BatchReading{{Slot: int64(i), KW: float64(i)}}
		if _, _, err := w.Append(appendPayload(nil, id, rs), store, id, rs); err != nil {
			t.Fatal(err)
		}
		if store.readings[id] == nil {
			t.Fatalf("Append returned before applying %s to the store", id)
		}
	}
	seg := filepath.Join(dir, walSegmentName(w.seq))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Cut the last record mid-payload: a crash during the third append.
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	apply, got := collectApply()
	ins2 := testWALInstruments()
	w2, err := openShardWAL(dir, walConfig{sync: WALSyncOff}, ins2, obs.Logger("test"), apply)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w2.Close() }()
	if v := ins2.tornTails.Value(); v != 1 {
		t.Fatalf("torn tail counter = %d, want 1", v)
	}
	if v := ins2.recovered.Value(); v != 2 {
		t.Fatalf("recovered counter = %d, want 2", v)
	}
	if len(got) != 2 || got["m0/0"] != 0 || got["m1/1"] != 1 {
		t.Fatalf("recovered readings = %v, want the 2-record valid prefix", got)
	}
	// The truncation is persistent: a third open sees a clean log.
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	ins3 := testWALInstruments()
	w3, err := openShardWAL(dir, walConfig{sync: WALSyncOff}, ins3, obs.Logger("test"), func(string, []BatchReading) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w3.Close() }()
	if v := ins3.tornTails.Value(); v != 0 {
		t.Fatalf("second recovery still reports %d torn tails; truncation did not persist", v)
	}
	if v := ins3.recovered.Value(); v != 2 {
		t.Fatalf("second recovery replayed %d readings, want 2", v)
	}
}

// A corrupt mid-sequence segment ends the valid prefix: later segments are
// dropped entirely, never replayed past the tear.
func TestWALSegmentsPastTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	write := func(seq uint64, meterID string, slot int64, corrupt bool) {
		buf := encodeWALRecord(nil, meterID, []BatchReading{{Slot: slot, KW: 1}})
		if corrupt {
			buf[walRecordHeader] ^= 0xff
		}
		if err := os.WriteFile(filepath.Join(dir, walSegmentName(seq)), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(1, "a", 1, false)
	write(2, "b", 2, true)
	write(3, "c", 3, false)

	apply, got := collectApply()
	ins := testWALInstruments()
	w, err := openShardWAL(dir, walConfig{sync: WALSyncOff}, ins, obs.Logger("test"), apply)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.Close() }()
	if len(got) != 1 || got["a/1"] != 1 {
		t.Fatalf("recovered %v, want only segment 1's record", got)
	}
	if _, err := os.Stat(filepath.Join(dir, walSegmentName(3))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("segment past the tear still present (err=%v)", err)
	}
	if v := ins.tornTails.Value(); v != 2 {
		t.Fatalf("torn tail counter = %d, want 2 (truncated seg 2, dropped seg 3)", v)
	}
}

func TestParseWALSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want WALSyncPolicy
		ok   bool
	}{
		{"always", WALSyncAlways, true},
		{"interval", WALSyncInterval, true},
		{"off", WALSyncOff, true},
		{"", DefaultWALSync, true},
		{"sometimes", "", false},
	} {
		got, err := ParseWALSyncPolicy(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("ParseWALSyncPolicy(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// The chaos invariant, in-process: readings acked over the real TCP path
// before a simulated kill -9 must all be present after recovery.
func TestShardedWALCrashRecoveryKeepsAckedReadings(t *testing.T) {
	for _, policy := range []WALSyncPolicy{WALSyncAlways, WALSyncInterval, WALSyncOff} {
		t.Run(string(policy), func(t *testing.T) {
			dir := t.TempDir()
			head := NewSharded(4, WithWAL(dir), WithWALSync(policy), WithDrainTimeout(time.Second))
			if err := head.WALError(); err != nil {
				t.Fatal(err)
			}
			addr, err := head.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}

			// A concurrent fleet: every ack is recorded; sends failing after
			// the crash are simply not acked and carry no guarantee.
			type ackKey struct {
				meterID string
				slot    timeseries.Slot
			}
			var mu sync.Mutex
			acked := make(map[ackKey]float64)
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for i := 0; i < 6; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					id := fmt.Sprintf("m%02d", i)
					// Even meters send both readings in one frame, odd meters
					// one frame per reading.
					frame := 2 - i%2
					c, err := DialBatch(addr, id, nil, time.Second)
					if err != nil {
						return
					}
					defer func() { _ = c.Close() }()
					for s := 0; ; s += 2 {
						select {
						case <-stop:
							return
						default:
						}
						rs := []meter.Reading{
							{MeterID: id, Slot: timeseries.Slot(s), KW: float64(s)},
							{MeterID: id, Slot: timeseries.Slot(s + 1), KW: float64(s + 1)},
						}
						for off := 0; off < len(rs) && err == nil; off += frame {
							err = c.SendBatch(rs[off : off+frame])
						}
						if err != nil {
							return // crash landed mid-send: not acked, no claim
						}
						mu.Lock()
						for _, r := range rs {
							acked[ackKey{id, r.Slot}] = r.KW
						}
						mu.Unlock()
					}
				}()
			}

			// Let acks accumulate, then pull the plug mid-load.
			deadline := time.After(5 * time.Second)
			for {
				mu.Lock()
				n := len(acked)
				mu.Unlock()
				if n >= 100 {
					break
				}
				select {
				case <-deadline:
					t.Fatal("fleet never reached 100 acked readings")
				case <-time.After(time.Millisecond):
				}
			}
			crashSharded(head)
			close(stop)
			wg.Wait()

			head2 := NewSharded(4, WithWAL(dir))
			if err := head2.WALError(); err != nil {
				t.Fatal(err)
			}
			defer func() { _ = head2.Close() }()
			st := head2.WALStats()
			if !st.Enabled || st.Recovered == 0 {
				t.Fatalf("recovery stats = %+v, want enabled with readings replayed", st)
			}
			mu.Lock()
			defer mu.Unlock()
			missing := 0
			for key, kw := range acked {
				got, ok := head2.Reading(key.meterID, key.slot)
				if !ok || got != kw {
					missing++
					if missing <= 5 {
						t.Errorf("acked reading %s/%d=%g lost (got %g, present=%v)",
							key.meterID, key.slot, kw, got, ok)
					}
				}
			}
			if missing > 0 {
				t.Fatalf("%d of %d acked readings lost across crash", missing, len(acked))
			}
		})
	}
}

// Rotation and snapshot+truncate compaction: a shard driven far past its
// compaction threshold must end up with a snapshot, a bounded set of
// segments, and a store that recovers in full.
func TestWALRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	head := NewSharded(1, WithWAL(dir), WithWALSync(WALSyncOff),
		WithWALSegmentBytes(256), WithWALCompactBytes(512))
	if err := head.WALError(); err != nil {
		t.Fatal(err)
	}
	const total = 300
	for i := 0; i < total; i++ {
		rs := []BatchReading{{Slot: int64(i), KW: float64(i) / 2}}
		id := fmt.Sprintf("m%d", i%7)
		if err := head.store(id, rs, appendPayload(nil, id, rs)); err != nil {
			t.Fatal(err)
		}
	}
	if err := head.Close(); err != nil { // waits for the compactor
		t.Fatal(err)
	}

	sdir := filepath.Join(dir, "shard-000")
	entries, err := os.ReadDir(sdir)
	if err != nil {
		t.Fatal(err)
	}
	snaps, segBytes := 0, int64(0)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".snap") {
			snaps++
		}
		if strings.HasSuffix(e.Name(), ".seg") {
			if info, err := e.Info(); err == nil {
				segBytes += info.Size()
			}
		}
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("compaction left temp file %s behind", e.Name())
		}
	}
	if snaps != 1 {
		t.Fatalf("found %d snapshots, want exactly 1 (older ones removed)", snaps)
	}
	// Without compaction the log would hold ~300 records ≈ 11 KiB of
	// segments; compaction keeps sealed bytes near the 512-byte threshold.
	if segBytes > 4096 {
		t.Fatalf("segments hold %d bytes after compaction, want bounded", segBytes)
	}

	head2 := NewSharded(1, WithWAL(dir))
	if err := head2.WALError(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = head2.Close() }()
	for i := 0; i < total; i++ {
		id := fmt.Sprintf("m%d", i%7)
		got, ok := head2.Reading(id, timeseries.Slot(i))
		if !ok || got != float64(i)/2 {
			t.Fatalf("reading %s/%d = %g (present=%v) after compacted recovery, want %g",
				id, i, got, ok, float64(i)/2)
		}
	}
}

// TestStoreOrderMatchesWALOrder: writers racing on the same slots leave
// the live store exactly as a replay of the log rebuilds it, on every
// shard — the store applies each frame under the log's append lock, so
// last write wins in log order on both sides. Every writer writes every
// shared slot, so each one's final value is decided by a race; each frame
// also carries a slot only its writer writes, so a record a compaction
// loses shows. Small segments make the race span rotations and
// compactions.
func TestStoreOrderMatchesWALOrder(t *testing.T) {
	dir := t.TempDir()
	head := NewSharded(2, WithWAL(dir), WithWALSync(WALSyncOff),
		WithWALSegmentBytes(4096), WithWALCompactBytes(16384))
	if err := head.WALError(); err != nil {
		t.Fatal(err)
	}
	const writers, meters, slots = 8, 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := 0; s < slots; s++ {
				for m := 0; m < meters; m++ {
					id := fmt.Sprintf("m%d", m)
					rs := []BatchReading{{Slot: int64(s), KW: float64(w)}, {Slot: int64(slots*(w+1) + s), KW: 1}}
					if err := head.store(id, rs, appendPayload(nil, id, rs)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	live := make([][slots * (writers + 1)]float64, meters)
	for m := range live {
		for s := range live[m] {
			kw, ok := head.Reading(fmt.Sprintf("m%d", m), timeseries.Slot(s))
			if !ok {
				t.Fatalf("m%d/%d missing from the live store", m, s)
			}
			live[m][s] = kw
		}
	}
	if err := head.Close(); err != nil {
		t.Fatal(err)
	}

	replayed := NewSharded(2, WithWAL(dir))
	defer func() { _ = replayed.Close() }()
	if err := replayed.WALError(); err != nil {
		t.Fatal(err)
	}
	for m := range live {
		for s := range live[m] {
			if kw, _ := replayed.Reading(fmt.Sprintf("m%d", m), timeseries.Slot(s)); kw != live[m][s] {
				t.Fatalf("m%d/%d: live store kept writer %g's value, the log replays writer %g's", m, s, live[m][s], kw)
			}
		}
	}
}

// Reopening a WAL directory under a different shard count must refuse:
// the hash partition would scatter replayed readings into wrong shards.
func TestWALShardCountMismatchRefusesToListen(t *testing.T) {
	dir := t.TempDir()
	head := NewSharded(2, WithWAL(dir))
	if err := head.WALError(); err != nil {
		t.Fatal(err)
	}
	if err := head.Close(); err != nil {
		t.Fatal(err)
	}

	head2 := NewSharded(4, WithWAL(dir))
	defer func() { _ = head2.Close() }()
	if head2.WALError() == nil {
		t.Fatal("shard-count mismatch not detected")
	}
	if _, err := head2.Listen("127.0.0.1:0"); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("Listen after failed recovery = %v, want refusal naming the shard count", err)
	}
}

// A WAL append failure must reject the reading (transient storage code),
// never ack it: an ack is a durability promise the head-end cannot keep.
func TestWALAppendFailureRejectsInsteadOfAcking(t *testing.T) {
	dir := t.TempDir()
	head := NewSharded(1, WithWAL(dir), WithWALSync(WALSyncOff), WithDrainTimeout(time.Second))
	if err := head.WALError(); err != nil {
		t.Fatal(err)
	}
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = head.Close() }()

	// Fail every future append by closing the log out from under the shard.
	if err := head.shards[0].wal.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := DialBatch(addr, "m1", nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	sendErr := c.SendBatch([]meter.Reading{{MeterID: "m1", Slot: 0, KW: 1}})
	if sendErr == nil {
		t.Fatal("reading acked despite failed WAL append")
	}
	var pe *ProtocolError
	if !errors.As(sendErr, &pe) || pe.Code != CodeStorage {
		t.Fatalf("send error = %v, want *ProtocolError with code %q", sendErr, CodeStorage)
	}
	if errors.Is(sendErr, ErrRejected) {
		t.Fatal("storage failure classified permanent; meters must retry it")
	}
	head.Flush()
	if got := head.Count("m1"); got != 0 {
		t.Fatalf("store holds %d readings for m1 after rejected append, want 0", got)
	}
}

// With no WAL directory the durability layer must be completely inert.
func TestShardedWithoutWALUnchanged(t *testing.T) {
	head := NewSharded(2, WithDrainTimeout(time.Second))
	defer func() { _ = head.Close() }()
	if err := head.WALError(); err != nil {
		t.Fatal(err)
	}
	st := head.WALStats()
	if st.Enabled || st.Appended != 0 || st.Recovered != 0 {
		t.Fatalf("WAL stats on a WAL-less head-end = %+v, want zero/disabled", st)
	}
	if err := head.store("m1", []BatchReading{{Slot: 3, KW: 2}}, nil); err != nil {
		t.Fatal(err)
	}
	head.Flush()
	if got, ok := head.Reading("m1", 3); !ok || got != 2 {
		t.Fatalf("reading = %g (present=%v), want 2", got, ok)
	}
}
