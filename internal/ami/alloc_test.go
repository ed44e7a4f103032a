package ami

import (
	"io"
	"testing"

	"repro/internal/meter"
	"repro/internal/timeseries"
)

// dayFrame returns one signed 48-reading frame for meterID, preceded in
// the same bytes by a rebind to it.
func dayFrame(meterID string, key []byte) []byte {
	rs := make([]BatchReading, pageSlots)
	for i := range rs {
		rs[i] = BatchReading{Slot: int64(pageSlots + i), KW: float64(i) / 4}
	}
	return AppendBatchFrame(AppendRebindFrame(nil, meterID), meterID, rs, key)
}

// TestAcceptedFrameAllocatesNothing: once a meter's page exists, the
// head-end serves a rebind plus a signed 48-reading frame — read, decode,
// MAC check, WAL append, store apply, sink call and ack — without one heap
// allocation. The session alternates between two meters, so each rebind
// switches meters.
func TestAcceptedFrameAllocatesNothing(t *testing.T) {
	key := []byte("alloc-key")
	head := NewSharded(2, WithWAL(t.TempDir()), WithWALSync(WALSyncOff),
		WithKeyring(NewKeyring(map[string][]byte{"meter-a": key, "meter-b": key})),
		WithSink(func(string, []BatchReading) {}))
	if err := head.WALError(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = head.Close() }()
	frames := append(dayFrame("meter-a", key), dayFrame("meter-b", key)...)
	s := &session{head: head, meterID: "hello",
		codec: NewCodec(rw{Reader: &loopReader{frame: frames}, Writer: io.Discard})}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 4; i++ { // rebind a, batch a, rebind b, batch b
			if !s.frameStep() {
				t.Fatal("frame refused")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per two rebound, signed frames, want 0", allocs)
	}
	if head.Count("meter-a") != pageSlots || head.Count("meter-b") != pageSlots {
		t.Fatalf("stored %d and %d readings, want %d each", head.Count("meter-a"), head.Count("meter-b"), pageSlots)
	}
}

// TestSignedSendBatchAllocatesNothing: a client's signed SendBatch after a
// Bind allocates nothing once its buffers have grown. The count is
// process-wide, so it includes the head-end serving the frames over
// loopback, which must allocate nothing too.
func TestSignedSendBatchAllocatesNothing(t *testing.T) {
	key := []byte("alloc-key")
	head := NewSharded(1, WithKeyring(NewKeyring(map[string][]byte{"meter-a": key, "meter-b": key})))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = head.Close() }()
	c, err := DialBatch(addr, "meter-a", key, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	days := make(map[string][]meter.Reading)
	for _, id := range []string{"meter-a", "meter-b"} {
		for i := 0; i < pageSlots; i++ {
			days[id] = append(days[id], meter.Reading{MeterID: id, Slot: timeseries.Slot(i), KW: float64(i) / 8})
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, id := range []string{"meter-a", "meter-b"} {
			if err := c.Bind(id); err != nil {
				t.Fatal(err)
			}
			if err := c.SendBatch(days[id]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per two bound, signed sends, want 0", allocs)
	}
}
