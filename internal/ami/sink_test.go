package ami

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/meter"
	"repro/internal/timeseries"
)

// sinkRecorder collects sink deliveries per meter, copying the borrowed
// slices (the contract forbids retaining them).
type sinkRecorder struct {
	mu  sync.Mutex
	got map[string][]BatchReading
}

func newSinkRecorder() *sinkRecorder {
	return &sinkRecorder{got: make(map[string][]BatchReading)}
}

func (r *sinkRecorder) sink(meterID string, rs []BatchReading) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.got[meterID] = append(r.got[meterID], rs...)
}

func (r *sinkRecorder) readings(meterID string) []BatchReading {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]BatchReading, len(r.got[meterID]))
	copy(out, r.got[meterID])
	return out
}

// TestSinkReceivesAcceptedReadings: every reading accepted over the wire
// reaches the sink — one-reading frames on one shard, a batch across
// four — in per-meter acceptance order.
func TestSinkReceivesAcceptedReadings(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		rec := newSinkRecorder()
		head := NewSharded(1, WithSink(rec.sink), WithDrainTimeout(time.Second))
		addr, err := head.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer head.Close()
		c, err := DialBatch(addr, "m1", nil, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for s := 0; s < 10; s++ {
			if err := c.SendBatch([]meter.Reading{{MeterID: "m1", Slot: timeseries.Slot(s), KW: float64(s)}}); err != nil {
				t.Fatal(err)
			}
		}
		checkSinkOrder(t, rec.readings("m1"), 10)
	})

	t.Run("sharded", func(t *testing.T) {
		rec := newSinkRecorder()
		head := NewSharded(4, WithSink(rec.sink), WithDrainTimeout(time.Second))
		addr, err := head.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer head.Close()
		c, err := DialBatch(addr, "m7", nil, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var rs []meter.Reading
		for s := 0; s < 96; s++ {
			rs = append(rs, meter.Reading{MeterID: "m7", Slot: timeseries.Slot(s), KW: float64(s)})
		}
		if err := c.SendBatch(rs); err != nil {
			t.Fatal(err)
		}
		checkSinkOrder(t, rec.readings("m7"), 96)
	})
}

// TestSinkSeesReadingsBeforeAck: the session runs the sink before it
// acks, so once SendBatch returns the sink has seen every reading acked so
// far, and the store holds them, with no Flush. Several meters send at
// once over a WAL-backed head-end, so the frames of different shards
// interleave.
func TestSinkSeesReadingsBeforeAck(t *testing.T) {
	rec := newSinkRecorder()
	head := NewSharded(4, WithWAL(t.TempDir()), WithSink(rec.sink), WithDrainTimeout(time.Second))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()

	const meters, frames, batch = 6, 20, 3
	var wg sync.WaitGroup
	errs := make(chan error, meters)
	for m := 0; m < meters; m++ {
		id := fmt.Sprintf("m%d", m)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialBatch(addr, id, nil, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for f := 0; f < frames; f++ {
				rs := make([]meter.Reading, batch)
				for i := range rs {
					s := f*batch + i
					rs[i] = meter.Reading{MeterID: id, Slot: timeseries.Slot(s), KW: float64(s)}
				}
				if err := c.SendBatch(rs); err != nil {
					errs <- err
					return
				}
				acked := (f + 1) * batch
				if got := len(rec.readings(id)); got != acked {
					errs <- fmt.Errorf("%s: sink saw %d readings once %d were acked", id, got, acked)
					return
				}
				if got := head.Count(id); got != acked {
					errs <- fmt.Errorf("%s: store holds %d readings once %d were acked", id, got, acked)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for m := 0; m < meters; m++ {
		checkSinkOrder(t, rec.readings(fmt.Sprintf("m%d", m)), frames*batch)
	}
}

// TestFlushWaitsForSinkInFlight: Flush returns only once a frame whose
// store began before it has finished its sink call.
func TestFlushWaitsForSinkInFlight(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	sink := func(string, []BatchReading) {
		close(entered)
		<-release
	}
	head := NewSharded(1, WithSink(sink), WithDrainTimeout(time.Second))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()
	defer releaseOnce() // before Close, which waits for the session in the sink
	c, err := DialBatch(addr, "m1", nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sent := make(chan error, 1)
	go func() { sent <- c.SendBatch([]meter.Reading{{MeterID: "m1", Slot: 0, KW: 1}}) }()
	<-entered
	flushed := make(chan struct{})
	go func() {
		head.Flush()
		close(flushed)
	}()
	select {
	case <-flushed:
		t.Fatal("Flush returned while a sink call was still running")
	case <-time.After(50 * time.Millisecond):
	}
	releaseOnce()
	<-flushed
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

func checkSinkOrder(t *testing.T, got []BatchReading, want int) {
	t.Helper()
	if len(got) != want {
		t.Fatalf("sink saw %d readings, want %d", len(got), want)
	}
	for i, r := range got {
		if r.Slot != int64(i) || r.KW != float64(i) {
			t.Fatalf("sink reading %d = {slot %d, kw %g}, want {%d, %g} (order broken)",
				i, r.Slot, r.KW, i, float64(i))
		}
	}
}

// TestSinkNotReplayedFromWAL: recovery repopulates the store directly — a
// freshly attached sink must not see historical readings again.
func TestSinkNotReplayedFromWAL(t *testing.T) {
	dir := t.TempDir()
	head := NewSharded(2, WithWAL(dir), WithDrainTimeout(time.Second))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialBatch(addr, "m1", nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch([]meter.Reading{{MeterID: "m1", Slot: 0, KW: 1}, {MeterID: "m1", Slot: 1, KW: 2}}); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	if err := head.Close(); err != nil {
		t.Fatal(err)
	}

	rec := newSinkRecorder()
	head2 := NewSharded(2, WithWAL(dir), WithSink(rec.sink), WithDrainTimeout(time.Second))
	defer head2.Close()
	if err := head2.WALError(); err != nil {
		t.Fatal(err)
	}
	if got := head2.Count("m1"); got != 2 {
		t.Fatalf("recovered %d readings, want 2", got)
	}
	if got := rec.readings("m1"); len(got) != 0 {
		t.Fatalf("sink saw %d replayed readings, want 0", len(got))
	}
}
