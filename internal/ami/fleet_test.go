package ami

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/meter"
	"repro/internal/timeseries"
)

// fleetIDs names a test fleet of n meters.
func fleetIDs(n int) []string {
	ids := make([]string, n)
	for m := range ids {
		ids[m] = fmt.Sprintf("fleet-%02d", m)
	}
	return ids
}

// fleetKW derives a reading's value from its meter and slot, so a reading
// stored under the wrong meter shows as a wrong value.
func fleetKW(m, slot int) float64 { return float64(m) + float64(slot)/64 }

// fleetSource frames each meter's slots [0, slots) in frames of batch
// readings. Meter m's cursor is only touched by the session that owns m.
func fleetSource(ids []string, slots, batch int) func(int, []meter.Reading) ([]meter.Reading, error) {
	pos := make([]int, len(ids))
	return func(m int, buf []meter.Reading) ([]meter.Reading, error) {
		for end := min(pos[m]+batch, slots); pos[m] < end; pos[m]++ {
			buf = append(buf, meter.Reading{MeterID: ids[m], Slot: timeseries.Slot(pos[m]), KW: fleetKW(m, pos[m])})
		}
		return buf, nil
	}
}

// checkFleetStored fails unless every meter's series is dense over slots
// and holds exactly the values the fleet sent for it.
func checkFleetStored(t *testing.T, head *ShardedHeadEnd, ids []string, slots int) {
	t.Helper()
	head.Flush()
	for m, id := range ids {
		series, err := head.Series(id, slots)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for s, kw := range series {
			if kw != fleetKW(m, s) {
				t.Fatalf("%s slot %d = %g, want %g", id, s, kw, fleetKW(m, s))
			}
		}
	}
}

// With fewer sessions than meters, each session rebinds across its share
// of the fleet: every meter's frames are stored exactly once, in slot
// order, and the callback sees each acked frame once.
func TestDriveFleetRebindsSessionsAcrossMeters(t *testing.T) {
	const meters, sessions, slots, batch = 7, 3, 23, 5
	var mu sync.Mutex
	stored := make(map[string][]int64)
	head := NewSharded(2, WithSink(func(id string, rs []BatchReading) {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range rs {
			stored[id] = append(stored[id], r.Slot)
		}
	}))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = head.Close() }()

	ids := fleetIDs(meters)
	var ackMu sync.Mutex
	acks := make(map[int][]int) // meter → first slot of each acked frame
	acked := func(m int, rs []meter.Reading, rtt time.Duration) {
		ackMu.Lock()
		defer ackMu.Unlock()
		if rtt <= 0 {
			t.Errorf("meter %d: acked frame with rtt %v", m, rtt)
		}
		acks[m] = append(acks[m], int(rs[0].Slot))
	}
	if err := DriveFleet(context.Background(), addr, sessions, 3, ids, fleetSource(ids, slots, batch), acked); err != nil {
		t.Fatal(err)
	}
	checkFleetStored(t, head, ids, slots)

	mu.Lock()
	defer mu.Unlock()
	for _, id := range ids {
		got := stored[id]
		if len(got) != slots {
			t.Fatalf("%s: %d readings stored, want %d exactly once", id, len(got), slots)
		}
		for s, slot := range got {
			if slot != int64(s) {
				t.Fatalf("%s: reading %d stored for slot %d, want slots in order", id, s, slot)
			}
		}
	}
	for m := range ids {
		want := []int{0, 5, 10, 15, 20}
		if fmt.Sprint(acks[m]) != fmt.Sprint(want) {
			t.Errorf("meter %d: acked frames starting at %v, want %v", m, acks[m], want)
		}
	}
	if st := head.Stats(); st.TotalConns != sessions {
		t.Errorf("head-end saw %d connections, want one per session (%d)", st.TotalConns, sessions)
	}
}

// A frame cut by a dropped connection — mid-frame, mid-ack, wherever the
// proxy's byte budget lands, including behind a rebind — is resent on a
// redialed session that hellos as the meter it was bound to.
func TestDriveFleetResendsCutFramesAsBoundMeter(t *testing.T) {
	const meters, slots, batch = 4, 12, 3
	head, upstream := startHeadEnd(t)
	// A hello exchange is ~150 bytes and a 3-reading frame plus its ack
	// ~100, so every connection dies after a few frames.
	proxy := newChaosProxy(upstream, 500)
	addr := proxy.listen(t)

	ids := fleetIDs(meters)
	if err := DriveFleet(context.Background(), addr, 1, 8, ids, fleetSource(ids, slots, batch), nil); err != nil {
		t.Fatal(err)
	}
	checkFleetStored(t, head, ids, slots)
	if proxy.killCount() == 0 {
		t.Fatal("proxy never cut a connection — the test exercised nothing")
	}
	if st := head.Stats(); st.Rejected != 0 {
		t.Errorf("head-end rejected %d readings; a redial must hello as the bound meter", st.Rejected)
	}
}

// Cancelling the context while every session sits in its retry backoff
// ends the drive promptly with the context's error.
func TestDriveFleetCancelMidBackoff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close() // nothing listens: every dial fails, then backs off

	ids := fleetIDs(3)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(150*time.Millisecond, cancel)
	start := time.Now()
	// A budget of 100 attempts backs off for minutes without cancellation.
	err = DriveFleet(ctx, addr, 2, 100, ids, fleetSource(ids, 4, 2), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("drive error = %v, want context.Canceled in the chain", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drive took %v to stop; cancellation must interrupt the backoff", elapsed)
	}
}

// A frame source's error ends the drive and is returned.
func TestDriveFleetSourceError(t *testing.T) {
	_, addr := startHeadEnd(t)
	boom := errors.New("source failed")
	next := func(int, []meter.Reading) ([]meter.Reading, error) { return nil, boom }
	if err := DriveFleet(context.Background(), addr, 0, 1, fleetIDs(2), next, nil); !errors.Is(err, boom) {
		t.Fatalf("drive error = %v, want the source's error", err)
	}
}
