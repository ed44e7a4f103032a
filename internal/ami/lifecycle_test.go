package ami

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/meter"
	"repro/internal/timeseries"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The seed bug this PR fixes: Close used to block forever on wg.Wait()
// while any meter held an idle connection. With the registry + drain
// timeout it must return within a bounded time and account the force-close.
func TestHeadEndCloseBoundedWithIdleConn(t *testing.T) {
	h := NewSharded(1, WithConfig(HeadEndConfig{DrainTimeout: 100 * time.Millisecond}))
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialBatch(addr, "m1", nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	// One acked reading proves the handler is live and registered; then the
	// meter goes idle with the connection open. Wait until the session is
	// parked in its next read — past the loop-top drain check — so Close
	// cannot catch it between the ack and that check and let it drain
	// itself gracefully, which would leave nothing to force-close.
	if err := c.SendBatch([]meter.Reading{{MeterID: "m1", Slot: 0, KW: 1}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "session parked in recv", func() bool { return h.parked.Load() == 1 })

	start := time.Now()
	if err := h.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Close took %v with an idle connection; want bounded by the drain timeout", elapsed)
	}
	if st := h.Stats(); st.ForcedCloses == 0 {
		t.Errorf("idle connection was not accounted as force-closed: %+v", st)
	}
}

func TestMITMCloseBoundedWithIdleConn(t *testing.T) {
	_, upstream := startHeadEnd(t)
	mitm := NewMITMWith(upstream, nil, MITMConfig{DrainTimeout: 100 * time.Millisecond})
	proxyAddr, err := mitm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialBatch(proxyAddr, "m1", nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.SendBatch([]meter.Reading{{MeterID: "m1", Slot: 0, KW: 1}}); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	if err := mitm.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("MITM Close took %v with an idle connection", elapsed)
	}
}

// A second Close (and Close before Listen) must stay cheap and safe.
func TestCloseIdempotent(t *testing.T) {
	h := NewSharded(1, WithConfig(HeadEndConfig{DrainTimeout: 50 * time.Millisecond}))
	if err := h.Close(); err != nil {
		t.Fatalf("close before listen: %v", err)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	m := NewMITMWith("127.0.0.1:1", nil, MITMConfig{DrainTimeout: 50 * time.Millisecond})
	if err := m.Close(); err != nil {
		t.Fatalf("mitm close before listen: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("mitm second close: %v", err)
	}
}

func TestListenTwiceRejected(t *testing.T) {
	h, _ := startHeadEnd(t)
	if _, err := h.Listen("127.0.0.1:0"); !errors.Is(err, ErrListening) {
		t.Errorf("second head-end Listen = %v, want ErrListening", err)
	}
	mitm := NewMITM("127.0.0.1:1", nil)
	if _, err := mitm.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mitm.Close() }()
	if _, err := mitm.Listen("127.0.0.1:0"); !errors.Is(err, ErrListening) {
		t.Errorf("second MITM Listen = %v, want ErrListening", err)
	}
}

func TestHeadEndConnectionLimit(t *testing.T) {
	h := NewSharded(1, WithConfig(HeadEndConfig{MaxConns: 2, DrainTimeout: 200 * time.Millisecond}))
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Close() }()

	// Fill the limit with two live sessions.
	var first [2]*Client
	for i := range first {
		id := string(rune('a' + i))
		c, err := DialBatch(addr, id, nil, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		if err := c.SendBatch([]meter.Reading{{MeterID: id, Slot: 0, KW: 1}}); err != nil {
			t.Fatal(err)
		}
		first[i] = c
	}
	waitFor(t, "both sessions registered", func() bool { return h.Stats().ActiveConns == 2 })

	// The N+1th meter is turned away at its hello with a typed, transient
	// busy error.
	extra, err := DialBatch(addr, "overflow", nil, time.Second)
	if err == nil {
		_ = extra.Close()
		t.Fatal("dial past the connection limit should fail")
	}
	if !errors.Is(err, ErrBusy) {
		t.Errorf("limit rejection = %v, want ErrBusy", err)
	}
	if errors.Is(err, ErrRejected) {
		t.Error("busy must classify as transient, not a permanent rejection")
	}

	// ... without affecting the first N.
	for i, c := range first {
		id := string(rune('a' + i))
		if err := c.SendBatch([]meter.Reading{{MeterID: id, Slot: 1, KW: 1}}); err != nil {
			t.Errorf("existing session %s disturbed by limit rejection: %v", id, err)
		}
	}
	if st := h.Stats(); st.LimitRejected != 1 {
		t.Errorf("LimitRejected = %d, want 1", st.LimitRejected)
	}
}

func TestHeadEndIdleTimeoutCutsConnection(t *testing.T) {
	h := NewSharded(1, WithConfig(HeadEndConfig{IdleTimeout: 80 * time.Millisecond, DrainTimeout: 100 * time.Millisecond}))
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Close() }()
	c, err := DialBatch(addr, "m1", nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.SendBatch([]meter.Reading{{MeterID: "m1", Slot: 0, KW: 1}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "idle timeout accounting", func() bool { return h.Stats().IdleTimeouts >= 1 })
	// The cut is advisory-transient: whatever surfaces client-side, it must
	// not classify as a permanent rejection.
	if err := c.SendBatch([]meter.Reading{{MeterID: "m1", Slot: 1, KW: 1}}); err == nil {
		t.Error("send on an idle-timed-out session should fail")
	} else if errors.Is(err, ErrRejected) {
		t.Errorf("idle timeout classified as permanent rejection: %v", err)
	}
}

func TestSessionMismatchTyped(t *testing.T) {
	_, addr := startHeadEnd(t)
	c, err := DialBatch(addr, "m1", nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	// Bypass the client's own validation to hit the server check.
	if err := c.codec.writeFrames(AppendBatchFrame(nil, "evil", []BatchReading{{Slot: 0, KW: 1}}, nil)); err != nil {
		t.Fatal(err)
	}
	_, err = c.recvReply(frameBatchAck)
	var perr *ProtocolError
	if !errors.As(err, &perr) || perr.Code != CodeSessionMismatch {
		t.Fatalf("expected a session_mismatch rejection, got %v", err)
	}
	if !errors.Is(perr, ErrSessionMismatch) || !errors.Is(perr, ErrRejected) {
		t.Errorf("session mismatch must match both sentinels: %v", perr)
	}
}

func TestAuthRejectionTyped(t *testing.T) {
	h := NewSharded(1, WithKeyring(NewKeyring(map[string][]byte{"m1": []byte("right-key")})))
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Close() }()

	c, err := DialBatch(addr, "m1", []byte("wrong-key"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	err = c.SendBatch([]meter.Reading{{MeterID: "m1", Slot: 7, KW: 1}})
	if err == nil {
		t.Fatal("bad key should be rejected")
	}
	if !errors.Is(err, ErrRejected) {
		t.Errorf("auth failure must classify as a permanent rejection: %v", err)
	}
	var ae *AuthError
	if !errors.As(err, &ae) {
		t.Fatalf("auth rejection should carry *AuthError, got %v", err)
	}
	if ae.MeterID != "m1" || ae.Slot != 7 {
		t.Errorf("AuthError = %+v, want meter m1 slot 7", ae)
	}
	st := h.Stats()
	if st.AuthFailed != 1 || st.Accepted != 0 {
		t.Errorf("stats = %+v, want 1 auth failure and 0 accepted", st)
	}
	h.Flush()
	if n := h.Count("m1"); n != 0 {
		t.Errorf("rejected reading reached the store: Count = %d", n)
	}
}

func TestHeadEndStatsCounts(t *testing.T) {
	h, addr := startHeadEnd(t)
	c, err := DialBatch(addr, "m1", nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if err := c.SendBatch([]meter.Reading{{MeterID: "m1", Slot: timeseries.Slot(s), KW: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	_ = c.Close()
	waitFor(t, "connection teardown", func() bool { return h.Stats().ActiveConns == 0 })
	st := h.Stats()
	if st.Accepted != 3 || st.TotalConns != 1 || st.Rejected != 0 || st.ForcedCloses != 0 {
		t.Errorf("stats = %+v, want 3 accepted over 1 clean connection", st)
	}
}

func TestRetryDelayBoundsAndCap(t *testing.T) {
	if d := retryDelay(0, 5); d != 0 {
		t.Errorf("zero base must disable backoff, got %v", d)
	}
	base := 10 * time.Millisecond
	for attempt := 1; attempt <= 60; attempt++ {
		want := base << (attempt - 1)
		if attempt > 12 { // past the cap (10ms << 11 > 30s)
			want = maxRetryBackoff
		}
		if want > maxRetryBackoff {
			want = maxRetryBackoff
		}
		for trial := 0; trial < 20; trial++ {
			d := retryDelay(base, attempt)
			if d < want/2 || d >= want/2+want {
				t.Fatalf("attempt %d: delay %v outside jitter window [%v, %v)", attempt, d, want/2, want/2+want)
			}
		}
	}
}

func TestSendContextCancelAbortsBackoff(t *testing.T) {
	// Dead upstream with an hour-scale backoff: only context cancellation
	// can bring Send back quickly.
	rc, err := NewReliableClient("127.0.0.1:1", "m1", nil, 50*time.Millisecond, 5, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = rc.SendAllContext(ctx, []meter.Reading{{MeterID: "m1", Slot: 0, KW: 1}})
	if err == nil {
		t.Fatal("send to dead upstream should fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancellation did not abort the backoff sleep (took %v)", time.Since(start))
	}
}

// SendAll wraps per-reading failures; the wrap must stay classifiable.
func TestSendAllWrappedErrorsClassify(t *testing.T) {
	h := NewSharded(1, WithKeyring(NewKeyring(map[string][]byte{"m1": []byte("right-key")})))
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Close() }()
	rc, err := NewReliableClient(addr, "m1", []byte("wrong-key"), time.Second, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rc.Close() }()
	err = rc.SendAllContext(context.Background(), []meter.Reading{{MeterID: "m1", Slot: 0, KW: 1}})
	if err == nil {
		t.Fatal("SendAll with a bad key should fail")
	}
	if !errors.Is(err, ErrRejected) {
		t.Errorf("wrapped SendAll error lost its classification: %v", err)
	}
	var ae *AuthError
	if !errors.As(err, &ae) {
		t.Errorf("wrapped SendAll error lost the *AuthError cause: %v", err)
	}
	if got := h.Stats().AuthFailed; got != 1 {
		t.Errorf("AuthFailed = %d, want exactly 1 (no retry of a permanent rejection)", got)
	}
}
