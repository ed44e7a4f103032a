package ami

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/meter"
	"repro/internal/timeseries"
)

// chaosProxy forwards raw bytes between meter and head-end but kills each
// connection after a byte budget — mid-frame, mid-ack, wherever the budget
// lands. It is the failure-injection harness for ReliableClient.
type chaosProxy struct {
	upstream string
	budget   int

	mu    sync.Mutex
	ln    net.Listener
	kills int

	wg sync.WaitGroup
}

func newChaosProxy(upstream string, budgetBytes int) *chaosProxy {
	return &chaosProxy{upstream: upstream, budget: budgetBytes}
}

func (p *chaosProxy) listen(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.ln = ln
	p.mu.Unlock()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.handle(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		p.wg.Wait()
	})
	return ln.Addr().String()
}

func (p *chaosProxy) handle(down net.Conn) {
	defer func() { _ = down.Close() }()
	up, err := net.Dial("tcp", p.upstream)
	if err != nil {
		return
	}
	defer func() { _ = up.Close() }()

	// Copy both directions, counting bytes; kill when the budget is spent.
	var used int
	var mu sync.Mutex
	kill := make(chan struct{})
	var once sync.Once
	account := func(n int) {
		mu.Lock()
		used += n
		spent := used >= p.budget
		mu.Unlock()
		if spent {
			once.Do(func() {
				p.mu.Lock()
				p.kills++
				p.mu.Unlock()
				close(kill)
			})
		}
	}
	var cw sync.WaitGroup
	pipe := func(dst, src net.Conn) {
		defer cw.Done()
		// Tearing down both directions on exit keeps the sibling pipe from
		// spinning on a half-open session.
		defer func() {
			_ = dst.Close()
			_ = src.Close()
		}()
		buf := make([]byte, 256)
		for {
			select {
			case <-kill:
				_ = dst.Close()
				_ = src.Close()
				return
			default:
			}
			_ = src.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
			n, err := src.Read(buf)
			if n > 0 {
				account(n)
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					continue
				}
				if err == io.EOF {
					return
				}
				return
			}
		}
	}
	cw.Add(2)
	go pipe(up, down)
	go pipe(down, up)
	cw.Wait()
}

func (p *chaosProxy) killCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.kills
}

func TestReliableClientSurvivesConnectionChaos(t *testing.T) {
	head, upstream := startHeadEnd(t)
	// A hello exchange is ~150 bytes and each one-reading frame plus its
	// ack ~50; a 500-byte budget kills every connection after a handful of
	// readings.
	proxy := newChaosProxy(upstream, 500)
	proxyAddr := proxy.listen(t)

	rc, err := NewReliableClient(proxyAddr, "m1", nil, time.Second, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rc.Close() }()

	const n = 40
	for s := 0; s < n; s++ {
		r := meter.Reading{MeterID: "m1", Slot: timeseries.Slot(s), KW: float64(s) + 0.25}
		if err := rc.SendAllContext(context.Background(), []meter.Reading{r}); err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
	}
	head.Flush()
	if got := head.Count("m1"); got != n {
		t.Fatalf("head-end stored %d readings, want %d", got, n)
	}
	// Every reading must be intact despite the chaos.
	series, err := head.Series("m1", n)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < n; s++ {
		if series[s] != float64(s)+0.25 {
			t.Fatalf("slot %d corrupted: %g", s, series[s])
		}
	}
	if proxy.killCount() == 0 {
		t.Fatal("chaos proxy never killed a connection — the test exercised nothing")
	}
	t.Logf("delivered %d readings across %d injected connection failures", n, proxy.killCount())
}

func TestReliableClientGivesUpEventually(t *testing.T) {
	// Dead upstream: every dial fails; the retry budget must bound the
	// attempt count rather than spin forever.
	rc, err := NewReliableClient("127.0.0.1:1", "m1", nil, 50*time.Millisecond, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = rc.SendAllContext(context.Background(), []meter.Reading{{MeterID: "m1", Slot: 0, KW: 1}})
	if err == nil {
		t.Fatal("send to dead upstream should fail")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("retry loop took implausibly long")
	}
}

func TestReliableClientDoesNotRetryRejections(t *testing.T) {
	// An auth rejection is permanent: the reliable client must not burn
	// its retry budget redialing.
	head := NewSharded(1, WithKeyring(NewKeyring(map[string][]byte{"m1": []byte("right-key")})))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = head.Close() }()

	rc, err := NewReliableClient(addr, "m1", []byte("wrong-key"), time.Second, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rc.Close() }()
	err = rc.SendAllContext(context.Background(), []meter.Reading{{MeterID: "m1", Slot: 0, KW: 1}})
	if err == nil {
		t.Fatal("bad key should be rejected")
	}
	if got := head.Stats().AuthFailed; got != 1 {
		t.Errorf("AuthFailed = %d, want exactly 1 (no retries of a rejection)", got)
	}
}

func TestReliableClientValidation(t *testing.T) {
	if _, err := NewReliableClient("x", "", nil, time.Second, 3, 0); err == nil {
		t.Error("empty meter ID should error")
	}
	rc, err := NewReliableClient("x", "m1", nil, time.Second, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rc.retries != 1 {
		t.Error("retries should clamp to >= 1")
	}
	if err := rc.Close(); err != nil {
		t.Error("closing an idle client should succeed")
	}
}

func TestReliableClientSendAll(t *testing.T) {
	head, upstream := startHeadEnd(t)
	rc, err := NewReliableClient(upstream, "m1", nil, time.Second, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rc.Close() }()
	rs := make([]meter.Reading, 5)
	for i := range rs {
		rs[i] = meter.Reading{MeterID: "m1", Slot: timeseries.Slot(i), KW: 2}
	}
	if err := rc.SendAllContext(context.Background(), rs); err != nil {
		t.Fatal(err)
	}
	head.Flush()
	if head.Count("m1") != 5 {
		t.Errorf("Count = %d", head.Count("m1"))
	}
}

// The documented backoff contract: attempt n waits base*2^(n-1), capped at
// maxRetryBackoff, jittered uniformly over [d/2, 3d/2).
func TestRetryDelayJitterStaysInBounds(t *testing.T) {
	const base = 100 * time.Millisecond
	for attempt := 1; attempt <= 12; attempt++ {
		want := base
		for i := 1; i < attempt && want < maxRetryBackoff; i++ {
			want *= 2
		}
		if want > maxRetryBackoff {
			want = maxRetryBackoff
		}
		for trial := 0; trial < 200; trial++ {
			got := retryDelay(base, attempt)
			if got < want/2 || got >= want+want/2 {
				t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, got, want/2, want+want/2)
			}
		}
	}
}

// Deep retry schedules must flatten at the cap: even attempt 60 (which
// would overflow a naive base<<59) stays within the 30s cap's jitter band.
func TestRetryDelayRespectsCap(t *testing.T) {
	for _, attempt := range []int{20, 60} {
		for trial := 0; trial < 100; trial++ {
			got := retryDelay(time.Second, attempt)
			if got < maxRetryBackoff/2 || got >= maxRetryBackoff+maxRetryBackoff/2 {
				t.Fatalf("attempt %d: delay %v outside the capped band [%v, %v)",
					attempt, got, maxRetryBackoff/2, maxRetryBackoff+maxRetryBackoff/2)
			}
		}
	}
}

// A zero or negative base disables the pause entirely (the test fast path).
func TestRetryDelayZeroBase(t *testing.T) {
	for _, base := range []time.Duration{0, -time.Second} {
		if got := retryDelay(base, 5); got != 0 {
			t.Fatalf("retryDelay(%v, 5) = %v, want 0", base, got)
		}
	}
}

// Cancelling the context mid-backoff must abort the send immediately, not
// after the backoff timer expires.
func TestSendContextAbortsMidBackoff(t *testing.T) {
	// No listener at this address: every attempt fails at dial, so the
	// client sits in its inter-attempt backoff almost immediately.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	// A 20s base would hold the second attempt for >=10s without the
	// cancellation path; the deadline below is far tighter.
	rc, err := NewReliableClient(addr, "m1", nil, 200*time.Millisecond, 5, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rc.Close() }()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	sendErr := rc.SendAllContext(ctx, []meter.Reading{{MeterID: "m1", Slot: 0, KW: 1}})
	elapsed := time.Since(start)
	if sendErr == nil {
		t.Fatal("send succeeded against a dead address")
	}
	if !errors.Is(sendErr, context.Canceled) {
		t.Fatalf("send error = %v, want context.Canceled in the chain", sendErr)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("send took %v to abort; cancellation must interrupt the backoff sleep", elapsed)
	}
}
