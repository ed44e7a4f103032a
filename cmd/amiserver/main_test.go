package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/ami"
	"repro/internal/meter"
	ts "repro/internal/timeseries"
)

// syncBuffer guards the capture buffer: the test polls it while the server
// goroutine is still writing.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestAmiserverCollectsAndExits(t *testing.T) {
	var out syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-duration", "500ms", "-stats", "100ms"}, &out, os.Stderr)
	}()

	// Wait for the bound address to appear in the output.
	var addr string
	re := regexp.MustCompile(`listening on (\S+)`)
	deadline := time.After(5 * time.Second)
	for addr == "" {
		select {
		case <-deadline:
			t.Fatalf("server never reported its address: %q", out.String())
		default:
		}
		if m := re.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	// A meter reports a few readings while the server is up.
	c, err := ami.DialBatch(addr, "m1", nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 5; s++ {
		if err := c.SendBatch([]meter.Reading{{MeterID: "m1", Slot: ts.Slot(s), KW: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	_ = c.Close()

	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("server exited %d: %s", code, out.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not exit on schedule")
	}
	if !strings.Contains(out.String(), "1 meters, 5 readings accepted") {
		t.Errorf("final stats missing: %q", out.String())
	}
}

// The acceptance scenario for this PR: with a meter connected and *idle*,
// SIGTERM must bring the server down within the drain timeout instead of
// deadlocking in the head-end's Close.
func TestAmiserverSIGTERMWithIdleConnExitsWithinDrain(t *testing.T) {
	var out syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-drain", "200ms", "-stats", "1h"}, &out, os.Stderr)
	}()

	var addr string
	re := regexp.MustCompile(`listening on (\S+)`)
	deadline := time.After(5 * time.Second)
	for addr == "" {
		select {
		case <-deadline:
			t.Fatalf("server never reported its address: %q", out.String())
		default:
		}
		if m := re.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	// A meter connects, reports once, then holds the connection idle — the
	// exact state that used to hang wg.Wait() forever.
	c, err := ami.DialBatch(addr, "m1", nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.SendBatch([]meter.Reading{{MeterID: "m1", Slot: 0, KW: 1}}); err != nil {
		t.Fatal(err)
	}

	// run registered signal.Notify before printing the address, so the
	// self-delivered SIGTERM is guaranteed to be caught, not fatal.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("server exited %d: %s", code, out.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("server did not exit after SIGTERM with an idle meter connected: %q", out.String())
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("shutdown took %v, want bounded by the 200ms drain", elapsed)
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("shutdown banner missing: %q", out.String())
	}
	if !strings.Contains(out.String(), "forced closes") {
		t.Errorf("final stats line missing: %q", out.String())
	}
}

// TestAmiserverMetricsEndpoint is the PR's acceptance scenario: with
// -metrics-addr set the server exposes /metrics, and its ingest counters
// agree with the head-end's Stats() line printed on exit.
func TestAmiserverMetricsEndpoint(t *testing.T) {
	var out syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
			"-duration", "600ms", "-stats", "1h"}, &out, os.Stderr)
	}()

	var addr, metricsAddr string
	reAddr := regexp.MustCompile(`listening on (\S+)`)
	reMetrics := regexp.MustCompile(`admin endpoint on http://(\S+)/metrics`)
	deadline := time.After(5 * time.Second)
	for addr == "" || metricsAddr == "" {
		select {
		case <-deadline:
			t.Fatalf("server never reported its addresses: %q", out.String())
		default:
		}
		if m := reAddr.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		}
		if m := reMetrics.FindStringSubmatch(out.String()); m != nil {
			metricsAddr = m[1]
		}
		time.Sleep(10 * time.Millisecond)
	}

	c, err := ami.DialBatch(addr, "m1", nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 7; s++ {
		if err := c.SendBatch([]meter.Reading{{MeterID: "m1", Slot: ts.Slot(s), KW: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	_ = c.Close()

	resp, err := http.Get("http://" + metricsAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics returned %d: %s", resp.StatusCode, body)
	}
	if want := "fdeta_ami_readings_accepted_total 7"; !strings.Contains(string(body), want) {
		t.Errorf("/metrics missing %q:\n%s", want, body)
	}

	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("server exited %d: %s", code, out.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not exit on schedule")
	}
	// The stats line on exit reads from the same registry.
	if !strings.Contains(out.String(), "7 readings accepted") {
		t.Errorf("final stats disagree with /metrics: %q", out.String())
	}
}

func TestAmiserverBadFlags(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-bogus"}, &out, os.Stderr); code != 2 {
		t.Error("unknown flag should exit 2")
	}
	// Unbindable address.
	if code := run([]string{"-addr", "256.0.0.1:99999"}, &out, os.Stderr); code != 1 {
		t.Error("bad address should exit 1")
	}
}

// waitForAddr polls the capture buffer until the listening banner appears.
func waitForAddr(t *testing.T, out *syncBuffer) string {
	t.Helper()
	re := regexp.MustCompile(`listening on (\S+)`)
	deadline := time.After(5 * time.Second)
	for {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		select {
		case <-deadline:
			t.Fatalf("server never reported its address: %q", out.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// The durability regression for this PR: a reading acked just before
// SIGTERM must survive into the next server run. The first run's shutdown
// has to drain the session, flush the shard queues, and sync the WAL in
// that order; the second run replays the log and reports the reading
// recovered.
func TestAmiserverWALAckedReadingSurvivesSIGTERMRestart(t *testing.T) {
	walDir := t.TempDir()
	serve := func() *syncBuffer {
		var out syncBuffer
		done := make(chan int, 1)
		go func() {
			done <- run([]string{"-addr", "127.0.0.1:0", "-shards", "2",
				"-wal-dir", walDir, "-wal-sync", "interval", "-stats", "1h"}, &out, os.Stderr)
		}()
		addr := waitForAddr(t, &out)

		c, err := ami.DialBatch(addr, "m1", nil, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// Send returns only after the head-end's ack — from here on the
		// reading is covered by the durability contract.
		if err := c.SendBatch([]meter.Reading{{MeterID: "m1", Slot: 7, KW: 3.25}}); err != nil {
			t.Fatal(err)
		}
		_ = c.Close()

		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case code := <-done:
			if code != 0 {
				t.Fatalf("server exited %d: %s", code, out.String())
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("server did not exit after SIGTERM: %q", out.String())
		}
		return &out
	}

	first := serve()
	if !strings.Contains(first.String(), "wal recovered 0 readings") {
		t.Fatalf("first run should start from an empty log: %q", first.String())
	}
	if !strings.Contains(first.String(), "wal 1 appended") {
		t.Fatalf("final stats missing the WAL append: %q", first.String())
	}

	second := serve()
	if !strings.Contains(second.String(), "wal recovered 1 readings") {
		t.Fatalf("acked reading did not survive the restart: %q", second.String())
	}
}

// -wal-dir works with the default shard count — a fixed 1, so the count
// pinned into the log cannot drift with the hardware — and a bad sync
// policy must never reach the listener.
func TestAmiserverWALFlagValidation(t *testing.T) {
	walDir := t.TempDir()
	serve := func() string {
		var out syncBuffer
		done := make(chan int, 1)
		go func() {
			done <- run([]string{"-addr", "127.0.0.1:0", "-wal-dir", walDir, "-stats", "1h"}, &out, os.Stderr)
		}()
		addr := waitForAddr(t, &out)
		c, err := ami.DialBatch(addr, "m1", nil, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SendBatch([]meter.Reading{{MeterID: "m1", Slot: 0, KW: 1}}); err != nil {
			t.Fatal(err)
		}
		_ = c.Close()
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case code := <-done:
			if code != 0 {
				t.Fatalf("-wal-dir with the default shard count exited %d: %s", code, out.String())
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("server did not exit after SIGTERM: %q", out.String())
		}
		return out.String()
	}
	if first := serve(); !strings.Contains(first, "wal recovered 0 readings") {
		t.Fatalf("first run should start from an empty log: %q", first)
	}
	// The restart resends slot 0 — an overwrite in the store, a second
	// record in the log — after recovering the first run's acked reading.
	if second := serve(); !strings.Contains(second, "wal recovered 1 readings") {
		t.Fatalf("acked reading did not survive the restart: %q", second)
	}

	var out bytes.Buffer
	if code := run([]string{"-shards", "2", "-wal-dir", t.TempDir(), "-wal-sync", "sometimes"}, &out, os.Stderr); code != 2 {
		t.Errorf("bad -wal-sync exited %d, want 2", code)
	}
}

// Reopening a WAL directory with a different shard count must refuse to
// serve rather than misroute replayed readings.
func TestAmiserverWALShardCountMismatchRefuses(t *testing.T) {
	walDir := t.TempDir()
	var out syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-shards", "2",
			"-wal-dir", walDir, "-duration", "100ms", "-stats", "1h"}, &out, os.Stderr)
	}()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("first run exited %d: %s", code, out.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first run did not exit")
	}

	var out2 bytes.Buffer
	if code := run([]string{"-addr", "127.0.0.1:0", "-shards", "4",
		"-wal-dir", walDir, "-duration", "100ms"}, &out2, os.Stderr); code != 1 {
		t.Fatalf("shard-count mismatch exited %d, want 1", code)
	}
}

// A WAL tail cut mid-record by a crash is truncated on restart, and the
// head-end's warning about it reaches the operator on stderr.
func TestAmiserverTornTailWarnsOnStderr(t *testing.T) {
	walDir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-wal-dir", walDir, "-duration", "100ms", "-stats", "1h"}
	var out syncBuffer
	if code := run(args, &out, os.Stderr); code != 0 {
		t.Fatalf("first run exited %d: %s", code, out.String())
	}
	segs, err := filepath.Glob(filepath.Join(walDir, "shard-*", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment after the first run (glob error %v)", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out2, errOut syncBuffer
	if code := run(args, &out2, &errOut); code != 0 {
		t.Fatalf("restart exited %d: %s%s", code, out2.String(), errOut.String())
	}
	if !strings.Contains(out2.String(), "1 torn tails truncated") {
		t.Fatalf("restart did not truncate the torn tail: %q", out2.String())
	}
	if !strings.Contains(errOut.String(), "wal torn tail truncated") {
		t.Fatalf("torn-tail warning missing from stderr: %q", errOut.String())
	}
}
