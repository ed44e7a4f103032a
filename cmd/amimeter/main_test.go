package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/ami"
	"repro/internal/timeseries"
)

func TestAmimeterEndToEnd(t *testing.T) {
	head := ami.NewSharded(1)
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = head.Close() }()

	var out bytes.Buffer
	code := run([]string{"-addr", addr, "-id", "m-test", "-slots", "12"}, &out)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, out.String())
	}
	head.Flush()
	if head.Count("m-test") != 12 {
		t.Errorf("head-end collected %d readings, want 12", head.Count("m-test"))
	}
	if !strings.Contains(out.String(), "reported 12 readings") {
		t.Errorf("output = %q", out.String())
	}
}

func TestAmimeterUnderreport(t *testing.T) {
	head := ami.NewSharded(1)
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = head.Close() }()

	// Honest run first.
	var out bytes.Buffer
	if code := run([]string{"-addr", addr, "-id", "honest", "-slots", "8"}, &out); code != 0 {
		t.Fatalf("honest run failed: %s", out.String())
	}
	// Compromised run with the same seed under-reports by half.
	out.Reset()
	if code := run([]string{"-addr", addr, "-id", "thief", "-slots", "8", "-underreport", "0.5"}, &out); code != 0 {
		t.Fatalf("compromised run failed: %s", out.String())
	}
	if !strings.Contains(out.String(), "COMPROMISED") {
		t.Error("compromised banner missing")
	}
	// Same seed, same measurements: every thief reading is half the
	// honest one.
	head.Flush()
	for s := 0; s < 8; s++ {
		h, ok1 := head.Reading("honest", timeseries.Slot(s))
		th, ok2 := head.Reading("thief", timeseries.Slot(s))
		if !ok1 || !ok2 {
			t.Fatalf("slot %d: readings missing (honest %v, thief %v)", s, ok1, ok2)
		}
		if h <= 0 || th >= h || math.Abs(th-h/2) > 1e-9*h {
			t.Errorf("slot %d: thief reported %g, want half of honest %g", s, th, h)
		}
	}
}

func TestAmimeterFaultInjection(t *testing.T) {
	head := ami.NewSharded(1)
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = head.Close() }()

	var out bytes.Buffer
	code := run([]string{"-addr", addr, "-id", "flaky", "-slots", "48", "-fault", "dropout:0.5"}, &out)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAULTY") {
		t.Error("fault banner missing")
	}
	head.Flush()
	got := head.Count("flaky")
	if got >= 48 || got == 0 {
		t.Errorf("head-end collected %d readings; want some but fewer than 48 under 50%% dropout", got)
	}
	if !strings.Contains(out.String(), "dropped by faults") {
		t.Errorf("dropped summary missing: %q", out.String())
	}

	// The same (seed, id) pair replays the same fault pattern.
	out.Reset()
	if code := run([]string{"-addr", addr, "-id", "flaky2", "-slots", "48", "-fault", "dropout:0.5"}, &out); code != 0 {
		t.Fatalf("second run failed: %s", out.String())
	}
	head.Flush()
	if head.Count("flaky2") == 48 {
		t.Error("second faulty meter delivered a dense series")
	}
}

func TestAmimeterBadFlags(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-underreport", "1.5"}, &out); code != 2 {
		t.Error("invalid underreport should exit 2")
	}
	if code := run([]string{"-bogus"}, &out); code != 2 {
		t.Error("unknown flag should exit 2")
	}
	if code := run([]string{"-fault", "sparks:1"}, &out); code != 2 {
		t.Error("invalid fault spec should exit 2")
	}
	// Dead head-end: delivery fails after retries.
	if code := run([]string{"-addr", "127.0.0.1:1", "-slots", "1", "-retries", "1"}, &out); code != 1 {
		t.Error("unreachable head-end should exit 1")
	}
	_ = time.Millisecond
}
