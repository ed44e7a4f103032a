package detect

import (
	"math"
	"testing"

	"repro/internal/timeseries"
)

// TestCompactStreamMatchesFull drives the compact stream and the raw-window
// reference through an identical mixed-quality observation sequence —
// trusted readings, gaps, corruption, a mid-stream reseed, and more than a
// full window of wrap-around — and requires bit-identical verdicts at every
// step. This is the contract that lets serve hold only the compact state
// per consumer.
func TestCompactStreamMatchesFull(t *testing.T) {
	train, test := testConsumer(t, 416, 30, 27)
	d, err := NewKLDDetector(train, KLDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	seed := train.MustWeek(train.Weeks() - 1)
	newSeed := train.MustWeek(train.Weeks() - 3)

	full, err := d.newStreamingKLD(seed, QualityPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	compact, err := d.NewCompactStream(seed)
	if err != nil {
		t.Fatal(err)
	}

	step := func(i int, v float64, status timeseries.ReadingStatus) {
		t.Helper()
		fv, ferr := full.ObserveStatus(v, status)
		cv, cerr := compact.ObserveStatus(v, status)
		if (ferr == nil) != (cerr == nil) {
			t.Fatalf("step %d: error divergence: full=%v compact=%v", i, ferr, cerr)
		}
		if ferr != nil {
			return
		}
		if fv != cv {
			t.Fatalf("step %d (status %v): verdict divergence:\n full    %+v\n compact %+v",
				i, status, fv, cv)
		}
		if full.Coverage() != compact.Coverage() {
			t.Fatalf("step %d: coverage divergence: %g vs %g", i, full.Coverage(), compact.Coverage())
		}
		if full.Filled() != compact.Filled() {
			t.Fatalf("step %d: fill divergence: %d vs %d", i, full.Filled(), compact.Filled())
		}
	}

	// 500 observations (wraps the 336-slot window) with periodic quality
	// damage, reseeding a third of the way through.
	for i := 0; i < 500; i++ {
		v := test[i%len(test)]
		status := timeseries.StatusOK
		switch {
		case i%11 == 3:
			status = timeseries.StatusMissing
		case i%17 == 5:
			status = timeseries.StatusCorrupt
		case i%23 == 7:
			status = timeseries.StatusImputed
		}
		step(i, v, status)
		if i == 170 {
			if err := full.Reseed(newSeed); err != nil {
				t.Fatal(err)
			}
			if err := compact.Reseed(newSeed); err != nil {
				t.Fatal(err)
			}
		}
	}

	// An all-zero attack tail must fire identically on both.
	firedFull, firedCompact := -1, -1
	for i := 0; i < timeseries.SlotsPerWeek; i++ {
		fv, err := full.Observe(0)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := compact.Observe(0)
		if err != nil {
			t.Fatal(err)
		}
		if fv != cv {
			t.Fatalf("attack step %d: verdict divergence:\n full    %+v\n compact %+v", i, fv, cv)
		}
		if fv.Anomalous && firedFull < 0 {
			firedFull = i
		}
		if cv.Anomalous && firedCompact < 0 {
			firedCompact = i
		}
	}
	if firedFull < 0 || firedFull != firedCompact {
		t.Errorf("attack detection step: full=%d compact=%d (want equal, >= 0)", firedFull, firedCompact)
	}
}

// TestCompactStreamRejections mirrors the full stream's input hygiene.
func TestCompactStreamRejections(t *testing.T) {
	train, _ := testConsumer(t, 417, 20, 18)
	d, err := NewKLDDetector(train, KLDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.NewCompactStream(train.MustWeek(train.Weeks() - 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := s.Observe(bad); err == nil {
			t.Errorf("Observe(%g) should error", bad)
		}
	}
	if s.Filled() != 0 {
		t.Errorf("rejected readings advanced the window: Filled = %d", s.Filled())
	}
	if _, err := d.NewCompactStream(make(timeseries.Series, 5)); err == nil {
		t.Error("short seed week should error")
	}
}

// TestCompactStreamFootprint pins the per-consumer state budget at the
// detect layer: a compact stream with the paper's 10-bin configuration must
// retain well under 1 KiB.
func TestCompactStreamFootprint(t *testing.T) {
	train, _ := testConsumer(t, 418, 20, 18)
	d, err := NewKLDDetector(train, KLDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.NewCompactStream(train.MustWeek(train.Weeks() - 1))
	if err != nil {
		t.Fatal(err)
	}
	const budget = 768
	if got := s.MemoryFootprint(); got > budget {
		t.Errorf("compact stream footprint = %d bytes, want <= %d", got, budget)
	}
}
