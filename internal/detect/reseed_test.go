package detect

import (
	"testing"

	"repro/internal/timeseries"
)

// reseedFixture builds a detector plus its seed (the final training week),
// a distinct trusted week to reseed with, and the test readings.
func reseedFixture(t *testing.T) (d *KLDDetector, test timeseries.Series, oldSeed, newSeed timeseries.Series) {
	t.Helper()
	train, tst := testConsumer(t, 415, 30, 28)
	var err error
	d, err = NewKLDDetector(train, KLDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return d, tst, train.MustWeek(train.Weeks() - 1), train.MustWeek(train.Weeks() - 2)
}

// TestReseedKeepsLiveSlots: swapping the trusted seed week mid-stream (the
// rolling re-train path) must never flip a verdict contribution on the
// untouched live slots — after Reseed, the stream must be indistinguishable
// from a fresh stream seeded with the new week that replayed the same live
// readings.
func TestReseedKeepsLiveSlots(t *testing.T) {
	d, test, oldSeed, newSeed := reseedFixture(t)
	for _, mk := range streamMakers() {
		t.Run(mk.name, func(t *testing.T) {
			s := mk.make(t, d, oldSeed)
			live := test[:100]
			for _, v := range live {
				if _, err := s.Observe(v); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Reseed(newSeed); err != nil {
				t.Fatal(err)
			}

			// A fresh stream on the new seed replaying the same readings is
			// the ground truth: identical window, identical verdicts.
			fresh := mk.make(t, d, newSeed)
			for _, v := range live {
				if _, err := fresh.Observe(v); err != nil {
					t.Fatal(err)
				}
			}
			if s.Filled() != fresh.Filled() {
				t.Fatalf("Filled diverged after reseed: %d vs %d", s.Filled(), fresh.Filled())
			}
			for i, v := range test[100 : 100+200] {
				got, err := s.ObserveStatus(v, timeseries.StatusOK)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.ObserveStatus(v, timeseries.StatusOK)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("verdict %d diverged after reseed:\n got %+v\nwant %+v", i, got, want)
				}
			}
		})
	}
}

// TestReseedRestoresCoverage: untrusted stand-ins are replaced by the new
// trusted seed, so coverage accounting resets to full and subsequent
// bookkeeping starts from a clean slate.
func TestReseedRestoresCoverage(t *testing.T) {
	d, test, oldSeed, newSeed := reseedFixture(t)
	for _, mk := range streamMakers() {
		t.Run(mk.name, func(t *testing.T) {
			s := mk.make(t, d, oldSeed)
			for i, v := range test[:50] {
				status := timeseries.StatusOK
				if i%5 == 0 {
					status = timeseries.StatusMissing
				}
				if _, err := s.ObserveStatus(v, status); err != nil {
					t.Fatal(err)
				}
			}
			if cov := s.Coverage(); cov >= 1 {
				t.Fatalf("expected degraded coverage before reseed, got %g", cov)
			}
			if err := s.Reseed(newSeed); err != nil {
				t.Fatal(err)
			}
			if cov := s.Coverage(); cov != 1 {
				t.Fatalf("coverage after reseed = %g, want 1", cov)
			}
			// One more bad slot must cost exactly 1/336 again.
			if _, err := s.ObserveStatus(0, timeseries.StatusCorrupt); err != nil {
				t.Fatal(err)
			}
			want := 1 - 1.0/timeseries.SlotsPerWeek
			if cov := s.Coverage(); cov != want {
				t.Fatalf("coverage after one bad slot = %g, want %g", cov, want)
			}
		})
	}
}

// TestReseedSameWeekIsNoOp: reseeding with the seed already behind the
// stream changes nothing on a fully trusted stream.
func TestReseedSameWeekIsNoOp(t *testing.T) {
	d, test, oldSeed, _ := reseedFixture(t)
	for _, mk := range streamMakers() {
		t.Run(mk.name, func(t *testing.T) {
			s := mk.make(t, d, oldSeed)
			ctrl := mk.make(t, d, oldSeed)
			for _, v := range test[:40] {
				if _, err := s.Observe(v); err != nil {
					t.Fatal(err)
				}
				if _, err := ctrl.Observe(v); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Reseed(oldSeed); err != nil {
				t.Fatal(err)
			}
			for _, v := range test[40:90] {
				got, err := s.Observe(v)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ctrl.Observe(v)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("no-op reseed changed a verdict:\n got %+v\nwant %+v", got, want)
				}
			}
		})
	}
}

// TestReseedValidatesSeed: a malformed replacement week is rejected and the
// stream state is untouched.
func TestReseedValidatesSeed(t *testing.T) {
	d, _, oldSeed, _ := reseedFixture(t)
	for _, mk := range streamMakers() {
		t.Run(mk.name, func(t *testing.T) {
			s := mk.make(t, d, oldSeed)
			if err := s.Reseed(make(timeseries.Series, 5)); err == nil {
				t.Error("short seed week should error")
			}
			bad := make(timeseries.Series, timeseries.SlotsPerWeek)
			bad[7] = -3
			if err := s.Reseed(bad); err == nil {
				t.Error("invalid seed week should error")
			}
			if cov := s.Coverage(); cov != 1 {
				t.Errorf("failed reseed perturbed coverage: %g", cov)
			}
		})
	}
}

// streamMaker builds one StreamDetector flavour for the shared stream
// suites: the compact production stream and the raw-window reference
// (streaming_oracle_test.go).
type streamMaker struct {
	name string
	new  func(d *KLDDetector, seed timeseries.Series, policy QualityPolicy) (StreamDetector, error)
}

// make builds the flavour's stream under the default quality policy.
func (mk streamMaker) make(t *testing.T, d *KLDDetector, seed timeseries.Series) StreamDetector {
	t.Helper()
	s, err := mk.new(d, seed, QualityPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func streamMakers() []streamMaker {
	return []streamMaker{
		{"full", func(d *KLDDetector, seed timeseries.Series, policy QualityPolicy) (StreamDetector, error) {
			return d.newStreamingKLD(seed, policy)
		}},
		{"compact", func(d *KLDDetector, seed timeseries.Series, policy QualityPolicy) (StreamDetector, error) {
			return d.NewCompactStreamWithPolicy(seed, policy)
		}},
	}
}
