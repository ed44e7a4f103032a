package detect

import (
	"testing"

	"repro/internal/timeseries"
)

// The TestStreamingKLD* tests run over every stream flavour (streamMakers):
// the compact production stream and the raw-window reference.

func TestStreamingKLDSeedValidation(t *testing.T) {
	train, _ := testConsumer(t, 71, 20, 18)
	d, err := NewKLDDetector(train, KLDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range streamMakers() {
		if _, err := mk.new(d, make(timeseries.Series, 5), QualityPolicy{}); err == nil {
			t.Errorf("%s: short seed week should error", mk.name)
		}
		bad := make(timeseries.Series, timeseries.SlotsPerWeek)
		bad[0] = -1
		if _, err := mk.new(d, bad, QualityPolicy{}); err == nil {
			t.Errorf("%s: invalid seed week should error", mk.name)
		}
	}
}

func TestStreamingKLDTrustedSeedStaysQuiet(t *testing.T) {
	train, test := testConsumer(t, 72, 30, 28)
	d, err := NewKLDDetector(train, KLDConfig{Significance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	seed := train.MustWeek(train.Weeks() - 1)
	for _, mk := range streamMakers() {
		t.Run(mk.name, func(t *testing.T) {
			s := mk.make(t, d, seed)
			// Feeding a normal live week should not fire (barring the
			// detector's baseline FP behaviour — verify the full window
			// verdict matches the batch verdict at the end).
			normal := test.MustWeek(0)
			var last Verdict
			for _, v := range normal {
				last, err = s.Observe(v)
				if err != nil {
					t.Fatal(err)
				}
			}
			if s.Filled() != timeseries.SlotsPerWeek {
				t.Errorf("Filled = %d, want %d", s.Filled(), timeseries.SlotsPerWeek)
			}
			batch, err := d.Detect(normal)
			if err != nil {
				t.Fatal(err)
			}
			if last.Anomalous != batch.Anomalous || last.Score != batch.Score {
				t.Errorf("full streamed window must equal batch verdict: %+v vs %+v", last, batch)
			}
		})
	}
}

func TestStreamingKLDDetectsBeforeFullWeek(t *testing.T) {
	// The paper's claim: a sufficiently anomalous stream is flagged before
	// 336 readings arrive. An all-zero attack should fire very early.
	train, _ := testConsumer(t, 73, 30, 28)
	d, err := NewKLDDetector(train, KLDConfig{Significance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range streamMakers() {
		t.Run(mk.name, func(t *testing.T) {
			s := mk.make(t, d, train.MustWeek(train.Weeks()-1))
			fired := -1
			for i := 0; i < timeseries.SlotsPerWeek; i++ {
				v, err := s.Observe(0)
				if err != nil {
					t.Fatal(err)
				}
				if v.Anomalous {
					fired = i + 1
					break
				}
			}
			if fired < 0 {
				t.Fatal("all-zero stream never fired")
			}
			if fired >= timeseries.SlotsPerWeek {
				t.Errorf("detection at slot %d, want before a full week", fired)
			}
			t.Logf("all-zero attack detected after %d readings (%.1f hours)", fired, float64(fired)*0.5)
		})
	}
}

func TestStreamingKLDNegativeReading(t *testing.T) {
	train, _ := testConsumer(t, 74, 10, 8)
	d, err := NewKLDDetector(train, KLDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range streamMakers() {
		s := mk.make(t, d, train.MustWeek(0))
		if _, err := s.Observe(-1); err == nil {
			t.Errorf("%s: negative reading should error", mk.name)
		}
	}
}

// TestStreamingKLDWindowCopy covers the reference stream's window accessor,
// which the compact stream (holding bin indices) does not have.
func TestStreamingKLDWindowCopy(t *testing.T) {
	train, _ := testConsumer(t, 75, 10, 8)
	d, _ := NewKLDDetector(train, KLDConfig{})
	s, _ := d.newStreamingKLD(train.MustWeek(0), QualityPolicy{})
	w := s.Window()
	w[0] = 99999
	if s.Window()[0] == 99999 {
		t.Error("Window must return a copy")
	}
}

func TestDivergenceKindString(t *testing.T) {
	if KullbackLeibler.String() != "kl" || SymmetricKL.String() != "symmetric-kl" || JensenShannon.String() != "jensen-shannon" {
		t.Error("divergence kind names wrong")
	}
	if DivergenceKind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestKLDDetectorBinStrategies(t *testing.T) {
	train, test := testConsumer(t, 83, 30, 28)
	week := test.MustWeek(0)
	flat := make(timeseries.Series, timeseries.SlotsPerWeek)
	for _, strategy := range []BinStrategy{EqualWidth, EqualFrequency} {
		d, err := NewKLDDetector(train, KLDConfig{Binning: strategy, Significance: 0.05})
		if err != nil {
			t.Fatalf("%v: %v", strategy, err)
		}
		vFlat, err := d.Detect(flat)
		if err != nil {
			t.Fatalf("%v: %v", strategy, err)
		}
		if !vFlat.Anomalous {
			t.Errorf("%v: all-zero week should be anomalous", strategy)
		}
		vNormal, err := d.Detect(week)
		if err != nil {
			t.Fatalf("%v: %v", strategy, err)
		}
		if vNormal.Score >= vFlat.Score {
			t.Errorf("%v: normal score %g should be below attack score %g",
				strategy, vNormal.Score, vFlat.Score)
		}
	}
	// Equal-frequency baseline is uniform by construction.
	d, _ := NewKLDDetector(train, KLDConfig{Binning: EqualFrequency, Bins: 10})
	for _, p := range d.XDistribution() {
		if p < 0.05 || p > 0.2 {
			t.Errorf("equal-frequency X distribution should be near-uniform, got %g", p)
		}
	}
	if EqualWidth.String() != "equal-width" || EqualFrequency.String() != "equal-frequency" {
		t.Error("strategy names wrong")
	}
	if BinStrategy(9).String() == "" {
		t.Error("unknown strategy should render")
	}
}

func TestKLDDetectorDivergenceKinds(t *testing.T) {
	train, test := testConsumer(t, 76, 30, 28)
	week := test.MustWeek(0)
	flat := make(timeseries.Series, timeseries.SlotsPerWeek)
	for _, kind := range []DivergenceKind{KullbackLeibler, SymmetricKL, JensenShannon} {
		d, err := NewKLDDetector(train, KLDConfig{Divergence: kind, Significance: 0.05})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		vNormal, err := d.Detect(week)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		vFlat, err := d.Detect(flat)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !vFlat.Anomalous {
			t.Errorf("%v: all-zero week should be anomalous", kind)
		}
		if vFlat.Score <= vNormal.Score {
			t.Errorf("%v: flat score %g should exceed normal score %g", kind, vFlat.Score, vNormal.Score)
		}
	}
	// Names differ per kind.
	dj, _ := NewKLDDetector(train, KLDConfig{Divergence: JensenShannon})
	if dj.Name() != "jensen-shannon-5%" {
		t.Errorf("Name = %q", dj.Name())
	}
}
