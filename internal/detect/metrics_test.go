package detect

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/timeseries"
)

// TestVerdictMetrics checks that the shared DetectMasked path counts each
// verdict outcome exactly once per call, on the registry installed at
// detector construction time.
func TestVerdictMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetricsRegistry(reg)
	defer SetMetricsRegistry(nil)

	train, test := testConsumer(t, 404, 24, 22)
	d, err := NewKLDDetector(train, KLDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	name := obs.L("detector", d.Name())

	week := test.MustWeek(0)
	if _, err := d.Detect(week); err != nil {
		t.Fatal(err)
	}
	// A week judged at zero coverage is inconclusive.
	mask := timeseries.NewMask(len(week))
	for i := range mask {
		mask[i] = timeseries.StatusMissing
	}
	if v, err := d.DetectMasked(week, mask, QualityPolicy{}); err != nil || !v.Inconclusive {
		t.Fatalf("all-missing week: verdict %+v, err %v", v, err)
	}
	// A short week errors.
	if _, err := d.Detect(week[:10]); err == nil {
		t.Fatal("short week did not error")
	}

	definite := reg.Counter("fdeta_detect_verdicts_total", "", name, obs.L("verdict", "normal")).Value() +
		reg.Counter("fdeta_detect_verdicts_total", "", name, obs.L("verdict", "anomalous")).Value()
	if definite != 1 {
		t.Errorf("definite verdicts = %d, want 1", definite)
	}
	if got := reg.Counter("fdeta_detect_verdicts_total", "", name, obs.L("verdict", "inconclusive")).Value(); got != 1 {
		t.Errorf("inconclusive verdicts = %d, want 1", got)
	}
	if got := reg.Counter("fdeta_detect_errors_total", "", name).Value(); got != 1 {
		t.Errorf("errors = %d, want 1", got)
	}
	if got := reg.Histogram("fdeta_detect_score", "", scoreBuckets, name).Count(); got != 1 {
		t.Errorf("score observations = %d, want 1 (inconclusive and error weeks must not score)", got)
	}

	// Integrated ARIMA runs its inner ARIMA check through detectWeek, so one
	// integrated verdict must not also count as an arima verdict.
	SetMetricsRegistry(obs.NewRegistry())
	integ, err := NewIntegratedARIMADetector(train, IntegratedARIMAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reg2 := MetricsRegistry()
	if _, err := integ.Detect(week); err != nil {
		t.Fatal(err)
	}
	innerTotal := int64(0)
	for _, verdict := range []string{"normal", "anomalous", "inconclusive"} {
		innerTotal += reg2.Counter("fdeta_detect_verdicts_total", "",
			obs.L("detector", "arima"), obs.L("verdict", verdict)).Value()
	}
	if innerTotal != 0 {
		t.Errorf("inner arima verdicts = %d, want 0 (double counting)", innerTotal)
	}
}

// TestStreamNoSharedGauges pins the removal of the per-detector-name
// coverage/fill gauges: two streams of the same detector were overwriting
// each other, so streams now register nothing — the registry stays empty
// when a stream advances, and coverage is read off the stream itself (the
// serve layer aggregates it fleet-wide).
func TestStreamNoSharedGauges(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetricsRegistry(reg)
	defer SetMetricsRegistry(nil)

	train, test := testConsumer(t, 405, 24, 22)
	d, err := NewKLDDetector(train, KLDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range streamMakers() {
		before := len(reg.Snapshot().Metrics)
		s := mk.make(t, d, train[len(train)-timeseries.SlotsPerWeek:])
		week := test.MustWeek(0)
		if _, err := s.Observe(week[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ObserveStatus(0, timeseries.StatusMissing); err != nil {
			t.Fatal(err)
		}
		for _, m := range reg.Snapshot().Metrics {
			if strings.Contains(m.Name, "stream_window") {
				t.Errorf("%s: stream registered shared gauge %q; per-stream gauges were removed", mk.name, m.Name)
			}
		}
		if got := len(reg.Snapshot().Metrics); got != before {
			t.Errorf("%s: stream construction/advance registered %d new instruments, want 0", mk.name, got-before)
		}
		want := 1 - 1.0/timeseries.SlotsPerWeek
		if got := s.Coverage(); got != want {
			t.Errorf("%s: stream coverage = %g, want %g", mk.name, got, want)
		}
	}
}
