package serve

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/detect"
	"repro/internal/timeseries"
)

// PerConsumerBudget is the service's memory contract: registered streaming
// state must average at most this many heap bytes per consumer, so a
// million-consumer fleet fits in about a gigabyte.
const PerConsumerBudget = 1024

// templateStreams builds nTemplates trained detectors (shared across the
// fleet, as a real deployment shares per-class baselines) and returns a
// factory producing a compact stream plus the seed week per consumer.
func templateStreams(t testing.TB, nTemplates int) func(i int) detect.StreamDetector {
	t.Helper()
	type tmpl struct {
		d    *detect.KLDDetector
		seed timeseries.Series
	}
	tmpls := make([]tmpl, nTemplates)
	for i := range tmpls {
		train, _ := serveConsumer(t.(*testing.T), int64(500+i), 4, 4)
		d, err := detect.NewKLDDetector(train, detect.KLDConfig{})
		if err != nil {
			t.Fatal(err)
		}
		tmpls[i] = tmpl{d: d, seed: train.MustWeek(train.Weeks() - 1)}
	}
	return func(i int) detect.StreamDetector {
		tm := tmpls[i%nTemplates]
		sd, err := tm.d.NewCompactStream(tm.seed)
		if err != nil {
			t.Fatal(err)
		}
		return sd
	}
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestServerMemoryPerConsumer pins the ~1KB/consumer budget that makes the
// service viable at utility scale: the heap cost of registering a fleet of
// consumers, measured end to end (compact stream + per-consumer bookkeeping
// + map overhead), must stay within PerConsumerBudget bytes each.
func TestServerMemoryPerConsumer(t *testing.T) {
	if testing.Short() {
		t.Skip("memory accounting sweep is slow under -short")
	}
	const consumers = 30000
	mk := templateStreams(t, 16)

	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	before := heapAlloc()
	for i := 0; i < consumers; i++ {
		if err := s.Register(fmt.Sprintf("consumer-%06d", i), mk(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	after := heapAlloc()

	perConsumer := float64(after-before) / consumers
	t.Logf("fleet of %d consumers: %.0f B/consumer (budget %d)", consumers, perConsumer, PerConsumerBudget)
	if perConsumer > PerConsumerBudget {
		t.Fatalf("per-consumer heap cost %.0f B exceeds the %d B budget", perConsumer, PerConsumerBudget)
	}
	// Keep the fleet reachable so GC inside heapAlloc can't deflate `after`.
	if s.Consumers() != consumers {
		t.Fatal("fleet went missing")
	}
}
