package ami

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/meter"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// TestStatsMatchesRegistry is the regression contract of the observability
// refactor: Stats() is a view over the registry-backed instruments,
// so after a concurrent collection run the two must agree exactly.
func TestStatsMatchesRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	key := []byte("metrics-test-key")
	keys := make(map[string][]byte)
	const meters = 8
	for i := 0; i < meters; i++ {
		keys[fmt.Sprintf("m%d", i)] = key
	}
	head := NewSharded(1,
		WithMetrics(reg),
		WithKeyring(NewKeyring(keys)),
		WithIdleTimeout(2*time.Second),
		WithDrainTimeout(time.Second),
	)
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const perMeter = 25
	var wg sync.WaitGroup
	for i := 0; i < meters; i++ {
		wg.Add(1)
		go func(id string, signed bool) {
			defer wg.Done()
			k := key
			if !signed {
				k = []byte("wrong-key") // drives the auth-failure counter
			}
			c, err := DialBatch(addr, id, k, time.Second)
			if err != nil {
				t.Errorf("dial %s: %v", id, err)
				return
			}
			defer c.Close()
			for s := 0; s < perMeter; s++ {
				err := c.SendBatch([]meter.Reading{{MeterID: id, Slot: timeseries.Slot(s), KW: 1.5}})
				if err != nil {
					if signed {
						t.Errorf("send %s slot %d: %v", id, s, err)
					}
					return // unsigned meters are cut off at the first reading
				}
			}
		}(fmt.Sprintf("m%d", i), i%4 != 0)
	}
	wg.Wait()
	if err := head.Close(); err != nil {
		t.Fatal(err)
	}

	st := head.Stats()
	// Get-or-create returns the same instruments the head-end bumps.
	regTotal := reg.Counter("fdeta_ami_connections_total", "").Value()
	regAccepted := reg.Counter("fdeta_ami_readings_accepted_total", "").Value()
	regRejected := reg.Counter("fdeta_ami_readings_rejected_total", "", obs.L("reason", "protocol")).Value()
	regAuth := reg.Counter("fdeta_ami_readings_rejected_total", "", obs.L("reason", "auth")).Value()
	regLimit := reg.Counter("fdeta_ami_connections_rejected_total", "", obs.L("reason", "limit")).Value()
	regIdle := reg.Counter("fdeta_ami_idle_timeouts_total", "").Value()
	regForced := reg.Counter("fdeta_ami_forced_closes_total", "").Value()

	if st.TotalConns != regTotal || st.Accepted != regAccepted ||
		st.Rejected != regRejected || st.AuthFailed != regAuth ||
		st.LimitRejected != regLimit || st.IdleTimeouts != regIdle ||
		st.ForcedCloses != regForced {
		t.Errorf("Stats() diverges from registry:\nstats    = %+v\nregistry = total %d accepted %d rejected %d auth %d limit %d idle %d forced %d",
			st, regTotal, regAccepted, regRejected, regAuth, regLimit, regIdle, regForced)
	}

	// The workload itself must be visible: 6 of 8 meters signed correctly.
	wantAccepted := int64(6 * perMeter)
	if st.Accepted != wantAccepted {
		t.Errorf("accepted = %d, want %d", st.Accepted, wantAccepted)
	}
	if st.AuthFailed != 2 {
		t.Errorf("auth failures = %d, want 2", st.AuthFailed)
	}
	if st.TotalConns != meters {
		t.Errorf("total conns = %d, want %d", st.TotalConns, meters)
	}
	if st.ActiveConns != 0 {
		t.Errorf("active conns after close = %d, want 0", st.ActiveConns)
	}

	// Per-message ingest latency is observed exactly once per accepted
	// reading (rejections bail out before the ack cycle completes).
	hist := reg.Histogram("fdeta_ami_ingest_latency_seconds", "", obs.FineLatencyBuckets())
	if got := hist.Count(); got != uint64(wantAccepted) {
		t.Errorf("latency observations = %d, want %d", got, wantAccepted)
	}

	// The gauge mirrors the mutex-guarded session count.
	if v := reg.Gauge("fdeta_ami_connections_active", "").Value(); v != 0 {
		t.Errorf("active connections gauge = %g, want 0", v)
	}
}

// TestIngestLatencyMatchesAcceptedMessages pins the observation point of
// the ingest-latency histogram: exactly one sample per *accepted message*
// (a single reading or a whole batch frame), never for rejected traffic.
// The original instrumentation sampled before validation, so auth failures
// and protocol rejects polluted the latency distribution.
func TestIngestLatencyMatchesAcceptedMessages(t *testing.T) {
	reg := obs.NewRegistry()
	key := []byte("latency-test-key")
	head := NewSharded(1,
		WithMetrics(reg),
		WithKeyring(NewKeyring(map[string][]byte{"good": key, "bad": key})),
		WithConfig(HeadEndConfig{MaxBatch: 10, DrainTimeout: time.Second}),
	)
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()

	// 5 accepted one-reading frames → 5 observations, 5 readings.
	singles, err := DialBatch(addr, "good", key, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 5; s++ {
		if err := singles.SendBatch([]meter.Reading{{MeterID: "good", Slot: timeseries.Slot(s), KW: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	_ = singles.Close()

	// One auth-rejected single → 0 observations.
	rej, err := DialBatch(addr, "bad", []byte("wrong-key"), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := rej.SendBatch([]meter.Reading{{MeterID: "bad", Slot: 0, KW: 1}}); err == nil {
		t.Fatal("bad-key reading was accepted")
	}
	_ = rej.Close()

	// 20 readings over a 10-cap v3 session → 2 batch frames → 2 observations.
	v3, err := DialBatch(addr, "good", key, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rs := make([]meter.Reading, 20)
	for i := range rs {
		rs[i] = meter.Reading{MeterID: "good", Slot: timeseries.Slot(100 + i), KW: 2}
	}
	if err := v3.SendBatch(rs); err != nil {
		t.Fatal(err)
	}
	_ = v3.Close()

	hist := reg.Histogram("fdeta_ami_ingest_latency_seconds", "", obs.FineLatencyBuckets())
	if got := hist.Count(); got != 7 {
		t.Errorf("latency observations = %d, want 7 (5 singles + 2 batch frames)", got)
	}
	st := head.Stats()
	if st.Accepted != 25 {
		t.Errorf("accepted readings = %d, want 25", st.Accepted)
	}
	if st.AuthFailed != 1 {
		t.Errorf("auth failures = %d, want 1", st.AuthFailed)
	}
	if got := reg.Counter(metricBatchFrames, "").Value(); got != 7 {
		t.Errorf("batch frames = %d, want 7", got)
	}
	if h := reg.Histogram(metricBatchSize, "", batchSizeBuckets()); h.Count() != 7 || h.Sum() != 25 {
		t.Errorf("batch size histogram = count %d sum %g, want count 7 sum 25", h.Count(), h.Sum())
	}
}

// TestPrivateRegistriesDoNotShare: two head-ends without WithMetrics must
// not bleed counters into each other (the old package had one stats struct
// per instance; the registry design must preserve that).
func TestPrivateRegistriesDoNotShare(t *testing.T) {
	a := NewSharded(1)
	b := NewSharded(1)
	defer b.Close()
	if a.Metrics() == b.Metrics() {
		t.Fatal("two default head-ends share a metrics registry")
	}
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	c, err := DialBatch(addr, "m1", nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendBatch([]meter.Reading{{MeterID: "m1", Slot: 0, KW: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().Accepted; got != 1 {
		t.Errorf("head-end a accepted = %d, want 1", got)
	}
	if got := b.Stats().Accepted; got != 0 {
		t.Errorf("head-end b accepted = %d, want 0", got)
	}
}
