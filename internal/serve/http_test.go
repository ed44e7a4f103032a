package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// alertingServer registers one consumer scripted to escalate to LOW.
func alertingServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	opts = append(opts, WithAlertPolicy(AlertPolicy{MinStreak: 2, MediumStreak: 50, HighStreak: 60}))
	s := newTestServer(t, opts...)
	if err := s.Register("c1", &fakeStream{verdicts: repeat(anomalous(1.2), 3)}, 0); err != nil {
		t.Fatal(err)
	}
	feed(t, s, "c1", 0, []float64{1, 2, 3})
	s.Flush()
	return s
}

func TestAlertsEndpoint(t *testing.T) {
	s := alertingServer(t)
	ts := httptest.NewServer(s.Routes())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/alerts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var events []AlertEvent
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Tier != "LOW" || events[0].Consumer != "c1" {
		t.Fatalf("alerts = %+v, want one LOW for c1", events)
	}

	// ?n= caps the count; a bad n is a 400; an empty ring is [] not null.
	if resp, err = http.Get(ts.URL + "/alerts?n=0"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("alerts?n=0 status = %d", resp.StatusCode)
	}
	if resp, err = http.Get(ts.URL + "/alerts?n=bogus"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("alerts?n=bogus status = %d, want 400", resp.StatusCode)
	}
}

func TestConsumerEndpoint(t *testing.T) {
	s := alertingServer(t)
	ts := httptest.NewServer(s.Routes())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/consumers/c1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ConsumerState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Consumer != "c1" || st.Tier != "LOW" || st.Observed != 3 || st.NextSlot != 3 {
		t.Errorf("consumer state = %+v", st)
	}

	resp, err = http.Get(ts.URL + "/consumers/nobody")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown consumer status = %d, want 404", resp.StatusCode)
	}
}

func TestDashboardEndpoint(t *testing.T) {
	s := alertingServer(t)
	ts := httptest.NewServer(s.Routes())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/dashboard.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d Dashboard
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if d.Stats.Consumers != 1 || d.Stats.Observed != 3 {
		t.Errorf("dashboard stats = %+v", d.Stats)
	}
	if d.CoverageMin != 1 || d.CoverageMean != 1 {
		t.Errorf("dashboard coverage = min %g mean %g, want 1", d.CoverageMin, d.CoverageMean)
	}
}

// TestSSEStream: a live subscriber receives an alert event as an SSE frame,
// and Close ends the stream.
func TestSSEStream(t *testing.T) {
	s := newTestServer(t, WithAlertPolicy(AlertPolicy{MinStreak: 1}))
	if err := s.Register("c1", &fakeStream{verdicts: repeat(anomalous(1.2), 1)}, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Routes())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/alerts/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q, want text/event-stream", ct)
	}

	feed(t, s, "c1", 0, []float64{1})
	s.Flush()

	type frame struct {
		e   AlertEvent
		err error
	}
	got := make(chan frame, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var e AlertEvent
			err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e)
			got <- frame{e, err}
			return
		}
		got <- frame{err: fmt.Errorf("stream ended without a data frame: %v", sc.Err())}
	}()
	select {
	case f := <-got:
		if f.err != nil {
			t.Fatal(f.err)
		}
		if f.e.Consumer != "c1" || f.e.Tier != "LOW" {
			t.Errorf("SSE event = %+v, want LOW for c1", f.e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no SSE event within 5s")
	}
}

// TestMountOnAdmin: the serve routes hang off the obs admin listener next
// to /metrics and /healthz.
func TestMountOnAdmin(t *testing.T) {
	reg := obs.NewRegistry()
	s := alertingServer(t, WithMetrics(reg))
	admin, err := obs.ServeAdmin("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	s.Mount(admin)

	base := "http://" + admin.Addr()
	for _, path := range []string{"/alerts", "/dashboard.json", "/consumers/c1", "/healthz", "/metrics"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}

	// The shared registry exports the serve instruments.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	if !strings.Contains(b.String(), metricObserved) {
		t.Errorf("/metrics lacks %s", metricObserved)
	}
}
