package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/timeseries"
)

// ConsumerState is the /consumers/{id} view of one meter's streaming state.
type ConsumerState struct {
	Consumer      string  `json:"consumer"`
	Detector      string  `json:"detector"`
	Tier          string  `json:"tier"`
	Streak        int     `json:"streak"`
	NextSlot      int64   `json:"next_slot"`
	Filled        int     `json:"filled"`
	Coverage      float64 `json:"coverage"`
	Observed      uint64  `json:"observed"`
	Missing       uint32  `json:"missing"`
	Stale         uint32  `json:"stale"`
	Errors        uint32  `json:"errors"`
	Inconclusive  uint32  `json:"inconclusive"`
	Alerts        uint32  `json:"alerts"`
	LastScore     float64 `json:"last_score"`
	LastThreshold float64 `json:"last_threshold"`
}

// ConsumerState snapshots one consumer's state; ok is false if the id is
// not registered.
func (s *Server) ConsumerState(id string) (ConsumerState, bool) {
	s.mu.RLock()
	c := s.consumers[id]
	s.mu.RUnlock()
	if c == nil {
		return ConsumerState{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return ConsumerState{
		Consumer:      c.id,
		Detector:      c.stream.Name(),
		Tier:          c.tier.String(),
		Streak:        int(c.streak),
		NextSlot:      c.nextSlot,
		Filled:        c.stream.Filled(),
		Coverage:      c.stream.Coverage(),
		Observed:      c.observed,
		Missing:       c.missing,
		Stale:         c.stale,
		Errors:        c.errors,
		Inconclusive:  c.inconclusive,
		Alerts:        c.alerts,
		LastScore:     c.lastScore,
		LastThreshold: c.lastThreshold,
	}, true
}

// Dashboard is the /dashboard.json payload: the service counters plus the
// fleet-level coverage aggregates, one GET for a wallboard.
type Dashboard struct {
	Stats         Stats   `json:"stats"`
	CoverageMin   float64 `json:"coverage_min"`
	CoverageMean  float64 `json:"coverage_mean"`
	WindowFillAvg float64 `json:"window_fill_mean"`
	SlotsPerWeek  int     `json:"slots_per_week"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Dashboard computes a fresh fleet snapshot (it sweeps the aggregates
// before reading them).
func (s *Server) Dashboard() Dashboard {
	s.UpdateAggregates()
	return Dashboard{
		Stats:         s.Stats(),
		CoverageMin:   s.met.covMin.Value(),
		CoverageMean:  s.met.covMean.Value(),
		WindowFillAvg: s.met.fillMean.Value(),
		SlotsPerWeek:  timeseries.SlotsPerWeek,
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
}

// Routes returns the service's HTTP surface:
//
//	/alerts            recent alert events, newest first (?n= to limit)
//	/alerts/stream     live alert feed as Server-Sent Events
//	/consumers/{id}    one consumer's streaming state
//	/dashboard.json    fleet counters and coverage aggregates
func (s *Server) Routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /alerts", s.handleAlerts)
	mux.HandleFunc("GET /alerts/stream", s.handleAlertStream)
	mux.HandleFunc("GET /consumers/{id}", s.handleConsumer)
	mux.HandleFunc("GET /dashboard.json", s.handleDashboard)
	return mux
}

// Mount hangs the service's routes off an obs admin server, so /alerts and
// /metrics share one listener.
func (s *Server) Mount(a *obs.AdminServer) {
	h := s.Routes()
	a.Handle("/alerts", h)
	a.Handle("/alerts/stream", h)
	a.Handle("/consumers/", h)
	a.Handle("/dashboard.json", h)
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = v
	}
	events := s.Alerts(n)
	if events == nil {
		events = []AlertEvent{}
	}
	writeJSON(w, events)
}

func (s *Server) handleAlertStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch := s.hub.subscribe()
	if ch == nil {
		http.Error(w, "service closed", http.StatusServiceUnavailable)
		return
	}
	defer s.hub.unsubscribe(ch)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case b, open := <-ch:
			if !open {
				return
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

func (s *Server) handleConsumer(w http.ResponseWriter, r *http.Request) {
	st, ok := s.ConsumerState(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown consumer", http.StatusNotFound)
		return
	}
	writeJSON(w, st)
}

func (s *Server) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Dashboard())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
