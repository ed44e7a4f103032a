package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// AdminServer is the opt-in HTTP admin endpoint: a live collection or
// evaluation run can be scraped and profiled without stopping it. Routes:
//
//	/metrics       Prometheus text exposition of the registry
//	/metrics.json  the same snapshot as JSON
//	/healthz       {"status":"ok", ...} liveness probe
//	/debug/pprof/  the standard net/http/pprof handlers
//
// The server binds eagerly (ServeAdmin fails fast on a bad address) and
// serves until Close.
type AdminServer struct {
	reg   *Registry
	ln    net.Listener
	srv   *http.Server
	mux   *http.ServeMux
	start time.Time
}

// ServeAdmin starts an admin endpoint on addr (e.g. "127.0.0.1:9090", or
// ":0" for an ephemeral port) exporting the given registry; nil selects the
// process default registry. The caller owns the returned server and must
// Close it.
func ServeAdmin(addr string, reg *Registry) (*AdminServer, error) {
	if reg == nil {
		reg = Default()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen: %w", err)
	}
	a := &AdminServer{reg: reg, ln: ln, start: time.Now()}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/metrics.json", a.handleMetricsJSON)
	mux.HandleFunc("/healthz", a.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	a.mux = mux
	a.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		// ErrServerClosed is the normal Close path; anything else is logged
		// rather than crashing the instrumented process.
		if err := a.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			Logger("admin").Error("admin server stopped", "err", err)
		}
	}()
	return a, nil
}

// Addr returns the bound address, useful with ":0".
func (a *AdminServer) Addr() string { return a.ln.Addr().String() }

// Handle mounts an additional route on the admin mux, letting a component
// hang its own endpoints (the serve layer's /alerts, /consumers/{id},
// dashboard) off the same listener as /metrics. http.ServeMux registration
// is safe while the server runs; registering a pattern the admin server
// already owns panics, exactly like http.Handle.
func (a *AdminServer) Handle(pattern string, handler http.Handler) {
	a.mux.Handle(pattern, handler)
}

// Close stops the listener and in-flight handlers.
func (a *AdminServer) Close() error { return a.srv.Close() }

func (a *AdminServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = a.reg.Snapshot().WritePrometheus(w)
}

func (a *AdminServer) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = a.reg.Snapshot().WriteJSON(w)
}

func (a *AdminServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(a.start).Seconds(),
	})
}
