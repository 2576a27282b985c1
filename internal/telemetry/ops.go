package telemetry

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"

	"jamm/internal/transport"
)

// Health aggregates named readiness checks for /readyz. Liveness
// (/healthz) is unconditional — the process answering is the check.
type Health struct {
	mu     sync.Mutex
	checks []healthCheck
}

type healthCheck struct {
	name string
	fn   func() error
}

// NewHealth returns an empty check set (always ready).
func NewHealth() *Health { return &Health{} }

// AddCheck registers a named readiness check. fn returning nil means
// ready; a non-nil error marks the process degraded with that reason.
func (h *Health) AddCheck(name string, fn func() error) {
	h.mu.Lock()
	h.checks = append(h.checks, healthCheck{name, fn})
	h.mu.Unlock()
}

// Failing runs every check and returns one "name: err" line per
// failure. Checks run outside the mutex.
func (h *Health) Failing() []string {
	h.mu.Lock()
	checks := append([]healthCheck(nil), h.checks...)
	h.mu.Unlock()
	var out []string
	for _, c := range checks {
		if err := c.fn(); err != nil {
			out = append(out, fmt.Sprintf("%s: %v", c.name, err))
		}
	}
	return out
}

// NewOpsHandler builds the ops-endpoint mux: /metrics (Prometheus
// exposition from reg), /healthz, /readyz (503 + failing check names
// when degraded), /trace?id=<16 hex> (JSON events from tlog), and
// /debug/pprof/*. Any of reg, health, tlog may be nil; the matching
// endpoints then 404 (or, for /readyz, always report ready).
func NewOpsHandler(reg *Registry, health *Health, tlog *TraceLog) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if reg == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})

	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		var failing []string
		if health != nil {
			failing = health.Failing()
		}
		if len(failing) == 0 {
			w.Write([]byte("ok\n"))
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		for _, f := range failing {
			fmt.Fprintf(w, "failing: %s\n", f)
		}
	})

	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if tlog == nil {
			http.NotFound(w, r)
			return
		}
		id, err := strconv.ParseUint(r.URL.Query().Get("id"), 16, 64)
		if err != nil {
			http.Error(w, "trace: bad or missing id (want 16 hex digits)", http.StatusBadRequest)
			return
		}
		evs := tlog.Events(id)
		if evs == nil {
			evs = []TraceEvent{}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(evs)
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// ServeOps serves the ops endpoint (NewOpsHandler) on addr, on its own
// listener so operator traffic never competes with the wire protocol.
// The returned server's Addr is the address actually bound; Close stops
// it.
func ServeOps(addr string, reg *Registry, health *Health, tlog *TraceLog) (*http.Server, error) {
	ln, err := transport.Listen(addr, nil)
	if err != nil {
		return nil, fmt.Errorf("ops listen: %w", err)
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: NewOpsHandler(reg, health, tlog)}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("telemetry: ops server: %v", err)
		}
	}()
	return srv, nil
}
