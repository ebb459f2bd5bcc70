package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// adminExtra holds handlers registered by higher layers (the slo
// engine's /slo lives here). A map consulted per request — not at mux
// build time — so daemons may start the admin server before the layer
// that registers the handler exists.
var adminExtra sync.Map // path -> http.Handler

// HandleAdmin registers (or, with a nil handler, removes) an extra
// admin endpoint under path. The obs package cannot import the layers
// built on top of it, so those layers hook their endpoints in here.
func HandleAdmin(path string, h http.Handler) {
	if h == nil {
		adminExtra.Delete(path)
		return
	}
	adminExtra.Store(path, h)
}

// AdminMux returns the admin HTTP handler: /metrics (Prometheus text
// exposition of the Default registry, for external scrapers),
// /metrics.json (the same registry Snapshot as JSON, what peers and
// gridctl exchange), /federate (the fleet-merged exposition as text:
// local registry plus every configured peer), /traces
// (finished traces as JSON, stitched across MessageID links), /dump
// (the fault flight recorder as JSON), endpoints registered through
// HandleAdmin (the slo engine's /slo), and the net/http/pprof suite
// under /debug/pprof/.
func AdminMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = Default.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(Default.Snapshot())
	})
	mux.HandleFunc("/federate", federateHandler)
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		b, err := TracesJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b)
	})
	mux.HandleFunc("/dump", func(w http.ResponseWriter, r *http.Request) {
		b, err := EventsJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if h, ok := adminExtra.Load(r.URL.Path); ok {
			h.(http.Handler).ServeHTTP(w, r)
			return
		}
		http.NotFound(w, r)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeAdmin listens on addr (host:port; port 0 picks a free one) and
// serves the admin mux in a background goroutine. It returns the base
// URL of the listener and a stop function that shuts the server down.
func ServeAdmin(addr string) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: admin listen on %s: %w", addr, err)
	}
	srv := &http.Server{Handler: AdminMux(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = srv.Close() }, nil
}
