package cli

import (
	"io"
	"net/http"
	"net/http/pprof"

	"accelwattch/internal/obs"
)

// AdminMux is the operator surface of the long-running aw* daemons:
// /metrics serves reg in the Prometheus text format, /healthz answers with
// health, /debug/pprof/* mounts the Go profiling endpoints, and / prints
// index. Any other path answers 404.
func AdminMux(reg *obs.Registry, health http.HandlerFunc, index string) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/healthz", health)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		io.WriteString(w, index)
	})
	return mux
}
