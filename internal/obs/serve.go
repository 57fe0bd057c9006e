package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"

	"cagmres/internal/gpu"
)

// ErrorBody is every non-2xx JSON body of the serving stack — daemon,
// router and this package's handler alike: a stable machine-readable
// code, the human-readable message, and (for backpressure) the retry
// hint, so a client branches on code without parsing prose regardless of
// which layer rejected the request.
type ErrorBody struct {
	Code              string  `json:"code"`
	Error             string  `json:"error"`
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
}

// WriteJSON writes v as the JSON body of a response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes an ErrorBody without a retry hint.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, ErrorBody{Code: code, Error: msg})
}

// Handler returns an http.Handler exposing the observability surface:
//
//	/metrics       Prometheus text format
//	/metrics.json  the same registry as JSON
//	/trace.json    Chrome trace_event export of traces() (404 when nil)
//	/debug/pprof/  the standard Go profiling endpoints, so -measured
//	               wall-clock runs can be profiled while they execute
//
// traces is called per request, so a long-running process serves its
// current state. Error paths return an ErrorBody.
func Handler(r *Registry, traces func() []gpu.Trace) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, req *http.Request) {
		if traces == nil {
			WriteError(w, http.StatusNotFound, "not_found", "tracing not enabled")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = gpu.WriteChromeTrace(w, traces())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve listens on addr (":0" picks a free port) and serves h in a
// background goroutine. It returns the server and the bound address;
// callers shut down with srv.Close.
func Serve(addr string, h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
