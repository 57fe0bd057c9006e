package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

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

// ErrorBody codes every HTTP tier answers with; the daemon and the router
// each add the codes only they give.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeRequestTooLarge: a body over the tier's byte bound.
	CodeRequestTooLarge = "request_too_large"
)

// Route is one row of an HTTP tier's route table: a method, a ServeMux
// path pattern (wildcards allowed) and the handler serving the two.
type Route struct {
	Method, Path string
	Handler      http.HandlerFunc
}

// Mount registers a route table on mux, each path once. A path answers
// only its method: any other, HEAD on a GET route included, is refused
// with a 405 method_not_allowed through refuse, so a tier words and
// counts the refusal like its other rejections. (A "GET /path" pattern
// would have the mux serve HEAD with the GET handler and refuse the rest
// in plain text, so the method is matched here, in this one place.)
func Mount(mux *http.ServeMux, routes []Route, refuse func(w http.ResponseWriter, status int, code, msg string)) {
	for _, rt := range routes {
		mux.HandleFunc(rt.Path, func(w http.ResponseWriter, r *http.Request) {
			if r.Method == rt.Method {
				rt.Handler(w, r)
				return
			}
			refuse(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, rt.Method+" only")
		})
	}
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
//	/debug/pprof/  the standard Go profiling endpoints, so a running
//	               process can be profiled while it executes
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
			WriteError(w, http.StatusNotFound, CodeNotFound, "tracing not enabled")
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

// The connection bounds of Serve. A client gets readHeaderTimeout for its
// request line and headers and readTimeout for the whole request, which
// admits a 64 MiB inline matrix at about 0.5 MiB/s; a keep-alive
// connection idle for idleTimeout is closed. Without them a client that
// sends slowly holds its connection and its buffer as long as it likes.
// Writes stay unbounded: a waited solve and /debug/pprof/profile answer
// only when done.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// Serve listens on addr (":0" picks a free port) and serves h in a
// background goroutine, under the connection bounds above. It returns
// the server and the bound address; callers shut down with srv.Close.
func Serve(addr string, h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout, IdleTimeout: idleTimeout}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
