package cluster

import (
	"bytes"
	"io"
	"net/http"
	"strings"
)

// In-process backends: the router's tests federate server.Server
// handlers (or stubs) without sockets. The daemons the router fronts in
// production are reached over HTTP (NewHTTPBackend); a test backend goes
// through the same Backend.fetch path, so every routing decision is
// exercised identically.

// Backend wraps the node as a router backend.
func (n *LocalNode) Backend() *Backend { return NewLocalBackend(n.Name, n.Server) }

// NewLocalBackend wires an in-process backend: requests dispatch
// straight into the handler (normally a server.Server) with no network
// in between. The routing, error mapping and header propagation paths
// are byte-identical to the HTTP case.
func NewLocalBackend(name string, h http.Handler) *Backend {
	return &Backend{
		name:   strings.TrimSpace(name),
		client: &http.Client{Transport: handlerTransport{h: h}},
	}
}

// handlerTransport adapts an http.Handler into a RoundTripper so an
// in-process backend is addressed exactly like a remote one.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := &memResponse{header: make(http.Header), code: http.StatusOK}
	t.h.ServeHTTP(rec, req)
	if err := req.Context().Err(); err != nil && !rec.wrote {
		// The handler gave up on a canceled request without answering: the
		// caller sees the cancellation, as over HTTP, not an empty 200.
		return nil, err
	}
	return &http.Response{
		Status:        http.StatusText(rec.code),
		StatusCode:    rec.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.header,
		Body:          io.NopCloser(bytes.NewReader(rec.body.Bytes())),
		ContentLength: int64(rec.body.Len()),
		Request:       req,
	}, nil
}

// memResponse is the minimal in-memory http.ResponseWriter behind
// handlerTransport.
type memResponse struct {
	header http.Header
	body   bytes.Buffer
	code   int
	wrote  bool
}

func (m *memResponse) Header() http.Header { return m.header }

func (m *memResponse) WriteHeader(code int) {
	if !m.wrote {
		m.code = code
		m.wrote = true
	}
}

func (m *memResponse) Write(p []byte) (int, error) {
	m.wrote = true
	return m.body.Write(p)
}
