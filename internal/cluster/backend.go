// Package cluster federates multiple cagmresd-style solver backends
// behind one router: jobs shard across backends by matrix key with
// rendezvous hashing, overloaded or dead backends are skipped with
// bounded forwarding hops, traceparent headers propagate end to end,
// and the per-backend health/SLO surfaces aggregate into cluster-level
// views. Backends are remote HTTP daemons; the tests also federate
// in-process server.Server handlers, which the router reaches through
// the same client path, so every routing decision is exercised
// identically in tests and in production.
package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
)

// Backend is one solver shard the router can forward to: a name (the
// shard identity rendezvous hashing scores against), a transport, and
// an administrative kill switch that simulates whole-node death or a
// network partition deterministically.
type Backend struct {
	name   string
	base   string // URL base for HTTP backends, "" for in-process
	client *http.Client
	down   atomic.Bool
}

// NewHTTPBackend wires a backend reached over the network, e.g. a
// cagmresd daemon at http://host:8080.
func NewHTTPBackend(name, baseURL string) (*Backend, error) {
	name = strings.TrimSpace(name)
	if name == "" || strings.ContainsAny(name, "/ \t\n") {
		return nil, fmt.Errorf("cluster: backend name %q must be non-empty without slashes or spaces", name)
	}
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("cluster: backend %s: bad base URL %q", name, baseURL)
	}
	return &Backend{
		name:   name,
		base:   strings.TrimRight(u.String(), "/"),
		client: &http.Client{},
	}, nil
}

// Name returns the backend's shard identity.
func (b *Backend) Name() string { return b.name }

// Down reports whether the backend is administratively dead.
func (b *Backend) Down() bool { return b.down.Load() }

// Kill marks the backend dead: every forward fails like an unreachable
// host until Revive. This is the deterministic stand-in for whole-node
// death the router tests and the cluster smoke test lean on.
func (b *Backend) Kill() { b.down.Store(true) }

// Revive clears the kill switch.
func (b *Backend) Revive() { b.down.Store(false) }

// do forwards one request. path must begin with "/"; header entries are
// copied onto the outgoing request (traceparent propagation).
func (b *Backend) do(method, path, rawQuery string, header http.Header, body []byte) (*http.Response, error) {
	return b.doCtx(context.Background(), method, path, rawQuery, header, body)
}

// doCtx is do with a caller-supplied context, so a hedged attempt that
// loses the race can be canceled instead of running to completion (the
// backend's wait path watches the request context and cancels the job).
func (b *Backend) doCtx(ctx context.Context, method, path, rawQuery string, header http.Header, body []byte) (*http.Response, error) {
	if b.down.Load() {
		return nil, fmt.Errorf("cluster: backend %s is down", b.name)
	}
	base := b.base
	if base == "" {
		base = "http://" + b.name + ".local" // in-process: host is cosmetic
	}
	u := base + path
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	return b.client.Do(req)
}

// fetch runs doCtx and drains the response into memory, so the caller
// may cancel ctx immediately after fetch returns without corrupting a
// half-read body (hedging relies on this).
func (b *Backend) fetch(ctx context.Context, method, path, rawQuery string, header http.Header, body []byte) (int, http.Header, []byte, error) {
	resp, err := b.doCtx(ctx, method, path, rawQuery, header, body)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("backend %s: %w", b.name, err)
	}
	return resp.StatusCode, resp.Header, respBody, nil
}
