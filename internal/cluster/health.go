package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"cagmres/internal/obs"
	"cagmres/internal/server"
)

// BackendHealth is one backend's slice of the cluster health view.
type BackendHealth struct {
	Name      string `json:"name"`
	Reachable bool   `json:"reachable"`
	// Down reports the router-side kill switch (administrative death);
	// an up backend can still be unreachable over a real network.
	Down    bool            `json:"down,omitempty"`
	Error   string          `json:"error,omitempty"`
	Healthz *server.Healthz `json:"healthz,omitempty"`
	// Breaker is the router-side circuit breaker state for this
	// backend: "closed", "open", or "half-open".
	Breaker string `json:"breaker,omitempty"`
}

// ClusterHealthz is the aggregated GET /healthz body: the federation is
// OK while at least one backend can take work, degraded as soon as any
// backend is dead, draining, degraded, or SLO-burning.
type ClusterHealthz struct {
	OK         bool `json:"ok"`
	Degraded   bool `json:"degraded"`
	Backends   int  `json:"backends"`
	Healthy    int  `json:"healthy"`
	PoolSize   int  `json:"pool_size"`
	PoolInUse  int  `json:"pool_in_use"`
	QueueDepth int  `json:"queue_depth"`
	// Routing tallies of this router instance.
	RoutedSolves uint64 `json:"routed_solves"`
	Reroutes     uint64 `json:"reroutes"`
	Rejects      uint64 `json:"rejects"`
	SLODegraded  bool   `json:"slo_degraded"`
	// SIMD is the router's own host_kernels_info simd label; each
	// backend's is in its PerBackend healthz.
	SIMD string `json:"simd"`
	// Resilience is the containment layer's snapshot: retry budget,
	// breakers, hedges, and deadline rejections.
	Resilience Resilience      `json:"resilience"`
	PerBackend []BackendHealth `json:"per_backend"`
}

// ClusterSLO is the aggregated GET /slo body.
type ClusterSLO struct {
	Degraded bool                      `json:"degraded"`
	Backends map[string]*obs.SLOReport `json:"backends"`
}

// fanGet issues GET path on every backend concurrently and returns the
// decoded bodies (nil entry on any failure, with the error string).
func fanGet[T any](backends []*Backend, path string) ([]*T, []string) {
	out := make([]*T, len(backends))
	errs := make([]string, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func(i int, b *Backend) {
			defer wg.Done()
			resp, err := b.do(http.MethodGet, path, "", nil, nil)
			if err != nil {
				errs[i] = err.Error()
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err.Error()
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = "HTTP " + resp.Status
				return
			}
			var v T
			if err := json.Unmarshal(body, &v); err != nil {
				errs[i] = err.Error()
				return
			}
			out[i] = &v
		}(i, b)
	}
	wg.Wait()
	return out, errs
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	healths, errs := fanGet[server.Healthz](r.backends, "/healthz")
	solves, reroutes, rejects := r.Counts()
	out := ClusterHealthz{
		Backends:     len(r.backends),
		RoutedSolves: solves,
		Reroutes:     reroutes,
		Rejects:      rejects,
		SIMD:         r.simd,
		Resilience:   r.ResilienceSnapshot(),
	}
	for i, b := range r.backends {
		bh := BackendHealth{Name: b.Name(), Down: b.Down(), Breaker: r.breakers[b.Name()].State()}
		if h := healths[i]; h != nil {
			bh.Reachable = true
			bh.Healthz = h
			out.PoolSize += h.PoolSize
			out.PoolInUse += h.PoolInUse
			out.QueueDepth += h.QueueDepth
			if h.OK && !h.Degraded {
				out.Healthy++
			}
			if h.OK {
				out.OK = true
			}
			if !h.OK || h.Degraded || h.Draining {
				out.Degraded = true
			}
			if h.SLODegraded {
				out.SLODegraded = true
				out.Degraded = true
			}
		} else {
			bh.Error = errs[i]
			out.Degraded = true
		}
		out.PerBackend = append(out.PerBackend, bh)
	}
	obs.WriteJSON(w, http.StatusOK, out)
}

func (r *Router) handleSLO(w http.ResponseWriter, req *http.Request) {
	reports, _ := fanGet[obs.SLOReport](r.backends, "/slo")
	out := ClusterSLO{Backends: make(map[string]*obs.SLOReport, len(r.backends))}
	for i, b := range r.backends {
		out.Backends[b.Name()] = reports[i]
		if reports[i] != nil && reports[i].Degraded {
			out.Degraded = true
		}
	}
	obs.WriteJSON(w, http.StatusOK, out)
}
