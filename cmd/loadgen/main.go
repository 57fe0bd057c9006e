// Command loadgen is the closed-loop load generator for cagmresd: k
// clients, each issuing n solve requests back-to-back with distinct
// right-hand sides. It has two modes:
//
//	-mode live     drives a running daemon over HTTP (POST /solve?wait)
//	               and reports wall-clock and server-side modeled
//	               latency percentiles. -traceparent stamps every
//	               request with a caller trace context and asserts the
//	               daemon echoes the same trace id; -traceout /
//	               -spansout / -sloout fetch the first job's Chrome
//	               trace, its span stream, and the /slo report after
//	               the run. -deadline-ms stamps a client deadline on
//	               every request (job body and Solve-Control header);
//	               429/503 structured rejections are retried up to
//	               -retries times, honoring Retry-After with seeded
//	               jittered backoff. Used by make serve-smoke and
//	               make trace-smoke.
//
//	-mode cluster  drives a cagmres-router the same way, spreading the
//	               clients' shard keys over its backends, and reports the
//	               per-backend routing and the federation's /healthz.
//	               Used by make cluster-smoke.
//
// The same closed loop on the virtual clock — the real scheduler, no
// server — is `experiments -fig serve`.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"math/rand"

	"cagmres/internal/core"
	"cagmres/internal/matgen"
	"cagmres/internal/obs"
	"cagmres/internal/server"
)

// config is the run's flags, bound straight into the fields they set:
// the closed-loop workload, the solve options every request carries, and
// the optional outputs.
type config struct {
	mode, addr, portFile string
	clients, requests    int
	matrix               string
	scale                float64
	opts                 core.Options

	traceparent string // live: send on every request and assert the echoed trace id
	traceOut    string // live: write the first job's /jobs/{id}/trace.json here
	spansOut    string // live: write the first job's /jobs/{id}/spans.jsonl here
	sloOut      string // live: write the /slo report here
	metricsOut  string // live: write the /metrics scrape here
	deadlineMS  int64  // live: client deadline stamped on every request
	retries     int    // live: retry cap for 429/503 structured rejections
	retrySeed   int64  // live: seed for the backoff jitter streams
}

func main() {
	cfg := config{opts: core.Options{Ortho: "CholQR"}}
	flag.StringVar(&cfg.mode, "mode", "live", "live (drive a daemon over HTTP) or cluster (drive a cagmres-router: shard spread + per-backend stats)")
	flag.StringVar(&cfg.addr, "addr", "", "daemon address for -mode live (host:port)")
	flag.StringVar(&cfg.portFile, "portfile", "", "read the daemon address from this file (written by cagmresd -portfile)")
	flag.IntVar(&cfg.clients, "clients", 4, "concurrent closed-loop clients")
	flag.IntVar(&cfg.requests, "requests", 4, "requests per client")
	flag.StringVar(&cfg.matrix, "matrix", "laplace3d", "generator matrix name")
	flag.Float64Var(&cfg.scale, "scale", 1e-4, "generator scale")
	flag.IntVar(&cfg.opts.M, "m", 30, "restart length")
	flag.IntVar(&cfg.opts.S, "s", 5, "matrix-powers step")
	flag.Float64Var(&cfg.opts.Tol, "tol", 1e-8, "convergence tolerance")
	flag.StringVar(&cfg.metricsOut, "metricsout", "", "live mode: fetch /metrics after the run and write it here")
	flag.StringVar(&cfg.traceparent, "traceparent", "", "live mode: send this W3C traceparent on every request and assert the daemon echoes its trace id")
	flag.StringVar(&cfg.traceOut, "traceout", "", "live mode: fetch the first job's /jobs/{id}/trace.json after the run and write it here")
	flag.StringVar(&cfg.spansOut, "spansout", "", "live mode: fetch the first job's /jobs/{id}/spans.jsonl after the run and write it here")
	flag.StringVar(&cfg.sloOut, "sloout", "", "live mode: fetch /slo after the run and write it here")
	flag.Int64Var(&cfg.deadlineMS, "deadline-ms", 0, "live mode: stamp this client deadline on every request (job body and Solve-Control header); 0 sends none")
	flag.IntVar(&cfg.retries, "retries", 3, "live mode: retry cap per request for 429/503 structured rejections (Retry-After honored with seeded jittered backoff)")
	flag.Int64Var(&cfg.retrySeed, "retry-seed", 1, "live mode: seed for the per-client backoff jitter streams")
	flag.StringVar(&cfg.opts.Precision, "precision", "", "precision mode stamped on every solve: fp64, mixed, or adaptive (empty omits the field)")
	flag.Parse()

	err := cfg.check()
	if err == nil {
		err = run(&cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// check refuses the counts no run can use and the solve options no
// CA-GMRES solve takes, before any request is sent.
func (cfg *config) check() error {
	for _, c := range []struct {
		flag string
		n    int
	}{{"clients", cfg.clients}, {"requests", cfg.requests}} {
		if c.n < 1 {
			return fmt.Errorf("-%s %d: need at least 1", c.flag, c.n)
		}
	}
	_, err := core.Check("ca", cfg.opts, nil)
	return err
}

func run(cfg *config) error {
	switch cfg.mode {
	case "live", "cluster":
		addr := cfg.addr
		if cfg.portFile != "" {
			data, err := os.ReadFile(cfg.portFile)
			if err != nil {
				return err
			}
			addr = strings.TrimSpace(string(data))
		}
		if addr == "" {
			return fmt.Errorf("%s mode needs -addr or -portfile", cfg.mode)
		}
		return runLive(cfg, addr, cfg.mode == "cluster")
	}
	return fmt.Errorf("unknown mode %q (want live or cluster)", cfg.mode)
}

// ---------------------------------------------------------------------
// live mode

// runLive drives a daemon (or, with cluster set, a cagmres-router) with
// a closed loop of waited solves. Cluster mode jitters the matrix scale
// per client so the shard keys spread over the backends, tallies the
// per-backend routing, and checks the aggregated /healthz afterwards.
func runLive(cfg *config, addr string, cluster bool) error {
	base := "http://" + addr
	clients, requests, matrix := cfg.clients, cfg.requests, cfg.matrix
	gen, err := matgen.ByName(matrix, cfg.scale)
	if err != nil {
		return err
	}
	n := gen.A.Rows

	wantTrace := ""
	if cfg.traceparent != "" {
		tid, _, ok := obs.ParseTraceparent(cfg.traceparent)
		if !ok {
			return fmt.Errorf("bad -traceparent %q", cfg.traceparent)
		}
		wantTrace = tid
	}

	type sample struct {
		wall    float64 // client-observed seconds
		modeled float64 // server-reported device seconds
	}
	// Cluster mode jitters the scale per client: the shard key is derived
	// from the exact scale string, so distinct clients land on distinct
	// backends while the generated problem stays the same size.
	scaleFor := func(c int) float64 {
		if !cluster {
			return cfg.scale
		}
		return cfg.scale * (1 + 1e-9*float64(c))
	}

	samples := make([][]sample, clients)
	firstJob := make([]string, clients)
	viaBackend := make([]map[string]int, clients)
	hopTotal := make([]int, clients)
	retried := make([]int, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			viaBackend[c] = make(map[string]int)
			// Each client gets its own seeded jitter stream so retry
			// schedules are reproducible yet decorrelated across clients
			// (correlated backoff would re-synchronize the thundering herd
			// the budget is there to prevent).
			rng := rand.New(rand.NewSource(cfg.retrySeed + int64(c)))
			nc := n
			if cluster {
				g, err := matgen.ByName(matrix, scaleFor(c))
				if err != nil {
					errs[c] = err
					return
				}
				nc = g.A.Rows
			}
			for i := 0; i < requests; i++ {
				seed := c*requests + i
				// Finite floats and plain fields always encode.
				rhs, _ := json.Marshal(matgen.RHS(nc, seed))
				o := cfg.opts
				body, _ := json.Marshal(server.SolveRequest{
					Matrix: server.MatrixSpec{Name: matrix, Scale: scaleFor(c)},
					M:      o.M, S: o.S, Tol: o.Tol, Ortho: o.Ortho, Precision: o.Precision,
					RHS: rhs, DeadlineMS: max(cfg.deadlineMS, 0), Wait: true,
				})
				t0 := time.Now()
				var resp *http.Response
				var data []byte
				var echo string
				for attempt := 0; ; attempt++ {
					req, err := http.NewRequest("POST", base+"/solve", bytes.NewReader(body))
					if err != nil {
						errs[c] = err
						return
					}
					req.Header.Set("Content-Type", "application/json")
					if cfg.deadlineMS > 0 {
						req.Header.Set(server.SolveControlHeader,
							server.SolveControl{DeadlineMS: cfg.deadlineMS}.String())
					}
					if cfg.traceparent != "" {
						req.Header.Set("traceparent", cfg.traceparent)
					}
					resp, err = http.DefaultClient.Do(req)
					if err != nil {
						errs[c] = err
						return
					}
					echo = resp.Header.Get("traceparent")
					data, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						errs[c] = err
						return
					}
					if (resp.StatusCode == http.StatusTooManyRequests ||
						resp.StatusCode == http.StatusServiceUnavailable) && attempt < cfg.retries {
						retried[c]++
						time.Sleep(backoff(resp.Header.Get("Retry-After"), attempt, rng))
						continue
					}
					break
				}
				if resp.StatusCode != http.StatusOK {
					errs[c] = fmt.Errorf("client %d request %d: status %d: %s", c, i, resp.StatusCode, data)
					return
				}
				if wantTrace != "" {
					tid, _, ok := obs.ParseTraceparent(echo)
					if !ok || tid != wantTrace {
						errs[c] = fmt.Errorf("client %d request %d: traceparent not echoed (sent trace %s, got %q)",
							c, i, wantTrace, echo)
						return
					}
				}
				var job struct {
					ID             string  `json:"id"`
					State          string  `json:"state"`
					Converged      bool    `json:"converged"`
					ModeledSeconds float64 `json:"modeled_seconds"`
					Backend        string  `json:"backend"`
					Hops           int     `json:"hops"`
				}
				if err := json.Unmarshal(data, &job); err != nil {
					errs[c] = err
					return
				}
				if job.State != "done" || !job.Converged {
					errs[c] = fmt.Errorf("client %d request %d: state=%s converged=%t", c, i, job.State, job.Converged)
					return
				}
				if cluster {
					if job.Backend == "" {
						errs[c] = fmt.Errorf("client %d request %d: cluster response without a backend (is %s a router?)", c, i, addr)
						return
					}
					viaBackend[c][job.Backend]++
					hopTotal[c] += job.Hops
				}
				if firstJob[c] == "" {
					firstJob[c] = job.ID
				}
				samples[c] = append(samples[c], sample{wall: time.Since(t0).Seconds(), modeled: job.ModeledSeconds})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	var wall, modeled []float64
	for _, cs := range samples {
		for _, sm := range cs {
			wall = append(wall, sm.wall)
			modeled = append(modeled, sm.modeled)
		}
	}
	total := len(wall)
	modeName := "live"
	if cluster {
		modeName = "cluster"
	}
	fmt.Printf("loadgen %s: %d clients × %d requests against %s (%s n=%d)\n",
		modeName, clients, requests, addr, matrix, n)
	fmt.Printf("  completed %d solves in %.3fs wall (%.1f solves/s)\n",
		total, elapsed, float64(total)/elapsed)
	if cfg.deadlineMS > 0 {
		fmt.Printf("  client deadline %dms stamped on every request (body + %s header)\n",
			cfg.deadlineMS, server.SolveControlHeader)
	}
	totalRetried := 0
	for _, r := range retried {
		totalRetried += r
	}
	if totalRetried > 0 {
		fmt.Printf("  %d structured rejections retried (Retry-After honored, seeded jittered backoff)\n", totalRetried)
	}
	if cluster {
		dist := make(map[string]int)
		hops := 0
		for c := range viaBackend {
			for name, k := range viaBackend[c] {
				dist[name] += k
			}
			hops += hopTotal[c]
		}
		names := make([]string, 0, len(dist))
		for name := range dist {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, name := range names {
			parts[i] = fmt.Sprintf("%s:%d", name, dist[name])
		}
		fmt.Printf("  sharded over %d backends (%s), %.2f hops/solve\n",
			len(dist), strings.Join(parts, " "), float64(hops)/float64(total))
		if err := checkClusterHealth(base); err != nil {
			return err
		}
	}
	if wantTrace != "" {
		fmt.Printf("  traceparent echoed on all %d responses (trace %s)\n", total, wantTrace)
	}
	printPercentiles("wall latency", wall)
	printPercentiles("modeled device seconds", modeled)

	fetch := func(path, out string) error {
		resp, err := http.Get(base + path)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, data)
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s (%d bytes)\n", out, len(data))
		return nil
	}
	if cfg.traceOut != "" || cfg.spansOut != "" {
		job := firstJob[0]
		if job == "" {
			return fmt.Errorf("no completed job to fetch a trace for")
		}
		if cfg.traceOut != "" {
			if err := fetch("/jobs/"+job+"/trace.json", cfg.traceOut); err != nil {
				return err
			}
		}
		if cfg.spansOut != "" {
			if err := fetch("/jobs/"+job+"/spans.jsonl", cfg.spansOut); err != nil {
				return err
			}
		}
	}
	if cfg.sloOut != "" {
		if err := fetch("/slo", cfg.sloOut); err != nil {
			return err
		}
	}
	if cfg.metricsOut != "" {
		if err := fetch("/metrics", cfg.metricsOut); err != nil {
			return err
		}
	}
	return nil
}

// backoff computes the sleep before retrying a 429/503 structured
// rejection. The server's Retry-After is the floor when present
// (otherwise a doubling 25ms base), plus up to 50% seeded jitter so
// many clients' retries spread out instead of re-synchronizing into the
// herd the server just shed.
func backoff(retryAfter string, attempt int, rng *rand.Rand) time.Duration {
	base := 0.025 * float64(uint(1)<<uint(attempt))
	if retryAfter != "" {
		if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs > 0 {
			base = float64(secs)
		}
	}
	return time.Duration((base + rng.Float64()*0.5*base) * float64(time.Second))
}

// checkClusterHealth asserts the router's aggregated health view after
// a cluster-mode run: the federation must report OK with at least one
// healthy backend.
func checkClusterHealth(base string) error {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /healthz: status %d: %s", resp.StatusCode, data)
	}
	var h struct {
		OK       bool `json:"ok"`
		Degraded bool `json:"degraded"`
		Backends int  `json:"backends"`
		Healthy  int  `json:"healthy"`
		Reroutes int  `json:"reroutes"`
	}
	if err := json.Unmarshal(data, &h); err != nil {
		return fmt.Errorf("GET /healthz: %v: %s", err, data)
	}
	if !h.OK || h.Healthy == 0 {
		return fmt.Errorf("cluster unhealthy after run: %s", data)
	}
	fmt.Printf("  cluster healthz: ok, %d/%d backends healthy, degraded=%t, reroutes=%d\n",
		h.Healthy, h.Backends, h.Degraded, h.Reroutes)
	return nil
}

func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(float64(len(sorted)-1)*p/100 + 0.5)
	return sorted[idx]
}

func printPercentiles(label string, xs []float64) {
	sort.Float64s(xs)
	fmt.Printf("  %-24s p50=%.4fs p90=%.4fs p99=%.4fs max=%.4fs\n",
		label, pct(xs, 50), pct(xs, 90), pct(xs, 99), xs[len(xs)-1])
}
