// Command cagmres-router fronts a federation of cagmresd backends: it
// shards solve requests across nodes by matrix identity (rendezvous
// hashing, so every router instance agrees without coordination),
// forwards on backend overload or node death with a bounded hop budget,
// and aggregates the per-node health/SLO surfaces into cluster views.
//
// The membership is the daemons named by -backends:
//
//	cagmres-router -backends node0=http://h0:8080,node1=http://h1:8080
//
// Each node is configured by its own cagmresd flags; the router only
// routes.
//
// POST /admin/kill/{name} simulates whole-node death at the router
// (requests stop reaching the backend); /admin/revive/{name} restores
// it. In-flight jobs on a killed node fail over to the shard's next
// rendezvous candidate, attempts preserved.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cagmres/internal/cluster"
	"cagmres/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cagmres-router:", err)
		os.Exit(1)
	}
}

// parseBackends turns the -backends flag into HTTP backends, refusing an
// empty list and a name given twice.
func parseBackends(spec string) ([]*cluster.Backend, error) {
	var out []*cluster.Backend
	seen := map[string]bool{}
	for i, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, url, ok := strings.Cut(item, "=")
		if !ok {
			name, url = fmt.Sprintf("node%d", i), item
		}
		b, err := cluster.NewHTTPBackend(name, url)
		if err != nil {
			return nil, fmt.Errorf("-backends %q: %w", item, err)
		}
		if seen[b.Name()] {
			return nil, fmt.Errorf("-backends: name %q given twice", b.Name())
		}
		seen[b.Name()] = true
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no backends: give -backends name=url,...")
	}
	return out, nil
}

// run binds the flags into the router's configuration, builds the
// federation and serves it until SIGINT/SIGTERM.
func run() error {
	var rc cluster.Config
	addr := flag.String("addr", ":8090", "listen address (\":0\" picks a free port)")
	portFile := flag.String("portfile", "", "write the bound address to this file once listening")

	backendsFlag := flag.String("backends", "", "comma-separated backend daemons, each name=url (or a bare url, auto-named nodeN)")
	flag.IntVar(&rc.MaxHops, "max-hops", 3, "forwarding hop budget per solve (candidates tried before rejecting)")
	shardMapPath := flag.String("shard-map", "", "JSON shard-map file: {\"assign\":{key:backend},\"weights\":{backend:w}}")

	flag.Float64Var(&rc.RetryBudgetRatio, "retry-budget", 0.1, "fraction of successful traffic spendable on reroutes and hedges (tokens earned per success)")
	flag.Float64Var(&rc.RetryBudgetBurst, "retry-burst", 10, "retry-budget bucket capacity (the bucket starts full, so cold-start forwarding works)")
	flag.IntVar(&rc.Breaker.Threshold, "breaker-threshold", 5, "consecutive backend failures that open its circuit breaker")
	flag.Float64Var(&rc.Breaker.Cooldown, "breaker-cooldown", 5, "seconds an open breaker waits before admitting one half-open probe")
	flag.Float64Var(&rc.HedgeAfter, "hedge-after", 0, "hedge wait-solves after this many seconds without a response (rolling p95 once warmed; 0 disables)")
	flag.Parse()

	// The library turns these into its defaults; a value typed on the
	// command line is refused instead.
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"max-hops", float64(rc.MaxHops)},
		{"retry-budget", rc.RetryBudgetRatio},
		{"retry-burst", rc.RetryBudgetBurst},
		{"breaker-threshold", float64(rc.Breaker.Threshold)},
		{"breaker-cooldown", rc.Breaker.Cooldown},
	} {
		if c.v <= 0 {
			return fmt.Errorf("-%s %g: must be positive", c.name, c.v)
		}
	}
	if rc.HedgeAfter < 0 {
		return fmt.Errorf("-hedge-after %g: must be >= 0 (0 disables)", rc.HedgeAfter)
	}

	if *shardMapPath != "" {
		data, err := os.ReadFile(*shardMapPath)
		if err != nil {
			return err
		}
		if rc.ShardMap, err = cluster.DecodeShardMap(data); err != nil {
			return err
		}
	}
	var err error
	if rc.Backends, err = parseBackends(*backendsFlag); err != nil {
		return err
	}

	router := cluster.New(rc)
	srv, bound, err := obs.Serve(*addr, router)
	if err != nil {
		return err
	}
	fmt.Printf("cagmres-router: serving on %s (%d backends: %s; max hops %d)\n",
		bound, len(rc.Backends), strings.Join(router.Backends(), ", "), rc.MaxHops)
	fmt.Printf("cagmres-router: containment armed (retry budget %.2f/%.0f, breaker %d@%.1fs, hedge-after %gs)\n",
		rc.RetryBudgetRatio, rc.RetryBudgetBurst, rc.Breaker.Threshold, rc.Breaker.Cooldown, rc.HedgeAfter)
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(bound), 0o644); err != nil {
			return err
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("cagmres-router: %v, shutting down\n", got)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		_ = srv.Close()
	}
	solves, reroutes, rejects := router.Counts()
	fmt.Printf("cagmres-router: drained; routed=%d reroutes=%d rejects=%d\n", solves, reroutes, rejects)
	return nil
}
