// Command cagmres-router fronts a federation of cagmresd backends: it
// shards solve requests across nodes by matrix identity (rendezvous
// hashing, so every router instance agrees without coordination),
// forwards on backend overload or node death with a bounded hop budget,
// and aggregates the per-node health/SLO surfaces into cluster views.
//
// Two membership modes, composable:
//
//	cagmres-router -backends node0=http://h0:8080,node1=http://h1:8080
//	cagmres-router -local 3 -devices 2
//
// -local N boots N full in-process nodes (pool + scheduler + HTTP
// surface each), which is how the smoke tests simulate a cluster in one
// process; -backends federates real daemons.
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
	"cagmres/internal/gpu"
	"cagmres/internal/obs"
	"cagmres/internal/profile"
	"cagmres/internal/sched"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cagmres-router:", err)
		os.Exit(1)
	}
}

// parseBackends turns the -backends flag into HTTP backends.
func parseBackends(spec string, startIdx int) ([]*cluster.Backend, error) {
	if spec == "" {
		return nil, nil
	}
	var out []*cluster.Backend
	for i, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, url, ok := strings.Cut(item, "=")
		if !ok {
			name, url = fmt.Sprintf("node%d", startIdx+i), item
		}
		b, err := cluster.NewHTTPBackend(name, url)
		if err != nil {
			return nil, fmt.Errorf("-backends %q: %w", item, err)
		}
		out = append(out, b)
	}
	return out, nil
}

// nodeDeathPlan arms the -chaos-kill-node flag: every device of every
// pooled context on the named node dies at the given virtual time, so
// the node's jobs fail terminally and the router must re-route them.
func nodeDeathPlan(spec string, poolSize, devices int, seed int64) (string, []gpu.FaultPlan, error) {
	if spec == "" {
		return "", nil, nil
	}
	name, at, ok := strings.Cut(spec, "@")
	if !ok || name == "" {
		return "", nil, fmt.Errorf("-chaos-kill-node %q: want name@seconds", spec)
	}
	var t float64
	if _, err := fmt.Sscanf(at, "%g", &t); err != nil || t < 0 {
		return "", nil, fmt.Errorf("-chaos-kill-node %q: bad virtual time %q", spec, at)
	}
	plans := make([]gpu.FaultPlan, poolSize)
	for i := range plans {
		plans[i].Seed = seed + int64(i)
		for d := 0; d < devices; d++ {
			plans[i].Deaths = append(plans[i].Deaths, gpu.DeviceDeath{Device: d, At: t})
		}
	}
	return name, plans, nil
}

// run binds the flags into the router's and the -local nodes'
// configurations, boots the federation and serves it until
// SIGINT/SIGTERM, then drains the local nodes.
func run() error {
	var rc cluster.Config
	var node cluster.LocalNodeConfig
	addr := flag.String("addr", ":8090", "listen address (\":0\" picks a free port)")
	portFile := flag.String("portfile", "", "write the bound address to this file once listening")

	backendsFlag := flag.String("backends", "", "comma-separated backend daemons, each name=url (or a bare url, auto-named nodeN)")
	localN := flag.Int("local", 0, "boot this many in-process backends instead of (or in addition to) -backends")
	flag.IntVar(&rc.MaxHops, "max-hops", 3, "forwarding hop budget per solve (candidates tried before rejecting)")
	shardMapPath := flag.String("shard-map", "", "JSON shard-map file: {\"assign\":{key:backend},\"weights\":{backend:w}}")

	flag.IntVar(&node.PoolSize, "pool", 1, "pooled device contexts per -local node")
	flag.IntVar(&node.Devices, "devices", 3, "simulated GPUs per context on -local nodes")
	flag.IntVar(&node.Sched.QueueDepth, "queue", 64, "admission queue depth per -local node")
	flag.IntVar(&node.Sched.MaxBatch, "batch", 8, "max batched jobs per lease on -local nodes")
	flag.IntVar(&node.Sched.MaxJobAttempts, "max-job-attempts", 0, "attempt cap per job on -local nodes (0 keeps the sched default)")
	flag.BoolVar(&node.Repair, "repair", false, "repair contexts evicted after device death on -local nodes")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for -local nodes at shutdown")

	profName := flag.String("profile", "", "machine profile for -local nodes (m2090, a100-pcie, h100-nvlink); empty keeps the paper's m2090")
	topoName := flag.String("topology", "", "override the profile's node-local interconnect topology")
	devicesPerNode := flag.Int("devices-per-node", 0, "arm the two-tier interconnect: devices per simulated node (0 keeps flat single-node profiles)")
	fabricName := flag.String("fabric", "", "inter-node fabric for the two-tier interconnect ("+strings.Join(profile.FabricNames(), ", ")+"); default "+profile.DefaultFabricName)

	flag.Float64Var(&rc.RetryBudgetRatio, "retry-budget", 0.1, "fraction of successful traffic spendable on reroutes and hedges (tokens earned per success)")
	flag.Float64Var(&rc.RetryBudgetBurst, "retry-burst", 10, "retry-budget bucket capacity (the bucket starts full, so cold-start forwarding works)")
	flag.IntVar(&rc.Breaker.Threshold, "breaker-threshold", 5, "consecutive backend failures that open its circuit breaker")
	flag.Float64Var(&rc.Breaker.Cooldown, "breaker-cooldown", 5, "seconds an open breaker waits before admitting one half-open probe")
	flag.Float64Var(&rc.HedgeAfter, "hedge-after", 0, "hedge wait-solves after this many seconds without a response (rolling p95 once warmed; 0 disables)")

	sloTarget := flag.String("slo-target", "", "SLO classes for -local nodes as name:minprio:latency:objective, comma-separated (minprio \"*\" catches all); empty keeps the defaults")
	brownoutFlag := flag.String("brownout", "", "brownout ladder for -local nodes: comma-separated minimum admitted priorities per level (empty disables)")
	flag.Float64Var(&node.Sched.DeadlineMargin, "deadline-margin", 0, "-local nodes reject submissions whose deadline is below this multiple of the service-time estimate (0 disables)")

	chaosSeed := flag.Int64("chaos-seed", 0, "seed for -chaos-kill-node fault plans")
	chaosKill := flag.String("chaos-kill-node", "", "arm whole-node death on a -local node: name@seconds (virtual time) kills every device of that node's contexts, e.g. node0@0.001")
	flag.Parse()

	if node.PoolSize < 1 {
		return fmt.Errorf("-pool %d: need at least 1", node.PoolSize)
	}
	if node.Devices < 1 {
		return fmt.Errorf("-devices %d: need at least 1", node.Devices)
	}
	prof, err := profile.FromFlags(*profName, *topoName)
	if err != nil {
		return err
	}
	if node.Profile, err = profile.ClusterFromFlags(prof, *devicesPerNode, *fabricName); err != nil {
		return err
	}
	if node.SLO.Classes, err = obs.ParseSLOClasses(*sloTarget); err != nil {
		return fmt.Errorf("-slo-target: %w", err)
	}
	if node.Sched.Brownout, err = sched.ParseBrownoutLadder(*brownoutFlag); err != nil {
		return fmt.Errorf("-brownout: %w", err)
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

	remote, err := parseBackends(*backendsFlag, *localN)
	if err != nil {
		return err
	}
	doomed, plans, err := nodeDeathPlan(*chaosKill, node.PoolSize, node.Devices, *chaosSeed)
	if err != nil {
		return err
	}

	var nodes []*cluster.LocalNode
	for i := 0; i < *localN; i++ {
		ncfg := node
		ncfg.Name = fmt.Sprintf("node%d", i)
		if ncfg.Name == doomed {
			ncfg.Sched.MaxJobAttempts = 1 // every retry lands on the same dead node
			ncfg.FaultPlans = plans
		}
		n := cluster.NewLocalNode(ncfg)
		nodes = append(nodes, n)
		rc.Backends = append(rc.Backends, n.Backend())
	}
	if doomed != "" && *localN == 0 {
		return fmt.Errorf("-chaos-kill-node needs -local nodes")
	}
	rc.Backends = append(rc.Backends, remote...)
	if len(rc.Backends) == 0 {
		return fmt.Errorf("no backends: give -backends and/or -local")
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
	if *localN > 0 {
		fmt.Printf("cagmres-router: %d in-process nodes (pool %d×%d GPUs, profile %s)\n",
			*localN, node.PoolSize, node.Devices, node.Profile.Name)
	}
	if doomed != "" {
		fmt.Printf("cagmres-router: chaos armed, whole-node death on %s\n", doomed)
	}
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(bound), 0o644); err != nil {
			return err
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("cagmres-router: %v, draining %d local nodes (timeout %v)\n", got, len(nodes), *drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	for _, n := range nodes {
		if err := n.Drain(ctx); err != nil {
			fmt.Printf("cagmres-router: drain %s: %v\n", n.Name, err)
		}
	}
	shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		_ = srv.Close()
	}
	solves, reroutes, rejects := router.Counts()
	fmt.Printf("cagmres-router: drained; routed=%d reroutes=%d rejects=%d\n", solves, reroutes, rejects)
	return nil
}
