// Command cagmresd is the solver daemon: a device-pool scheduler behind
// the internal/server HTTP JSON API. It leases simulated multi-GPU
// contexts to admitted jobs, batches compatible requests into shared
// leases, enforces deadlines and queue backpressure, and exports the
// scheduler's instruments on /metrics.
//
//	cagmresd -addr :8080 -pool 2 -devices 3
//
// SIGINT/SIGTERM trigger a graceful drain: admission stops (new solves
// get 503), queued and running jobs finish (bounded by -drain-timeout,
// after which they are canceled at the solvers' next restart boundary
// and given -drain-grace to unwind; jobs still wedged after the grace
// are abandoned and logged), then the listener shuts down.
//
// The -chaos-* flags arm deterministic fault plans on the pooled
// contexts — device deaths at virtual times, transient transfer faults,
// stragglers — so operators can rehearse degraded operation against the
// same self-healing paths the chaos tests pin down:
//
//	cagmresd -pool 1 -devices 3 -chaos-kill 0:1@0.002 -repair
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
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
		fmt.Fprintln(os.Stderr, "cagmresd:", err)
		os.Exit(1)
	}
}

// run binds the flags into the node's configuration, boots the node and
// serves it until SIGINT/SIGTERM, then drains.
func run() error {
	var node cluster.LocalNodeConfig
	sc := &node.Sched
	addr := flag.String("addr", ":8080", "listen address (\":0\" picks a free port)")
	flag.IntVar(&node.PoolSize, "pool", 2, "number of pooled device contexts")
	flag.IntVar(&node.Devices, "devices", 3, "simulated GPUs per context")
	flag.IntVar(&sc.QueueDepth, "queue", 64, "admission queue depth (full queue answers 429)")
	flag.IntVar(&sc.MaxBatch, "batch", 8, "max compatible jobs coalesced into one lease (1 disables)")
	flag.IntVar(&sc.RetainJobs, "retain", 1024, "terminal jobs kept resolvable via /jobs/{id}")
	flag.DurationVar(&sc.RetryAfter, "retry-after", time.Second, "backpressure hint on 429 responses")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period before shutdown cancels in-flight jobs")
	flag.DurationVar(&sc.DrainGrace, "drain-grace", 5*time.Second, "after cancellation, how long to wait for wedged leases before abandoning them (0 waits forever)")
	flag.DurationVar(&sc.LeaseTimeout, "lease-timeout", 0, "cancel any device lease older than this (0 disables)")
	portFile := flag.String("portfile", "", "write the bound address to this file once listening")

	chaosSeed := flag.Int64("chaos-seed", 0, "seed for the transfer-fault stream of every armed plan")
	chaosKill := flag.String("chaos-kill", "", "comma-separated device deaths, each ctx:dev@seconds (virtual time), e.g. 0:1@0.002")
	chaosXfer := flag.Float64("chaos-xfer", 0, "per-transfer-round fault probability armed on every pooled context")
	chaosMaxXfer := flag.Int("chaos-max-xfer", 0, "stop injecting transfer faults after this many (0 = unlimited)")
	chaosStrag := flag.String("chaos-straggle", "", "comma-separated stragglers, each ctx:dev@factor, e.g. 0:2@3.0")
	flag.BoolVar(&node.Repair, "repair", false, "repair and readmit contexts evicted after a device death (driver reset) instead of shrinking the pool")

	profName := flag.String("profile", "", "machine profile for the pooled contexts (m2090, a100-pcie, h100-nvlink); empty keeps the paper's m2090")
	precision := flag.String("precision", "", "default precision for solve bodies that omit the field: fp64, mixed, or adaptive (empty keeps fp64)")
	topoName := flag.String("topology", "", "override the profile's interconnect topology (host-hub, pcie-switch, nvlink-ring, all-to-all)")

	sloTarget := flag.String("slo-target", "", "SLO classes as name:minprio:latency:objective, comma-separated (minprio \"*\" catches all), e.g. interactive:1:1.0:0.99,standard:*:5.0:0.95; empty keeps the defaults")
	brownoutFlag := flag.String("brownout", "", "SLO-driven brownout ladder: comma-separated minimum admitted priorities per level, e.g. 1,2 (empty disables)")
	flag.Float64Var(&sc.DeadlineMargin, "deadline-margin", 0, "reject submissions whose deadline is below this multiple of the rolling service-time estimate (0 disables)")
	flag.IntVar(&node.TraceEvents, "trace-events", 1<<14, "per-context event-trace ring capacity feeding /jobs/{id}/trace.json device lanes (0 disables)")
	flag.Parse()

	// The library reads a zero count as its default and breaks on a
	// negative one, so what the command line says is checked here.
	for _, c := range []struct {
		name string
		v    int
	}{
		{"pool", node.PoolSize}, {"devices", node.Devices},
		{"queue", sc.QueueDepth}, {"batch", sc.MaxBatch}, {"retain", sc.RetainJobs},
	} {
		if c.v < 1 {
			return fmt.Errorf("-%s %d: need at least 1", c.name, c.v)
		}
	}
	var err error
	if node.Profile, err = profile.FromFlags(*profName, *topoName); err != nil {
		return err
	}
	if node.SLO.Classes, err = obs.ParseSLOClasses(*sloTarget); err != nil {
		return fmt.Errorf("-slo-target: %w", err)
	}
	if sc.Brownout, err = sched.ParseBrownoutLadder(*brownoutFlag); err != nil {
		return fmt.Errorf("-brownout: %w", err)
	}
	if node.FaultPlans, err = chaosPlans(node.PoolSize, *chaosSeed, *chaosKill, *chaosXfer, *chaosMaxXfer, *chaosStrag); err != nil {
		return err
	}

	n := cluster.NewLocalNode(node)
	if err := n.Server.SetDefaultPrecision(*precision); err != nil {
		return fmt.Errorf("-precision: %w", err)
	}
	srv, bound, err := obs.Serve(*addr, n.Server)
	if err != nil {
		return err
	}
	p := n.Sched.Pool().Profile()
	fmt.Printf("cagmresd: serving on %s (pool %d×%d GPUs, profile %s/%s, queue %d, batch %d)\n",
		bound, node.PoolSize, node.Devices, p.Name, p.Topo.Kind, sc.QueueDepth, sc.MaxBatch)
	if len(node.FaultPlans) > 0 {
		fmt.Printf("cagmresd: chaos armed on %d contexts (repair=%t)\n", len(node.FaultPlans), node.Repair)
	}
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(bound), 0o644); err != nil {
			return err
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("cagmresd: %v, draining (timeout %v, grace %v)\n", got, *drainTimeout, sc.DrainGrace)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := n.Drain(ctx); err != nil {
		var dt *sched.DrainTimeoutError
		if errors.As(err, &dt) {
			fmt.Printf("cagmresd: drain grace expired, abandoned %d wedged jobs: %s\n",
				len(dt.Abandoned), strings.Join(dt.Abandoned, ", "))
		} else {
			fmt.Printf("cagmresd: drain timeout, canceled in-flight jobs: %v\n", err)
		}
	}
	shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		_ = srv.Close()
	}
	snap := n.Sched.Snapshot()
	fmt.Printf("cagmresd: drained; dispatched=%d leases=%d batched=%d rejected=%d\n",
		snap.Dispatched, snap.Leases, snap.Batched, snap.Rejected)
	if snap.DevicesLost > 0 || snap.TransferFaults > 0 || snap.Requeues > 0 {
		fmt.Printf("cagmresd: faults survived; devices_lost=%d transfer_faults=%d retries=%d requeues=%d repartitions=%d restores=%d evictions=%d readmissions=%d\n",
			snap.DevicesLost, snap.TransferFaults, snap.TransferRetries, snap.Requeues,
			snap.Repartitions, snap.Restores, snap.Evictions, snap.Readmissions)
	}
	return nil
}

// chaosPlans translates the -chaos-* flags into per-context fault plans.
// Every pooled context gets the transfer/seed settings; deaths and
// stragglers name their context explicitly.
func chaosPlans(poolSize int, seed int64, kill string, xfer float64, maxXfer int, strag string) ([]gpu.FaultPlan, error) {
	if kill == "" && xfer == 0 && strag == "" {
		return nil, nil
	}
	plans := make([]gpu.FaultPlan, poolSize)
	for i := range plans {
		plans[i].Seed = seed + int64(i)
		plans[i].TransferFaultProb = xfer
		plans[i].MaxTransferFaults = maxXfer
	}
	if err := eachSpec(kill, "chaos-kill", func(ctx, dev int, v float64) error {
		if ctx < 0 || ctx >= poolSize {
			return fmt.Errorf("context %d outside pool of %d", ctx, poolSize)
		}
		plans[ctx].Deaths = append(plans[ctx].Deaths, gpu.DeviceDeath{Device: dev, At: v})
		return nil
	}); err != nil {
		return nil, err
	}
	if err := eachSpec(strag, "chaos-straggle", func(ctx, dev int, v float64) error {
		if ctx < 0 || ctx >= poolSize {
			return fmt.Errorf("context %d outside pool of %d", ctx, poolSize)
		}
		plans[ctx].Stragglers = append(plans[ctx].Stragglers, gpu.Straggler{Device: dev, Factor: v})
		return nil
	}); err != nil {
		return nil, err
	}
	return plans, nil
}

// eachSpec parses a comma-separated list of ctx:dev@value entries.
func eachSpec(list, flagName string, f func(ctx, dev int, v float64) error) error {
	if list == "" {
		return nil
	}
	for _, item := range strings.Split(list, ",") {
		head, val, ok := strings.Cut(item, "@")
		cs, ds, ok2 := strings.Cut(head, ":")
		if !ok || !ok2 {
			return fmt.Errorf("-%s %q: want ctx:dev@value", flagName, item)
		}
		ctx, err := strconv.Atoi(cs)
		if err != nil {
			return fmt.Errorf("-%s %q: %v", flagName, item, err)
		}
		dev, err := strconv.Atoi(ds)
		if err != nil {
			return fmt.Errorf("-%s %q: %v", flagName, item, err)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("-%s %q: %v", flagName, item, err)
		}
		if err := f(ctx, dev, v); err != nil {
			return fmt.Errorf("-%s %q: %v", flagName, item, err)
		}
	}
	return nil
}
