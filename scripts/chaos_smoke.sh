#!/bin/sh
# chaos_smoke.sh — end-to-end smoke test of the fault-injection and
# self-healing stack on a live daemon: cagmresd is started with a seeded
# fault plan armed (-chaos-kill, -chaos-xfer, -repair), driven by the
# closed-loop load generator, and must keep answering solves, export
# every fault/retry metric family on /metrics, and still drain cleanly
# on SIGTERM. The in-process fault scenarios (degraded solve, faulted
# scheduler pool, node death behind the router) are `go test` cases.
#
# Usage: scripts/chaos_smoke.sh [workdir]   (default: $TMPDIR/cagmres-chaos-smoke)
set -eu

GO="${GO:-go}"
DIR="${1:-${TMPDIR:-/tmp}/cagmres-chaos-smoke}"
mkdir -p "$DIR"
rm -f "$DIR/metrics.prom"
TAG=chaos-smoke
. "$(dirname "$0")/lib.sh"

"$GO" build -o "$DIR/cagmresd" ./cmd/cagmresd
"$GO" build -o "$DIR/loadgen" ./cmd/loadgen
"$GO" build -o "$DIR/obslint" ./cmd/obslint

FAULT_FAMILIES=sched_faults_injected_total,sched_transfer_retries_total,sched_context_evictions_total,sched_context_readmissions_total,sched_job_requeues_total,sched_repartitions_total,sched_checkpoint_restores_total,sched_lease_timeouts_total

# The daemon with chaos armed must keep serving and drain clean.
start cagmresd "$DIR/cagmresd" -addr 127.0.0.1:0 -pool 2 -devices 3 \
    -chaos-seed 7 -chaos-kill 0:1@0.001 -chaos-xfer 0.02 -repair
echo "chaos-smoke: cagmresd (chaos armed) on $ADDR"

"$DIR/loadgen" -mode live -portfile "$DIR/cagmresd.port" \
    -clients 4 -requests 3 -matrix laplace3d -scale 1e-4 -m 20 -s 5 \
    -metricsout "$DIR/metrics.prom"

"$DIR/obslint" -prom "$DIR/metrics.prom" -require "$FAULT_FAMILIES"

stop cagmresd
grep -q "chaos armed" "$DIR/cagmresd.log" || {
    echo "chaos-smoke: daemon log missing chaos-armed banner" >&2
    cat "$DIR/cagmresd.log" >&2
    exit 1
}
echo "chaos-smoke: ok (degraded daemon served load and drained cleanly)"
