#!/bin/sh
# chaos_smoke.sh — end-to-end smoke test of the fault-injection and
# self-healing stack, in two layers:
#
#  1. The in-process chaos harness (cmd/chaos) replays a seeded fault
#     plan — a device death mid-solve plus a low-probability transfer
#     fault stream — through the solver and the scheduler, asserting
#     every job terminates, the degraded 3→2-device solve converges,
#     and the replay is bit-identical on the virtual clock. Its metrics
#     exposition must lint clean and declare every fault/retry family.
#
#  2. The daemon path: cagmresd is started with chaos flags armed
#     (-chaos-kill, -chaos-xfer, -repair), driven by the closed-loop
#     load generator, and must keep answering solves, export the fault
#     families on /metrics, and still drain cleanly on SIGTERM.
#
# Usage: scripts/chaos_smoke.sh [workdir]   (default: $TMPDIR/cagmres-chaos-smoke)
set -eu

GO="${GO:-go}"
DIR="${1:-${TMPDIR:-/tmp}/cagmres-chaos-smoke}"
mkdir -p "$DIR"
rm -f "$DIR/cagmresd.port" "$DIR/cagmresd.log" "$DIR/metrics.prom" \
      "$DIR/chaos-metrics.prom" "$DIR/chaos-overlap-metrics.prom" "$DIR/bench.json"

"$GO" build -o "$DIR/chaos" ./cmd/chaos
"$GO" build -o "$DIR/cagmresd" ./cmd/cagmresd
"$GO" build -o "$DIR/loadgen" ./cmd/loadgen
"$GO" build -o "$DIR/obslint" ./cmd/obslint

FAULT_FAMILIES=sched_faults_injected_total,sched_transfer_retries_total,sched_context_evictions_total,sched_context_readmissions_total,sched_job_requeues_total,sched_repartitions_total,sched_checkpoint_restores_total,sched_lease_timeouts_total

# Layer 1: deterministic in-process replay (solver heal + scheduler
# survival), the configuration of EXPERIMENTS.md's degraded-mode table.
"$DIR/chaos" -pool 2 -devices 3 -jobs 8 -seed 7 -kill 0:1@0.9 -xferprob 0.02 \
    -repair -benchjson "$DIR/bench.json" -metricsout "$DIR/chaos-metrics.prom"
"$DIR/obslint" -prom "$DIR/chaos-metrics.prom" -require "$FAULT_FAMILIES"

# Same fault plan through the asynchronous stream engine: overlap
# reorders modeled time, not arithmetic, and faults fire on the stream
# clock — the degraded replay must stay bit-identical with streams on
# (the harness exits non-zero if it diverges).
"$DIR/chaos" -pool 2 -devices 3 -jobs 8 -seed 7 -kill 0:1@0.9 -xferprob 0.02 \
    -repair -overlap -metricsout "$DIR/chaos-overlap-metrics.prom"
"$DIR/obslint" -prom "$DIR/chaos-overlap-metrics.prom" -require "$FAULT_FAMILIES"

# Layer 2: the daemon with chaos armed must keep serving and drain clean.
"$DIR/cagmresd" -addr 127.0.0.1:0 -pool 2 -devices 3 -portfile "$DIR/cagmresd.port" \
    -chaos-seed 7 -chaos-kill 0:1@0.001 -chaos-xfer 0.02 -repair \
    > "$DIR/cagmresd.log" 2>&1 &
DPID=$!
trap 'kill "$DPID" 2>/dev/null || true' EXIT

i=0
while [ ! -s "$DIR/cagmresd.port" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "chaos-smoke: daemon never wrote its port file" >&2
        cat "$DIR/cagmresd.log" >&2
        exit 1
    fi
    sleep 0.1
done
echo "chaos-smoke: cagmresd (chaos armed) on $(cat "$DIR/cagmresd.port")"

"$DIR/loadgen" -mode live -portfile "$DIR/cagmresd.port" \
    -clients 4 -requests 3 -matrix laplace3d -scale 1e-4 -m 20 -s 5 \
    -metricsout "$DIR/metrics.prom"

"$DIR/obslint" -prom "$DIR/metrics.prom" -require "$FAULT_FAMILIES"

kill -TERM "$DPID"
wait "$DPID" || {
    echo "chaos-smoke: daemon exited non-zero after SIGTERM" >&2
    cat "$DIR/cagmresd.log" >&2
    exit 1
}
trap - EXIT
grep -q "drained" "$DIR/cagmresd.log" || {
    echo "chaos-smoke: daemon log missing drain confirmation" >&2
    cat "$DIR/cagmresd.log" >&2
    exit 1
}
grep -q "chaos armed" "$DIR/cagmresd.log" || {
    echo "chaos-smoke: daemon log missing chaos-armed banner" >&2
    cat "$DIR/cagmresd.log" >&2
    exit 1
}
echo "chaos-smoke: ok (degraded daemon served load and drained cleanly)"
