#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the serving stack:
# start cagmresd on a free port, drive it with the closed-loop load
# generator, assert the exported metrics lint clean and declare every
# scheduler instrument, then shut the daemon down gracefully with
# SIGTERM and check it drains to a clean exit.
#
# Usage: scripts/serve_smoke.sh [workdir]   (default: $TMPDIR/cagmres-serve-smoke)
set -eu

GO="${GO:-go}"
DIR="${1:-${TMPDIR:-/tmp}/cagmres-serve-smoke}"
mkdir -p "$DIR"
rm -f "$DIR/cagmresd.port" "$DIR/cagmresd.log" "$DIR/metrics.prom"

"$GO" build -o "$DIR/cagmresd" ./cmd/cagmresd
"$GO" build -o "$DIR/loadgen" ./cmd/loadgen
"$GO" build -o "$DIR/obslint" ./cmd/obslint

"$DIR/cagmresd" -addr 127.0.0.1:0 -pool 2 -devices 2 -portfile "$DIR/cagmresd.port" \
    > "$DIR/cagmresd.log" 2>&1 &
DPID=$!
trap 'kill "$DPID" 2>/dev/null || true' EXIT

# Wait for the daemon to publish its bound address.
i=0
while [ ! -s "$DIR/cagmresd.port" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: daemon never wrote its port file" >&2
        cat "$DIR/cagmresd.log" >&2
        exit 1
    fi
    sleep 0.1
done
echo "serve-smoke: cagmresd on $(cat "$DIR/cagmresd.port")"

# Closed-loop load: 4 concurrent clients, matching the issue's
# "at least 4 concurrent solves" bar, plus a /metrics snapshot.
"$DIR/loadgen" -mode live -portfile "$DIR/cagmresd.port" \
    -clients 4 -requests 3 -matrix laplace3d -scale 1e-4 -m 20 -s 5 \
    -metricsout "$DIR/metrics.prom"

# The exposition must lint clean and declare every scheduler family and
# which body the host kernels run.
"$DIR/obslint" -prom "$DIR/metrics.prom" -require \
    host_kernels_info,sched_queue_depth,sched_pool_in_use,sched_pool_size,sched_pool_workspace_bytes,sched_queue_wait_seconds,sched_service_seconds,sched_batch_jobs,sched_rejections_total,sched_leases_total,sched_lease_seconds_total,sched_jobs_total,sched_prepared_problems_total

# Graceful drain: SIGTERM must produce a zero exit.
kill -TERM "$DPID"
wait "$DPID" || {
    echo "serve-smoke: daemon exited non-zero after SIGTERM" >&2
    cat "$DIR/cagmresd.log" >&2
    exit 1
}
trap - EXIT
grep -q "drained" "$DIR/cagmresd.log" || {
    echo "serve-smoke: daemon log missing drain confirmation" >&2
    cat "$DIR/cagmresd.log" >&2
    exit 1
}
echo "serve-smoke: ok (graceful drain confirmed)"
