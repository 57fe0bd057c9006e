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
rm -f "$DIR/metrics.prom"
TAG=serve-smoke
. "$(dirname "$0")/lib.sh"

"$GO" build -o "$DIR/cagmresd" ./cmd/cagmresd
"$GO" build -o "$DIR/loadgen" ./cmd/loadgen
"$GO" build -o "$DIR/obslint" ./cmd/obslint

start cagmresd "$DIR/cagmresd" -addr 127.0.0.1:0 -pool 2 -devices 2
echo "serve-smoke: cagmresd on $ADDR"

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
stop cagmresd
echo "serve-smoke: ok (graceful drain confirmed)"
