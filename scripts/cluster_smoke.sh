#!/bin/sh
# cluster_smoke.sh — end-to-end smoke test of the cluster tier:
# start 3 cagmresd daemons behind cagmres-router -backends, drive it
# with the load generator's cluster mode (shard spread + aggregated healthz),
# kill one node mid-run via the admin surface and check the cluster
# health degrades while a solve pinned to the dead node's shard still
# completes on a survivor, revive the node and check health recovers,
# then shut the router and every daemon down gracefully with SIGTERM.
#
# Usage: scripts/cluster_smoke.sh [workdir]   (default: $TMPDIR/cagmres-cluster-smoke)
set -eu

GO="${GO:-go}"
DIR="${1:-${TMPDIR:-/tmp}/cagmres-cluster-smoke}"
mkdir -p "$DIR"
TAG=cluster-smoke
. "$(dirname "$0")/lib.sh"

"$GO" build -o "$DIR/cagmresd" ./cmd/cagmresd
"$GO" build -o "$DIR/cagmres-router" ./cmd/cagmres-router
"$GO" build -o "$DIR/loadgen" ./cmd/loadgen

NODES="node0 node1 node2"
BACKENDS=
for n in $NODES; do
    start "$n" "$DIR/cagmresd" -addr 127.0.0.1:0 -pool 1 -devices 2
    BACKENDS="${BACKENDS:+$BACKENDS,}$n=http://$ADDR"
done
start router "$DIR/cagmres-router" -addr 127.0.0.1:0 -backends "$BACKENDS"
echo "cluster-smoke: cagmres-router on $ADDR over $BACKENDS"

get()  { curl -fsS "http://$ADDR$1"; }
post() { curl -fsS -X POST ${2:+-d "$2"} "http://$ADDR$1"; }
SOLVE='{"matrix":{"name":"laplace3d","scale":1e-5},"m":20,"s":4,"tol":1e-6,"wait":true}'

# Phase 1: closed-loop cluster load — shards must spread and the
# aggregated healthz must come back fully healthy.
"$DIR/loadgen" -mode cluster -portfile "$DIR/router.port" \
    -clients 4 -requests 2 -matrix laplace3d -scale 1e-5 -m 20 -s 4 -tol 1e-6

# Phase 2: learn which backend owns the smoke shard, then kill it.
OWNER="$(post /solve "$SOLVE" | sed -n 's/.*"backend":"\([^"]*\)".*/\1/p')"
if [ -z "$OWNER" ]; then
    echo "cluster-smoke: could not learn the shard owner" >&2
    exit 1
fi
echo "cluster-smoke: shard owner is $OWNER; killing it"
post "/admin/kill/$OWNER" > /dev/null

HEALTH="$(get /healthz)"
echo "$HEALTH" | grep -q '"degraded":true' || {
    echo "cluster-smoke: healthz not degraded after node kill: $HEALTH" >&2
    exit 1
}
echo "$HEALTH" | grep -q '"ok":true' || {
    echo "cluster-smoke: cluster lost availability with 2 survivors: $HEALTH" >&2
    exit 1
}

# Phase 3: a solve for the dead node's shard must complete on a
# survivor. The kill tripped the dead node's circuit breaker, so the
# router skips it without spending a forward: exactly one hop, and the
# breaker shows open in the aggregated healthz.
OUT="$(post /solve "$SOLVE")"
echo "$OUT" | grep -q '"state":"done"' || {
    echo "cluster-smoke: solve did not complete after node death: $OUT" >&2
    exit 1
}
echo "$OUT" | grep -q "\"backend\":\"$OWNER\"" && {
    echo "cluster-smoke: solve landed on the dead node: $OUT" >&2
    exit 1
}
echo "$OUT" | grep -q '"hops":1' || {
    echo "cluster-smoke: breaker skip should cost no hop: $OUT" >&2
    exit 1
}
echo "$HEALTH" | grep -q '"breaker":"open"' || {
    echo "cluster-smoke: killed node's breaker not open in healthz: $HEALTH" >&2
    exit 1
}
echo "cluster-smoke: solve re-routed off dead node $OWNER (breaker open, no wasted forward)"

# Phase 4: revive; the aggregated health must recover.
post "/admin/revive/$OWNER" > /dev/null
HEALTH="$(get /healthz)"
echo "$HEALTH" | grep -q '"degraded":false' || {
    echo "cluster-smoke: healthz still degraded after revive: $HEALTH" >&2
    exit 1
}
echo "cluster-smoke: $OWNER revived, cluster healthy"

# Graceful drain: SIGTERM must produce a zero exit, router first.
stop router $NODES
echo "cluster-smoke: ok (node death survived, graceful drain confirmed)"
