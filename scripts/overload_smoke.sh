#!/bin/sh
# overload_smoke.sh — end-to-end smoke test of the overload-containment
# tier: start 2 cagmresd daemons behind cagmres-router with the full
# containment stack armed (retry budget, circuit breakers, deadline
# propagation, SLO-driven brownout with an impossible latency target,
# deadline-infeasibility gate), then
#   1. solve with a client deadline stamped in the Solve-Control header
#      and check it completes,
#   2. check the impossible SLO tripped brownout on the loaded node
#      (healthz brownout_level, sched_shed_total{reason="brownout"})
#      while a priority-0 solve still completes on the clean survivor,
#   3. check a solve whose deadline cannot cover a typical service time
#      is rejected up front with the structured deadline_infeasible code,
#   4. check the router exports the resilience families and healthz
#      resilience block,
# and finally shut the router and both daemons down gracefully with SIGTERM.
#
# Usage: scripts/overload_smoke.sh [workdir]   (default: $TMPDIR/cagmres-overload-smoke)
set -eu

GO="${GO:-go}"
DIR="${1:-${TMPDIR:-/tmp}/cagmres-overload-smoke}"
mkdir -p "$DIR"
TAG=overload-smoke
. "$(dirname "$0")/lib.sh"

"$GO" build -o "$DIR/cagmresd" ./cmd/cagmresd
"$GO" build -o "$DIR/cagmres-router" ./cmd/cagmres-router

# An SLO no solve can meet (0.1 ms latency target) plus a one-rung
# brownout ladder: the first completed solve trips fast burn on its
# node, which then sheds priority < 1. The deadline margin of 1 arms
# the infeasibility gate against the rolling service estimate.
NODES="node0 node1"
BACKENDS=
for n in $NODES; do
    start "$n" "$DIR/cagmresd" -addr 127.0.0.1:0 -pool 1 -devices 2 \
        -slo-target 'burn:*:0.0001:0.9' -brownout 1 -deadline-margin 1
    BACKENDS="${BACKENDS:+$BACKENDS,}$n=http://$ADDR"
done
start router "$DIR/cagmres-router" -addr 127.0.0.1:0 -backends "$BACKENDS" \
    -retry-budget 0.1 -retry-burst 5 -breaker-threshold 3 -breaker-cooldown 2
echo "overload-smoke: cagmres-router on $ADDR over $BACKENDS"

get() { curl -fsS "http://$ADDR$1"; }
# solve POSTs a body with a Solve-Control header; -w '\n%{http_code}'
# lets callers read both the body and the status.
solve() { curl -sS -X POST -H "Solve-Control: $1" -d "$2" \
    -w '\n%{http_code}' "http://$ADDR/solve"; }
SOLVE='{"matrix":{"name":"laplace3d","scale":1e-3},"m":20,"s":4,"tol":1e-6,"wait":true}'

# Phase 1: a deadline-stamped solve must complete — the router
# decrements the deadline per hop and the backend honors the rest.
OUT="$(solve 'deadline-ms=60000' "$SOLVE")"
echo "$OUT" | grep -q '"state":"done"' || {
    echo "overload-smoke: deadline-stamped solve did not complete: $OUT" >&2
    exit 1
}
OWNER="$(echo "$OUT" | sed -n 's/.*"backend":"\([^"]*\)".*/\1/p')"
echo "overload-smoke: deadline-stamped solve done on $OWNER"

# Phase 2: that completion blew the impossible SLO target, so the
# owner's fast-burn window trips brownout level 1: the node itself now
# sheds priority 0 (visible in its healthz and shed counter), while the
# router re-routes the shed solve to the clean survivor.
OUT="$(solve 'deadline-ms=60000' "$SOLVE")"
echo "$OUT" | grep -q '"state":"done"' || {
    echo "overload-smoke: solve under brownout did not complete on the survivor: $OUT" >&2
    exit 1
}
echo "$OUT" | grep -q "\"backend\":\"$OWNER\"" && {
    echo "overload-smoke: brownout did not shed off the loaded node: $OUT" >&2
    exit 1
}
OWNER_HEALTH="$(get "/backends/$OWNER/healthz")"
echo "$OWNER_HEALTH" | grep -q '"brownout_level":1' || {
    echo "overload-smoke: $OWNER healthz does not show brownout level 1: $OWNER_HEALTH" >&2
    exit 1
}
get "/backends/$OWNER/metrics" > "$DIR/owner.prom"
grep -q 'sched_shed_total{reason="brownout"} [1-9]' "$DIR/owner.prom" || {
    echo "overload-smoke: $OWNER metrics missing brownout shed count" >&2
    exit 1
}
echo "overload-smoke: brownout tripped on $OWNER, solve shed to a survivor"

# Phase 3: a deadline below the service estimate is dead on arrival:
# the infeasibility gate rejects it up front as deadline_infeasible.
# Priority 1 clears the brownout rung, so the deadline gate is what
# answers. Both nodes now have a primed estimate (each served a solve).
BODY='{"matrix":{"name":"laplace3d","scale":1e-3},"m":20,"s":4,"tol":1e-6,"wait":true,"priority":1,"deadline_ms":1}'
OUT="$(solve 'deadline-ms=1' "$BODY")"
CODE="$(echo "$OUT" | tail -1)"
echo "$OUT" | grep -q 'deadline' || {
    echo "overload-smoke: infeasible deadline not rejected (status $CODE): $OUT" >&2
    exit 1
}
case "$CODE" in
  422|504) : ;;
  *) echo "overload-smoke: infeasible deadline got status $CODE, want 422 or 504: $OUT" >&2
     exit 1 ;;
esac
echo "overload-smoke: infeasible 1ms deadline rejected up front (status $CODE)"

# Phase 4: the router's own resilience surface — metric families and
# the healthz resilience block.
METRICS="$(get /metrics)"
for fam in router_retry_budget_tokens router_retry_budget_exhausted_total \
    router_breaker_skips_total router_breaker_open_total \
    router_hedges_total router_hedge_wins_total router_deadline_expired_total \
    host_kernels_info; do
    echo "$METRICS" | grep -q "^$fam" || {
        echo "overload-smoke: router /metrics missing $fam" >&2
        exit 1
    }
done
HEALTH="$(get /healthz)"
echo "$HEALTH" | grep -q '"resilience"' || {
    echo "overload-smoke: router healthz missing resilience block: $HEALTH" >&2
    exit 1
}
echo "overload-smoke: resilience families and healthz block present"

# Graceful drain: SIGTERM must produce a zero exit, router first.
stop router $NODES
echo "overload-smoke: ok (deadline propagation, brownout shed, infeasible reject)"
