#!/bin/sh
# precision_smoke.sh — end-to-end smoke test of the mixed-precision
# pipeline: start cagmresd on a bf16-capable profile with a daemon-wide
# default of -precision mixed, drive it with the load generator, assert
# a solve body that omits the field inherits the daemon default (and an
# explicit fp64 body overrides it), replay one mixed solve and check
# bit-identity, then lint the exported metrics for the precision
# instrument families and shut down gracefully.
#
# Usage: scripts/precision_smoke.sh [workdir]   (default: $TMPDIR/cagmres-precision-smoke)
set -eu

GO="${GO:-go}"
DIR="${1:-${TMPDIR:-/tmp}/cagmres-precision-smoke}"
mkdir -p "$DIR"
rm -f "$DIR/metrics.prom"
TAG=precision-smoke
. "$(dirname "$0")/lib.sh"

"$GO" build -o "$DIR/cagmresd" ./cmd/cagmresd
"$GO" build -o "$DIR/loadgen" ./cmd/loadgen
"$GO" build -o "$DIR/obslint" ./cmd/obslint

# a100-pcie puts the pooled devices behind a PCIe switch with
# bfloat16-capable transfer engines, so mixed solves compress halos.
start cagmresd "$DIR/cagmresd" -addr 127.0.0.1:0 -pool 2 -devices 2 \
    -profile a100-pcie -precision mixed
echo "precision-smoke: cagmresd on $ADDR (default precision: mixed)"

get()  { curl -fsS "http://$ADDR$1"; }
post() { curl -fsS -X POST ${2:+-d "$2"} "http://$ADDR$1"; }

# Closed-loop mixed load so the precision counters accumulate.
"$DIR/loadgen" -mode live -portfile "$DIR/cagmresd.port" \
    -clients 4 -requests 2 -matrix laplace3d -scale 1e-4 -m 20 -s 5 \
    -precision mixed

# A body that omits the precision field inherits the daemon default,
# and the mode must be echoed in the job JSON.
SOLVE='{"matrix":{"name":"laplace3d","scale":1e-4},"m":20,"s":5,"tol":1e-8,"wait":true}'
OUT="$(post /solve "$SOLVE")"
echo "$OUT" | grep -q '"state":"done"' || {
    echo "precision-smoke: defaulted solve did not complete: $OUT" >&2
    exit 1
}
echo "$OUT" | grep -q '"mode":"mixed"' || {
    echo "precision-smoke: daemon default precision not echoed: $OUT" >&2
    exit 1
}
echo "precision-smoke: omitted field inherited the daemon default (mode mixed echoed)"

# An explicit fp64 body overrides the daemon default: pure-double
# solves carry no precision report at all.
FP64='{"matrix":{"name":"laplace3d","scale":1e-4},"m":20,"s":5,"tol":1e-8,"precision":"fp64","wait":true}'
OUT="$(post /solve "$FP64")"
echo "$OUT" | grep -q '"state":"done"' || {
    echo "precision-smoke: fp64 solve did not complete: $OUT" >&2
    exit 1
}
echo "$OUT" | grep -q '"mode":' && {
    echo "precision-smoke: explicit fp64 body still reported a narrowed mode: $OUT" >&2
    exit 1
}
echo "precision-smoke: explicit fp64 body overrode the daemon default"

# Replay bit-identity: the same mixed body twice must agree exactly on
# the residual and the modeled time — narrowing is deterministic.
MIXED='{"matrix":{"name":"laplace3d","scale":1e-4},"m":20,"s":5,"tol":1e-8,"precision":"mixed","wait":true}'
pick() { sed -n "s/.*\"$1\":\([^,}]*\).*/\1/p"; }
A="$(post /solve "$MIXED")"
B="$(post /solve "$MIXED")"
for field in relres modeled_seconds windows_fp64 windows_fp32 compressed_transfers; do
    VA="$(echo "$A" | pick "$field")"
    VB="$(echo "$B" | pick "$field")"
    if [ -z "$VA" ] || [ "$VA" != "$VB" ]; then
        echo "precision-smoke: replay mismatch on $field: '$VA' vs '$VB'" >&2
        echo "first:  $A" >&2
        echo "second: $B" >&2
        exit 1
    fi
done
echo "precision-smoke: mixed replay bit-identical (relres $(echo "$A" | pick relres))"

# The exposition must lint clean and declare the precision families.
get /metrics > "$DIR/metrics.prom"
"$DIR/obslint" -prom "$DIR/metrics.prom" -require \
    solver_precision_jobs_total,solver_precision_windows_total,solver_precision_compressed_transfers_total

# Graceful drain: SIGTERM must produce a zero exit.
stop cagmresd
echo "precision-smoke: ok (default inherited, override honored, replay bit-identical)"
