#!/bin/sh
# trace_smoke.sh — end-to-end smoke test of the request-tracing and SLO
# stack: start cagmresd, drive it with the load generator under a fixed
# W3C traceparent (loadgen itself asserts the daemon echoes the trace
# id on every response), then pull the first job's Chrome trace and
# span stream plus the /slo and /metrics reports and validate all four:
# the span stream must lint clean (single trace id, acyclic, nested),
# the Chrome export must carry request and device lanes, /slo must be a
# well-formed report, and /metrics must declare the slo_*/trace_*
# families. Finishes with a SIGTERM drain check like serve_smoke.sh.
#
# Usage: scripts/trace_smoke.sh [workdir]   (default: $TMPDIR/cagmres-trace-smoke)
set -eu

GO="${GO:-go}"
DIR="${1:-${TMPDIR:-/tmp}/cagmres-trace-smoke}"
mkdir -p "$DIR"
rm -f "$DIR/metrics.prom" "$DIR/job.trace.json" "$DIR/job.spans.jsonl" "$DIR/slo.json"
TAG=trace-smoke
. "$(dirname "$0")/lib.sh"

"$GO" build -o "$DIR/cagmresd" ./cmd/cagmresd
"$GO" build -o "$DIR/loadgen" ./cmd/loadgen
"$GO" build -o "$DIR/obslint" ./cmd/obslint

TRACEPARENT="00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
TRACEID="0af7651916cd43dd8448eb211c80319c"

start cagmresd "$DIR/cagmresd" -addr 127.0.0.1:0 -pool 2 -devices 2
echo "trace-smoke: cagmresd on $ADDR"

# Traced load: loadgen fails if any response drops the trace id, and
# fetches the trace/span/SLO artifacts afterwards.
"$DIR/loadgen" -mode live -portfile "$DIR/cagmresd.port" \
    -clients 2 -requests 2 -matrix laplace3d -scale 1e-4 -m 20 -s 5 \
    -traceparent "$TRACEPARENT" \
    -traceout "$DIR/job.trace.json" -spansout "$DIR/job.spans.jsonl" \
    -sloout "$DIR/slo.json" -metricsout "$DIR/metrics.prom"

# The span stream lints clean and carries the adopted trace id.
"$DIR/obslint" -spans "$DIR/job.spans.jsonl"
grep -q "$TRACEID" "$DIR/job.spans.jsonl" || {
    echo "trace-smoke: span stream does not carry trace $TRACEID" >&2
    exit 1
}

# The Chrome export is a valid trace file with the stitched lanes.
"$DIR/obslint" -trace "$DIR/job.trace.json"
for lane in "device 0" "queue" "modeled time"; do
    grep -q "$lane" "$DIR/job.trace.json" || {
        echo "trace-smoke: trace.json missing \"$lane\" lane" >&2
        exit 1
    }
done

# /slo is a report with classes and budget numbers.
for field in '"classes"' '"error_budget_remaining"' '"burn_rate_fast"'; do
    grep -q "$field" "$DIR/slo.json" || {
        echo "trace-smoke: /slo report missing $field" >&2
        cat "$DIR/slo.json" >&2
        exit 1
    }
done

# /metrics declares the SLO and tracing families on top of linting clean.
"$DIR/obslint" -prom "$DIR/metrics.prom" -require \
    slo_requests_total,slo_latency_seconds,slo_latency_target_seconds,slo_objective,slo_error_budget_remaining,slo_burn_rate,trace_requests_total,trace_spans_total

# Graceful drain.
stop cagmresd
echo "trace-smoke: ok (trace id round-tripped, spans lint, SLO families present)"
