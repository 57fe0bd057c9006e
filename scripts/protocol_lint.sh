#!/bin/sh
# One definition of the host-staged reduce protocol: gpu.Context's
# collectives (internal/gpu/collective.go) launch, gather, broadcast and
# all-reduce; nothing above internal/gpu writes the sequence out again.
# Fails when a non-test Go file under internal/ (outside internal/gpu),
# cmd/, examples/ or the root package
#   - builds its own []gpu.Work (dist.MPK may: its exchange bytes differ
#     per device, a window records all s steps' costs in one fork, and
#     its first step is charged as two launches), or
#   - calls RunAll (dist's MPK and Distribute may: an MPK window is one
#     device fork that picks up the halo and runs all s steps, charged
#     after it in step order, beside the fork that packs the exchange;
#     Distribute's device-side set-up is charged nowhere).
# Device concurrency has one owner too: gpu.Context runs each device's
# closure on that device's goroutine, so the kernels and the solver layers
# start none of their own. Fails when a non-test Go file under
# internal/la, internal/ortho, internal/dist or internal/core has a `go`
# statement, a sync.WaitGroup or a runtime.GOMAXPROCS.
# HTTP routes have one declaration too (see the last check below).
# benchmark/ is the fixed yardstick and is not scanned. An optional
# argument names another checkout to lint.
set -eu
cd "${1:-$(dirname "$0")/..}"
files=$(find . -name '*.go' ! -name '*_test.go' \
	\( -path './internal/*' -o -path './cmd/*' -o -path './examples/*' -o ! -path './*/*' \) \
	! -path './internal/gpu/*')
# Code lines only: a comment may name what it replaces.
code() { grep -nE "$1" $files | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true; }
bad=$(
	code 'make\(\[\]gpu\.Work' | grep -v '^\./internal/dist/mpk\.go:' || true
	code '\.RunAll\(' | grep -vE '^\./internal/dist/(mpk|matrix)\.go:' || true
)
if [ -n "$bad" ]; then
	echo "protocol-lint: the reduce protocol is written outside internal/gpu (use Context.Launch/Gather/Broadcast/AllReduce):" >&2
	echo "$bad" >&2
	exit 1
fi
files=$(find ./internal/la ./internal/ortho ./internal/dist ./internal/core -name '*.go' ! -name '*_test.go')
bad=$(code '(^|[^[:alnum:]_."])go[[:space:]]+[[:alpha:]_(]|sync\.WaitGroup|runtime\.GOMAXPROCS')
if [ -n "$bad" ]; then
	echo "protocol-lint: concurrency below gpu.Context (a device's kernels run on the device's goroutine):" >&2
	echo "$bad" >&2
	exit 1
fi
# A route is declared once: each HTTP tier's table (obs.Mount) names its
# method and path pattern, and handlers read the pattern's wildcards with
# PathValue. Fails when a non-test file under internal/server or
# internal/cluster compares a request's Method or reads URL.Path.
files=$(find ./internal/server ./internal/cluster -name '*.go' ! -name '*_test.go')
bad=$(code '\.Method[[:space:]]*[!=]=|URL\.Path')
if [ -n "$bad" ]; then
	echo "protocol-lint: a method or path is checked outside the route tables (declare it in the obs.Mount table):" >&2
	echo "$bad" >&2
	exit 1
fi
echo "protocol-lint: ok"
