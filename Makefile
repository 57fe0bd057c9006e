# Repo gates. `make check` is the full pre-merge bar: vet, gofmt
# (`make fmt-check`: no tracked .go file may differ from its gofmt form),
# staticcheck (when installed), the one-definition lint of the reduce protocol
# (`make protocol-lint`: only internal/gpu's collectives spell it, and
# la/ortho/dist/core start no goroutines of their own), the
# reachability gate (`make unreached`: every top-level declaration under
# internal/ is reached from a main, the cagmres API or a named test oracle,
# by a go/types scan), the
# race detector over the concurrency hot spots
# (gpu.RunAll and the Stats ledger, the kernels that run on its device
# goroutines — la and the ortho strategies — the sched/server serving stack, and
# core's heal/cancel/fault tests — its recovery boundary is a recover
# around RunAll goroutines),
# then the whole deterministic test suite, then the command-line check
# (`make cli-check`: every cmd/* binary's -h output equals
# scripts/flags.golden, and an out-of-range count exits with an error, not
# a panic), then the smoke tests.
# `make metrics-smoke` exercises the observability surface end-to-end:
# a small solve with telemetry/metrics/trace output, each artifact
# validated by cmd/obslint — the one smoke that lints a ledger-only
# Chrome export (gpu.WriteChromeTrace), beside trace-smoke's job trace. `make serve-smoke` boots cagmresd, drives
# it with the closed-loop load generator, lints the daemon's /metrics
# (required scheduler families included) and checks graceful SIGTERM
# drain. `make chaos-smoke` arms a seeded fault plan — device death
# mid-solve, transfer-fault stream — on a daemon driven by the load
# generator, requiring every fault/retry metric family and a clean drain
# from the degraded service (the in-process fault scenarios are tests,
# as is the overlap study's gate: TestFigOverlapWins in internal/bench).
# `make trace-smoke` drives a traced workload through the daemon and
# validates the request-tracing/SLO surface: traceparent round trip,
# span-stream lint, stitched Chrome trace, /slo report, and the
# slo_*/trace_* families.
# `make cluster-smoke` federates 3 cagmresd processes behind
# cagmres-router, kills one mid-run, and requires re-routing, health
# degrade/recover, and a graceful drain of every process.
# `make overload-smoke` arms the full containment stack (retry budget,
# breakers, deadline propagation, brownout) on 2 cagmresd processes
# behind the router,
# and checks every structured-rejection path end-to-end (the
# deterministic retry-storm study is a test of internal/bench).
# `make precision-smoke` boots
# cagmresd on a bf16-capable profile with a mixed default, checks the
# daemon default/override semantics of the precision field over real
# HTTP, requires a bit-identical mixed replay and the
# solver_precision_* metric families, and drains cleanly. `make bench`
# runs the repository's wall-clock benchmark (./benchmark, see its
# README) as a suite — BENCH_RUNS seeds per workload plus a traced run —
# and `make bench-compare OLD=a.json NEW=b.json` judges two of its suite
# documents against each other (exit 1 on a regression). `make loc`
# prints non-test Go lines per package (benchmark/ excluded) — the
# "line count goes down" bar as a command — and `make surface` the
# exported identifiers per package (every constant, function, type,
# method and struct field a caller can reach), the same bar for API and
# options. `make bench-kernels` times
# one bare device fork-join (gpu.Context.RunAll, 3 devices) and the same
# fork as a charged Launch, the host kernels of the solve (device SpMV,
# GemvT/Gemv, the Gram GemmTN and Syrk, each also as `/scalar` rows, the
# Go loop beside the AVX2 body, and each with its Gflop/s), one MPK
# window at the two shapes the benchmark solves and one depth-1
# distributed SpMV (a fork, the kernels and the bodies their forks run
# allocate nothing: an SpMV allocates nothing, nor does a window — its
# MPK, BOrth and TSQR run on per-attempt state — pinned by dist.TestMPKAllocations and
# ortho.TestBoundStrategiesAllocateNothing: `make test`, so `make check`), the graph
# layer's k-way partition (G3_circuit@0.05 k = 3, cant@0.05 k = 4) and
# RCM ordering (dielFilterV2real@0.02, a 32 000-row diagonal), then prints
# B/op and allocs/op of prepared CA-GMRES solves (CGS, and CholQR as the
# benchmark runs it) and one GMRES solve at the benchmark's shapes — what a solve allocates beside the context's
# workspace: per-cycle and per-window bookkeeping, pinned per iteration by
# core.TestSolveAllocations (an Arnoldi step, the per-step column
# operations and an SpMV allocate nothing: core.TestArnoldiStepsAllocateNothing,
# dist.TestVectorOpsAllocateNothing).

GO ?= go

.PHONY: check build vet fmt-check staticcheck protocol-lint unreached cli-check test race golden metrics-smoke serve-smoke chaos-smoke trace-smoke cluster-smoke overload-smoke precision-smoke fuzz-smoke cover-profile bench bench-compare bench-kernels loc surface

check: vet fmt-check staticcheck protocol-lint unreached race test cli-check fuzz-smoke cover-profile metrics-smoke serve-smoke chaos-smoke trace-smoke cluster-smoke overload-smoke precision-smoke

build:
	$(GO) build ./...

# The second line vets the packages with an amd64 assembly body as another
# architecture sees them, so their !amd64 stubs cannot rot (needs no
# network: vet type-checks from source).
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/cpufeat/ ./internal/sparse/ ./internal/la/

# Fails when gofmt would rewrite a tracked .go file, and lists them.
fmt-check:
	@out=$$(git ls-files '*.go' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt would rewrite:"; echo "$$out"; exit 1; fi

# staticcheck is optional tooling: run it when present, skip without
# failing when the host doesn't have it installed.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# The host-staged reduce protocol has one definition: gpu.Context's
# Launch/Gather/Broadcast/AllReduce. Fails on a []gpu.Work or a RunAll
# above internal/gpu (dist's MPK and Distribute excepted; see the script),
# on a go statement, sync.WaitGroup or runtime.GOMAXPROCS in la,
# ortho, dist or core: gpu.Context alone owns device concurrency, and on a
# wall-time read (time.Now, Sleep, AfterFunc, ...) under internal/ outside
# internal/clock: the serving stack reads the clock.Clock it is given.
protocol-lint:
	@sh scripts/protocol_lint.sh

# The reachability gate, TestUnreached in unreached_test.go: fails on a
# top-level declaration under internal/ that nothing reaches from a main,
# the cagmres API or a named test oracle. `go test ./...` runs it too.
unreached:
	$(GO) test -count=1 -run '^TestUnreached$$' .

test:
	$(GO) test -shuffle=on ./...

# The knob inventory: every cmd/* binary's -h output against
# scripts/flags.golden (`sh scripts/cli_check.sh -update` rewrites it),
# then each front end refuses its out-of-range counts without a panic.
cli-check:
	@GO="$(GO)" sh scripts/cli_check.sh

race:
	$(GO) test -race ./internal/gpu/... ./internal/la/... ./internal/ortho/... ./internal/obs/... \
		./internal/sched/... ./internal/server/... ./internal/profile/... ./internal/dist/... \
		./internal/cluster/... ./cmd/loadgen/...
	$(GO) test -race ./internal/bench/ -run 'TestFigServe'
	$(GO) test -race ./internal/core/ -run 'TestOnContextSharesPlanNotRHS|DeviceLoss|LastDeviceDies|TransferExhaustion|TransferRetries|Canceled|RitzValuesReturnsFault|PoisonedWorkspace|ResultSurvivesNextSolve'

# Regenerate every golden file after an intentional change: gpu's ledger
# paths and Chrome trace, obs's job trace, dist's MPK window, core's
# fences (solver stream, solver ledger, one-distribution ledger),
# cluster's wire probes and the figure CSVs. flags.golden has its own
# rewrite (`sh scripts/cli_check.sh -update`).
golden:
	$(GO) test ./internal/gpu/ -run Golden -update -count=1
	$(GO) test ./internal/obs/ -run JobTraceChromeGolden -update -count=1
	$(GO) test ./internal/dist/ -run MPKWindowGolden -update -count=1
	$(GO) test ./internal/core/ -run Fence -update -count=1
	$(GO) test ./internal/cluster/ -run WireProbes -update -count=1
	$(GO) test ./internal/bench/ -run FiguresGolden -update -count=1

# End-to-end observability smoke test: solve a small generated problem
# with every artifact enabled, then validate the Prometheus exposition,
# the telemetry stream (monotone clock, trailing done record) and the
# Chrome trace with cmd/obslint.
SMOKEDIR := $(or $(TMPDIR),/tmp)/cagmres-smoke
metrics-smoke:
	mkdir -p $(SMOKEDIR)
	$(GO) run ./cmd/cagmres -matrix laplace3d -scale 0.001 -solver ca -s 5 -m 20 -tol 1e-6 \
		-telemetry $(SMOKEDIR)/out.jsonl -metrics $(SMOKEDIR)/out.prom \
		-traceout $(SMOKEDIR)/out.trace.json > $(SMOKEDIR)/solve.log
	$(GO) run ./cmd/obslint -prom $(SMOKEDIR)/out.prom -jsonl $(SMOKEDIR)/out.jsonl \
		-trace $(SMOKEDIR)/out.trace.json

# Serving smoke test: daemon + load generator + metrics lint + drain.
serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh

# Chaos smoke test: a chaos-armed daemon under load; fault/retry metric
# families required, clean drain.
chaos-smoke:
	GO="$(GO)" sh scripts/chaos_smoke.sh

# Tracing/SLO smoke test: traced load through the daemon, span-stream
# lint, stitched Chrome trace, /slo report, slo_*/trace_* families.
trace-smoke:
	GO="$(GO)" sh scripts/trace_smoke.sh

# Cluster smoke test: router + 3 cagmresd processes, cluster loadgen,
# kill a node mid-run (healthz degrades, solves re-route to survivors),
# revive (healthz recovers), graceful drain.
cluster-smoke:
	GO="$(GO)" sh scripts/cluster_smoke.sh

# Overload-containment smoke test: deadline propagation, SLO-driven
# brownout, deadline-infeasibility rejection, resilience metric
# families.
overload-smoke:
	GO="$(GO)" sh scripts/overload_smoke.sh

# Mixed-precision smoke test: daemon default/override semantics of the
# precision field over real HTTP, bit-identical mixed replay, and the
# solver_precision_* metric families.
precision-smoke:
	GO="$(GO)" sh scripts/precision_smoke.sh

# Short-budget fuzz pass over the hostile-input surfaces: the
# MatrixMarket body of POST /solve, the machine-profile JSON decoder,
# the router's backend-response decoder, the Solve-Control header
# parser, and the precision field of the solve body — plus the in-place
# row sort every permuted or relabeled matrix goes through, the fused
# device-format builder that uses it, the device SpMV's vector body
# against its Go loop, and the Gram tile against Dot. The committed
# corpora replay first, so regressions fail fast even when the random
# budget finds nothing new.
fuzz-smoke:
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzMatrixMarketSpec -fuzztime 5s
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzParseSolveControl -fuzztime 5s
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzPrecisionField -fuzztime 5s
	$(GO) test ./internal/profile/ -run '^$$' -fuzz FuzzDecode -fuzztime 5s
	$(GO) test ./internal/cluster/ -run '^$$' -fuzz FuzzRouterDecode -fuzztime 5s
	$(GO) test ./internal/sparse/ -run '^$$' -fuzz FuzzSortRow -fuzztime 5s
	$(GO) test ./internal/sparse/ -run '^$$' -fuzz FuzzSELLOfRows -fuzztime 5s
	$(GO) test ./internal/sparse/ -run '^$$' -fuzz FuzzMulVecPrefixMatchesScalar -fuzztime 5s
	$(GO) test ./internal/la/ -run '^$$' -fuzz FuzzGramTileMatchesDot -fuzztime 5s

# Coverage floor for the machine-profile package: the conformance suite
# is the fence the profile refactor landed behind, so its coverage must
# not rot.
PROFILE_COVER_FLOOR := 90.0
cover-profile:
	@out=$$($(GO) test -cover ./internal/profile/ | tail -1); \
	echo "$$out"; \
	echo "$$out" | awk -v floor=$(PROFILE_COVER_FLOOR) '{ for (i = 1; i <= NF; i++) if ($$i ~ /%$$/) { sub(/%/, "", $$i); if ($$i + 0 < floor + 0) { printf "internal/profile coverage %s%% below floor %s%%\n", $$i, floor; exit 1 } } }'

# The wall-clock benchmark of BENCHMARK.json, as a suite: every
# workload, BENCH_RUNS seeds each plus one traced run for the per-layer
# metrics. The suite document lands in benchmark/out/suite.json; copy it
# aside to compare a later run against it.
BENCH_RUNS ?= 5
bench:
	$(GO) run ./benchmark -runs $(BENCH_RUNS) -trace 1

bench-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make bench-compare OLD=old/suite.json NEW=new/suite.json"; exit 2; }
	$(GO) run ./benchmark -compare $(OLD) $(NEW)

# The host kernels at the benchmark's shapes (dielFilterV2real@0.004 and
# G3_circuit@0.05, s = 15, 3 devices), one CPU: ns/op, B/op, allocs/op,
# and the device format's padding on the MPK rows; then whole prepared
# solves, CA-GMRES(15,60) with CGS and with CholQR, and GMRES(60), on a
# warm context.
bench-kernels:
	$(GO) test -run '^$$' -bench 'RunAll|Launch$$|MulVecPrefix|GemvT|Gemv$$|GemmTN|Syrk$$|MPKWindow|DistributedSpMV' -benchmem -cpu 1 \
		./internal/gpu/ ./internal/sparse/ ./internal/la/ ./internal/dist/
	$(GO) test -run '^$$' -bench 'KWay|RCM' -benchmem -cpu 1 ./internal/graph/
	$(GO) test -run '^$$' -bench SolveAllocs -benchmem -cpu 1 -benchtime 5x ./internal/core/

# Non-test Go lines per package, benchmark/ excluded.
loc:
	@sh scripts/loc.sh

# Exported identifiers per library package.
surface:
	@GO="$(GO)" sh scripts/surface.sh
