# Convenience targets; everything is plain `go` underneath.

.PHONY: all check build test test-race test-race-sharded vet lint lint-json bench-test bench bench-short bench-compare bench-parallel-gate figures figures-paper fuzz fuzz-short e2e clean

all: check

# The default gate: compile, static checks (go vet plus the repo's own
# dresar-lint analyzers), tests, the repository benchmark's own tests,
# the race detector (the fault-injection and watchdog paths are
# concurrency-sensitive by construction), and a short run of the
# coverage-guided fuzzers.
check: build vet lint test bench-test test-race fuzz-short

build:
	go build ./...

vet:
	go vet ./...

# The project analyzers (docs/ANALYSIS.md): determinism, protocol-enum
# exhaustiveness, message ownership, counter monotonicity, plus the
# CFG/dataflow checks over the concurrent core (shard isolation, lock
# discipline, cancellation, fsync ordering). Running the tool through
# `go vet -vettool=` gets per-package result caching keyed on the tool
# binary's hash.
lint:
	go build -o bin/dresar-lint ./cmd/dresar-lint
	go vet -vettool=$(CURDIR)/bin/dresar-lint ./...

# Machine-readable findings for the CI artifact: standalone mode (no
# vet cache) always writes lint.json, even when it then exits nonzero
# on findings.
lint-json:
	go build -o bin/dresar-lint ./cmd/dresar-lint
	bin/dresar-lint -json ./... > lint.json

test:
	go test ./...

# The repository benchmark (bench/, run with bench/run.sh) is a module
# of its own, so the root ./... patterns never reach it: vet and test
# it from inside (about 8 s, including a toy-size run of every
# workload).
bench-test:
	cd bench && go vet ./... && go test ./...

# The fast race pass skips the serial-vs-sharded differential suite
# (the single longest race run); test-race-sharded carries it.
test-race:
	go test -race -skip 'TestSerialShardedDifferential|TestShardedPaperScaleSmoke' ./...

# The sharded-engine race gate on its own: the serial-vs-sharded
# differential test drives every workload across 2/4/8 workers under
# the race detector, which is the proof that the quantum-barrier
# protocol has no unsynchronized cross-shard access. Split out from
# the fast path because it is the single longest race run; CI gives it
# a dedicated job, and the same job carries a full race pass over the
# serving layer (the other concurrency-dense package, and the one the
# lockheld/ctxflow analyzers guard statically — the dynamic check
# keeps the static one honest).
test-race-sharded:
	go test -race -run 'Sharded|Differential' ./internal/sim/... ./internal/figures/...
	go test -race ./internal/serve/...

# One iteration of every benchmark, including the figure regenerators,
# the design-space ablations (reduced inputs), the sharded-engine
# scaling points, and the serving layer's submit-to-result latency
# (cached vs uncached). The results are rendered into BENCH_8.json via
# cmd/benchjson after an informational comparison against the committed
# copy; commit the refreshed file when a perf change is intentional.
# BENCH_7.json stays in the tree as the pre-generalized-topology record.
bench:
	go build -o bin/benchjson ./cmd/benchjson
	go test -run '^$$' -bench . -benchmem -benchtime 1x ./... > bench.out
	bin/benchjson -in bench.out -out BENCH_8.json -baseline BENCH_8.json

# Diff two committed benchmark documents directly — no fresh bench run.
# Defaults to the previous record against the current one; override
# with OLD=/NEW=, and set TOLERANCE=pct to turn the report into a gate
# (exit 1 when any |delta| on ns/op, B/op, or allocs/op exceeds it).
OLD ?= BENCH_7.json
NEW ?= BENCH_8.json
TOLERANCE ?= 0
bench-compare:
	go build -o bin/benchjson ./cmd/benchjson
	bin/benchjson compare -tolerance $(TOLERANCE) $(OLD) $(NEW)

# The CI perf gate: the Figure 8 sweep benchmark (the run that pays
# for the shared ScaleSmall sweep, so its ns/op and Msimcycles/sec are
# honest) plus the scheduler hot-path microbenchmark, best of
# $(BENCH_COUNT) runs, compared against the committed BENCH_8.json.
# The sweep repeats in separate processes because the figure
# benchmarks share one sync.Once sweep per process. Informational by
# default; ENFORCE=1 makes a >10% throughput or allocation regression
# fail the build (CI enforces on main pushes and stays informational
# on pull requests).
BENCH_COUNT ?= 3
bench-short:
	go build -o bin/benchjson ./cmd/benchjson
	for i in $$(seq $(BENCH_COUNT)); do \
		go test -run '^$$' -bench 'Fig8' -benchmem -benchtime 1x . || exit 1; \
	done > bench_short.out
	go test -run '^$$' -bench EngineScheduleRun -benchmem -count $(BENCH_COUNT) ./internal/sim >> bench_short.out
	bin/benchjson -in bench_short.out -out bench_short.json -baseline BENCH_8.json $(if $(ENFORCE),-enforce)

# The parallel-speedup gate (scripts/benchgate.sh): BenchmarkShardedFFT
# at 8 workers must beat 1 worker, else the sharded engine's
# coordination has regressed into pure overhead. Skips (exit 0, with a
# message) on hosts with fewer than 8 CPUs, where the 8-worker run
# would time-slice and measure the scheduler instead of the protocol.
bench-parallel-gate:
	sh scripts/benchgate.sh

# The paper's result figures at reduced scale (fast) and full scale.
figures:
	go run ./cmd/figures

figures-paper:
	go run ./cmd/figures -scale paper -csv results/paper | tee results/figures_paper.txt

# End-to-end smoke of the serving layer: race-built dresar-served
# driven by dresar-load over real HTTP — cold run, byte-identical
# cache hits, mid-run cancellation, SIGTERM drain — then the crash
# harness: kill -9 mid-run, journal-tail corruption, restart-resume
# with exactly-once verification, and a multi-tenant soak against a
# byte-bounded cache.
e2e:
	sh scripts/e2e.sh

# Extended randomized protocol validation.
fuzz:
	DRESAR_FUZZ_SEEDS=2000 go test ./internal/core -run TestFuzzProtocol -timeout 30m

# Short coverage-guided fuzzing of the fault-recovery surfaces: routing
# under arbitrary link/switch deaths, flit reassembly under arbitrary
# corruption patterns, and the job-journal decoder under torn /
# bit-flipped / duplicated segment bytes. Offline and deterministic
# enough for the default gate; crashes land in testdata/fuzz/ as usual.
fuzz-short:
	go test -run '^$$' -fuzz FuzzRoute -fuzztime 10s ./internal/xbar
	go test -run '^$$' -fuzz FuzzFlitReassembly -fuzztime 10s ./internal/flit
	go test -run '^$$' -fuzz FuzzJournalReplay -fuzztime 10s ./internal/serve

clean:
	go clean ./...
