# Convenience targets; everything is plain `go` underneath.

.PHONY: all check build fmt test test-race vet lint lint-json bench-test bench-smoke figures-repeat bench figures figures-paper fuzz fuzz-short e2e clean

all: check

# The default gate: compile, formatting, static checks (go vet plus
# the repo's own dresar-lint analyzers), tests, the repository
# benchmark's own tests, one iteration of every package benchmark,
# repeat runs of Figure 2 and of Figure 8's trace-driven cells that
# must reproduce their output byte for byte,
# the race detector (the fault-injection and watchdog paths are
# concurrency-sensitive by construction), and a short run of the
# coverage-guided fuzzers.
check: build fmt vet lint test bench-test bench-smoke figures-repeat test-race fuzz-short

build:
	go build ./...

# Fails when gofmt would change any tracked Go file. Analyzer fixtures
# under testdata/ are exempt: their layout is part of what they test.
fmt:
	@files=$$(git ls-files '*.go' | grep -v /testdata/) || exit 1; \
	out=$$(gofmt -l $$files) || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

# The project analyzers (docs/ANALYSIS.md): determinism, protocol-enum
# exhaustiveness, message ownership, counter monotonicity, plus the
# CFG/dataflow checks over the serving layer (lock discipline,
# cancellation, fsync ordering). Running the tool through
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

# One iteration of every benchmark under internal/ (about 8 s on 2
# vCPUs): a benchmark that reaches into a data layout breaks when the
# layout changes, and nothing else runs the package benchmarks.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./internal/...

# Figure 2 twice from one build, text and CSV compared byte for byte
# (about 2 s), then Figure 8 on the ten TPC-C and TPC-D cells the same
# way (about 3.5 s a run): those cells run on the sweep's worker pool,
# each reading its trace ahead on a second goroutine. A figure is a
# pure function of the simulated machine, so any difference is
# nondeterminism in the simulator or the figure code (for example, map
# iteration order reaching an output).
figures-repeat:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	go build -o "$$d/figures" ./cmd/figures && \
	"$$d/figures" -fig 2 -csv "$$d/a" > "$$d/a.txt" && \
	"$$d/figures" -fig 2 -csv "$$d/b" > "$$d/b.txt" && \
	cmp "$$d/a.txt" "$$d/b.txt" && cmp "$$d/a_fig2.csv" "$$d/b_fig2.csv" && \
	"$$d/figures" -fig 8 -apps tpcc,tpcd -csv "$$d/c" > "$$d/c.txt" && \
	"$$d/figures" -fig 8 -apps tpcc,tpcd -csv "$$d/d" > "$$d/d.txt" && \
	cmp "$$d/c.txt" "$$d/d.txt" && cmp "$$d/c_sweep.csv" "$$d/d_sweep.csv" && \
	echo "figures-repeat: Figure 2 and Figure 8 (TPC cells) text and CSV identical across two runs"

# One race pass over everything, the serving layer (the package the
# lockheld/ctxflow analyzers guard statically) and the figure sweep's
# worker pool included.
test-race:
	go test -race ./...

# The perf gate (scripts/perfgate.sh), about 15 minutes: every
# workload of the repository benchmark (bench/) run at PARENT and in
# this checkout in alternating pairs and judged by `bench/run.sh
# compare`; then one traced run per workload and side, whose
# figures_digest and count.* differences it prints, and the live-heap
# ceiling on this checkout's bigfft (256 nodes under 16x 64 nodes, and
# 1024 nodes under 16x 256 nodes).
# The script exits 1 on compare's verdict alone and 2 on any other
# failure; CI calls it directly to tell the two apart.
bench:
	bash scripts/perfgate.sh $(PARENT)

# The paper's result figures at reduced scale (fast) and full scale.
# figures-paper writes the archive in results/: every paper figure, then
# extension E1 (-fig 12), about 60 s on 2 vCPUs. CI's figures-archive
# job runs it and fails if `git diff --exit-code results/` finds the
# committed archive differs from what the code produces.
figures:
	go run ./cmd/figures

figures-paper:
	go run ./cmd/figures -scale paper -csv results/paper | tee results/figures_paper.txt
	go run ./cmd/figures -fig 12 -scale paper | tee -a results/figures_paper.txt

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
# under arbitrary link/switch deaths, the job-journal decoder under
# torn / bit-flipped / duplicated segment bytes, and the home
# directories' duplicate filter against its reference model under
# arbitrary completion and lookup sequences. Offline and deterministic
# enough for the default gate; crashes land in testdata/fuzz/ as usual.
fuzz-short:
	go test -run '^$$' -fuzz FuzzRoute -fuzztime 10s ./internal/xbar
	go test -run '^$$' -fuzz FuzzJournalReplay -fuzztime 10s ./internal/serve
	go test -run '^$$' -fuzz FuzzDuplicateFilter -fuzztime 10s ./internal/dirctl

clean:
	go clean ./...
