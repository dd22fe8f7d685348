# Convenience targets for the rtworm reproduction.

GO ?= go

.PHONY: all build test test-race vet lint lint-fix lint-sarif bench bench-json load-smoke explore-smoke mc-smoke reproduce reproduce-check quick-reproduce fuzz cover clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting drift, the standard vet passes, and the repo's own
# analyzers (see docs/LINTING.md). Any of the three failing fails CI.
lint:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/rtwlint ./...

# Apply every suggested fix rtwlint knows (defer cancel() insertion,
# stale-directive deletion); exits non-zero when unfixable findings
# remain. CI runs this and fails if it would produce a diff — fixable
# findings must not be committed.
lint-fix:
	$(GO) run ./cmd/rtwlint -fix ./...

# SARIF 2.1.0 log of the full run, for code-scanning upload. The
# artifact is always written (exit 1 = findings, still a valid log),
# but the exit status is propagated: a crash (exit 2) must fail the
# target instead of silently uploading an empty/partial SARIF.
lint-sarif:
	@status=0; $(GO) run ./cmd/rtwlint -sarif ./... > rtwlint.sarif || status=$$?; \
	if [ "$$status" -ge 2 ]; then echo "rtwlint -sarif failed (exit $$status)"; fi; \
	exit $$status

test:
	$(GO) test ./...

# The full suite under the race detector; the grid worker pool (which
# runs the Cal_U batches) and the simulator are the concurrency-bearing
# packages this protects.
test-race:
	$(GO) test -race ./...

# Regenerate every table and figure as benchmarks (writes nothing).
bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark snapshot: the five paper tables plus the
# core-engine micro-benchmarks, one iteration each with -benchmem,
# converted to JSON at the repo root (committed; see
# docs/PERFORMANCE.md for the tracked numbers and how to compare).
bench-json:
	$(GO) test -run '^$$' -bench '^(BenchmarkTable[1-5]|BenchmarkCalU|BenchmarkCalUDeadline|BenchmarkInflatePeriods|BenchmarkHPSetConstruction|BenchmarkSimulator|BenchmarkEventSim|BenchmarkMCReplications|BenchmarkAdmitIncremental|BenchmarkAdmitFull|BenchmarkDaemonLoad|BenchmarkExploreSweep|BenchmarkLintRepo)$$' \
		-benchtime=1x -benchmem . | $(GO) run ./cmd/benchjson -o BENCH_core.json

# Short deterministic load run against a hermetic in-process daemon:
# a fixed seed and rate, chaos kill/restart in the middle, zero error
# and shed budgets, -check gating the exit code. See docs/LOADTEST.md.
load-smoke:
	$(GO) run ./cmd/rtwormload -ops 300 -rate 1000 -seed 1 -clients 6 \
		-chaos -chaos-down 20ms -slo-errors 0 -slo-shed 0 -check -o /dev/null

# Small deterministic Monte-Carlo study on the fast event engine with
# -check cross-checking every replication against the cycle-accurate
# oracle. See docs/FASTSIM.md.
mc-smoke:
	$(GO) run ./cmd/rtwmc -topology mesh2d-10x10 -streams 12 -plevels 4 \
		-seeds 4 -configs preemptive:2,li:2 -cycles 5000 -warmup 100 \
		-engine event -check

# Tiny deterministic design-space smoke: sweep then synthesise an
# 8-point grid with simulator cross-validation. -check fails the target
# unless some sim-validated configuration admits the whole workload.
# The grid is chosen so the buffer-depth axis matters: the origin mesh
# admits the pool analytically at either depth, but only depth 2
# survives validation. See docs/EXPLORER.md.
explore-smoke:
	$(GO) run ./cmd/rtwexplore sweep -streams 12 -plevels 4 -genseed 1 \
		-topos mesh2d-10x10,ring-4 -vcs 1,4 -buffers 1,2 -policies workload \
		-validate -cycles 3000 -check
	$(GO) run ./cmd/rtwexplore synth -streams 12 -plevels 4 -genseed 1 \
		-topos mesh2d-10x10,ring-4 -vcs 1,4 -buffers 1,2 -policies workload \
		-validate -cycles 3000 -check

# Full paper reproduction into out/ (tables, figures+SVG, sweeps,
# crosscheck, summary).
reproduce:
	$(GO) run ./cmd/reproduce -out out

# Regenerate the full reproduction into a scratch directory and fail
# unless every committed artifact in out/ comes back byte-identical.
reproduce-check:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/reproduce -out "$$tmp" > /dev/null && diff -r "$$tmp" out

quick-reproduce:
	$(GO) run ./cmd/reproduce -out out -quick

fuzz:
	$(GO) test -fuzz=FuzzDiagram -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzDecodeSet -fuzztime=30s ./internal/stream/

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1

clean:
	rm -rf out cover.out
