GO ?= go
FUZZTIME ?= 5s
# Benchmark pinning: single-iteration numbers are noise, so bench always
# runs a fixed iteration count per benchmark and repeats the whole set.
# Override BENCHTIME/BENCHCOUNT for longer local sessions.
BENCHTIME ?= 3x
BENCHCOUNT ?= 2
BENCHOUT ?= BENCH_pr9.json
SERVEBENCH ?= BENCH_serve.json

.PHONY: build test race short bench bench-regress examples vet lint check fuzz serve-smoke distributed-smoke load-smoke

build:
	$(GO) build ./...

test: fuzz
	$(GO) test ./...

# fuzz smoke: run each hostile-input fuzzer briefly beyond its checked-in
# seed corpus (go test accepts one -fuzz target per invocation, hence two
# runs). FUZZTIME=2m makes it a real session.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/data
	$(GO) test -run='^$$' -fuzz='^FuzzReadStore$$' -fuzztime=$(FUZZTIME) ./internal/stats

# serve-smoke drives the statistics daemon end to end: run -save-stats,
# observe upload, optimize solve + cache hit, metrics, SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh

# distributed-smoke runs a coordinator against two real worker processes,
# SIGKILLs one mid-run, and requires exit 0 with stdout byte-identical to
# the single-process run.
distributed-smoke:
	./scripts/distributed_smoke.sh

# load-smoke drives an under-provisioned daemon (1 solve slot, no queue)
# with cmd/loadgen: zero 5xx, the 429 shed path must fire, clean drain.
load-smoke:
	./scripts/load_smoke.sh

# The parallel engine paths are the main race surface; this is the gate
# CI runs in addition to the plain test job. The suite's cross-interpreter
# matrix (3 configurations × 30 workflows, twice) outgrows go test's
# default 10m package budget under the race detector.
race:
	$(GO) test -race -timeout 40m ./...

short:
	$(GO) test -short ./...

# bench runs every benchmark with allocation stats at a pinned iteration
# count ($(BENCHTIME)) and repetition count ($(BENCHCOUNT)), then records
# the machine-readable results (ns/op, B/op, allocs/op per benchmark) in
# $(BENCHOUT) via cmd/benchjson; the text output still streams through.
# benchjson rejects single-iteration lines and folds the -count repetitions
# into one entry per benchmark (best ns/bytes/allocs, iterations summed).
bench:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) -run=^$$ . | $(GO) run ./cmd/benchjson -min-iters 2 -out $(BENCHOUT)
	$(GO) run ./cmd/loadgen -spec loadspecs/bench.yaml -out $(SERVEBENCH)

# bench-regress compares the committed benchmark records: allocs/op in
# $(BENCHOUT) must not regress against the BENCH_pr8.json baseline in any
# metrics-off configuration.
bench-regress:
	./scripts/bench_regress.sh BENCH_pr8.json $(BENCHOUT)

# examples smoke-runs every runnable example program; each must exit 0.
examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d >/dev/null; \
	done

vet:
	$(GO) vet ./...

# lint always vets; staticcheck runs only where it is installed (CI
# installs it, minimal dev containers may not have it).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

check: build lint test race
