GO ?= go

.PHONY: build test race vet fmt lint verify-models fuzz bench bench-scenarios report cover ci

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -shuffle=on -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Repository conventions go vet cannot express: no wall-clock reads in
# simulated-timeline packages, no unguarded obs log calls.
lint:
	$(GO) run ./cmd/pimflow-lint .

# Static verification smoke gate: the graph-IR invariant checker and the
# PIM command-stream linter over every built-in model.
verify-models:
	$(GO) run ./cmd/pimflow -m=verify -n=all

# Short local fuzz passes over the graph JSON loader, the -load grammar,
# the server's load and infer bodies, the fleet's graph-registration
# endpoint and the block TR-* linter (the CI gate runs the seed corpora
# via go test; this explores further).
FUZZ_TIME ?= 20s

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadJSON -fuzztime $(FUZZ_TIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzParseLoads -fuzztime $(FUZZ_TIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzLoadBody -fuzztime $(FUZZ_TIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzInferBody -fuzztime $(FUZZ_TIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzRegisterGraph -fuzztime $(FUZZ_TIME) ./internal/fleet
	$(GO) test -run '^$$' -fuzz FuzzLintBlocks -fuzztime $(FUZZ_TIME) ./internal/verify

# One sample of each Go benchmark: the harness figures plus the engine
# packages' benchmarks. Timed performance is measured by perfbench/ (see
# BENCHMARK.json), with repeats and a noise band.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem . ./internal/pim ./internal/codegen ./internal/verify ./internal/serve ./internal/load ./internal/fleet

# Trace-driven serving scenarios (Poisson / diurnal / bursty) and the
# fleet sweep (the Poisson workload on 1-, 2- and 4-machine fleets),
# replayed deterministically with every schedule certified. Their
# virtual metrics are pinned exactly by TestScenarioGolden.
bench-scenarios:
	$(GO) run ./cmd/pimflow-bench -scenario all,fleet -certify

# Regenerate the paper-evaluation report (must stay byte-identical to the
# committed experiments_report.txt regardless of profile-cache warmth).
report:
	$(GO) run ./cmd/pimflow-experiments -out experiments_report.txt

# Coverage floor on the observability layer: instrumentation that is
# nil-safe by contract is easy to leave silently untested, so the gate
# fails if internal/obs statement coverage drops below the floor.
OBS_COVER_FLOOR ?= 85.0

cover:
	$(GO) test -coverprofile=obs.cover.out ./internal/obs
	@total="$$($(GO) tool cover -func=obs.cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
	rm -f obs.cover.out; \
	echo "internal/obs coverage: $$total% (floor $(OBS_COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(OBS_COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage below floor"; exit 1; }

# The full gate: formatting, static analysis, repo conventions, the test
# suite under the race detector, and the model verification sweep.
ci: fmt vet lint race verify-models
