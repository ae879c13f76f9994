# Tier-1 verification and the engine-specific gates. `make ci` is what a
# PR must pass: build, vet, gofmt cleanliness, repo lint, the quick test
# sweep, the race gate, perfbench-check, chaos-smoke and serve-smoke
# (.github/workflows/ci.yml runs this target, then the full kernel race
# check, the one-pass benchmark sweep and bench-ab against the base).

GO ?= go
GOFMT ?= gofmt

.PHONY: all build vet fmt-check lint-go test test-short test-race perfbench-check bench bench-engine bench-ab serve-smoke chaos-test chaos-smoke ci

all: build

# Tier-1: everything compiles.
build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-invariant lint (cmd/repolint): kernel hot paths stay free of fmt
# formatting, wall-clock reads and stray goroutines; probe calls stay
# nil-guarded; fault-injection hooks stay behind `!= nil` guards in every
# layer that carries one (zero overhead when chaos is off); telemetry
# recording calls in kernel files stay nil-guarded the same way.
lint-go:
	$(GO) run ./cmd/repolint ./internal/verilog ./internal/edaserver ./internal/simfarm ./eda ./internal/obs

# Fail when any tracked Go file is not gofmt-clean.
fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Full test sweep (tier-1 verify is `make build test`).
test:
	$(GO) test ./...

# Quick sweep: full-scale experiment/optimization loops are gated behind
# -short and skipped here; finishes in seconds.
test-short:
	$(GO) test -short ./...

# Race-check the concurrent batch-simulation engine, every package whose
# scoring runs on worker pools, the front-door API (its event sinks
# receive from worker goroutines), the simulator kernel (its bound-
# body memo and compiled designs are shared across concurrent runs), the
# cross-level debugger (its cosimulation fan-out runs on the farm), and
# the job service (queue shards, SSE broadcasters and the report store
# all cross goroutines), the lint layer (its memo is shared by every
# screened farm job), and the benchmark suite (its problems are built
# once and shared by every job).
test-race:
	$(GO) test -race -short ./internal/benchset ./eda ./eda/client ./internal/edaserver ./internal/faultinject ./internal/obs ./internal/verilog ./internal/simfarm ./internal/vlint ./internal/lintrepair ./internal/vrank ./internal/autochip ./internal/crosscheck ./internal/xdebug ./internal/gp ./internal/slt ./internal/hls

# perfbench/ is its own Go module (it imports eda, eda/client and
# edaserver through a replace directive), so the root `go build ./...`
# never compiles it. Vet and test it here so an API change that breaks
# the service benchmark fails CI.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Regenerate every paper artifact at quick scale.
bench:
	$(GO) test -run 'xxx' -bench . -benchtime 1x .

# The compile-once/run-many engine comparison (see EXPERIMENTS.md).
bench-engine:
	$(GO) test -run 'xxx' -bench 'BenchmarkVRank' -benchtime 5x .

# Kernel regression gate, A against B on one host: unpack BASE (any git
# rev; default HEAD, i.e. the working tree against its last commit) with
# git archive, build the root test binary from both trees, and run one
# BenchmarkVRankBatch pass from each for 5 rounds, alternating which
# side goes first. Prints every round, each side's median and min-max,
# host, nproc and the benchmark's GOMAXPROCS; fails when the change's
# median exceeds 2x the base median. Writes nothing into the repo. The
# service's performance record is perfbench/ (BENCHMARK.json).
BASE ?= HEAD
bench-ab:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; \
	git archive "$(BASE)" | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && $(GO) test -c -o "$$tmp/base.test" .); \
	$(GO) test -c -o "$$tmp/change.test" .; \
	for r in 1 2 3 4 5; do \
	  if [ $$((r % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi; \
	  for side in $$order; do \
	    if [ $$side = base ]; then dir="$$tmp/base"; else dir=.; fi; \
	    out=$$(cd "$$dir" && "$$tmp/$$side.test" -test.run '^$$' \
	      -test.bench 'BenchmarkVRankBatch$$' -test.benchtime 1x \
	      | awk '/^BenchmarkVRankBatch/ { n = split($$1, a, "-"); print (n > 1 ? a[n] : 1), int($$3) }'); \
	    [ -n "$$out" ] || { echo "bench-ab: $$side produced no BenchmarkVRankBatch result" >&2; exit 1; }; \
	    procs=$${out% *}; echo "$${out#* }" >> "$$tmp/$$side.ns"; \
	    echo "bench-ab: round $$r $$side $${out#* } ns/op"; \
	  done; \
	done; \
	echo "bench-ab: host $$(uname -n), nproc $$(nproc), GOMAXPROCS $$procs, base $(BASE)"; \
	for side in base change; do \
	  sort -n "$$tmp/$$side.ns" > "$$tmp/$$side.sorted"; \
	  echo "bench-ab: $$side median $$(sed -n 3p "$$tmp/$$side.sorted") ns/op" \
	    "(min $$(head -n 1 "$$tmp/$$side.sorted"), max $$(tail -n 1 "$$tmp/$$side.sorted"))"; \
	done; \
	base=$$(sed -n 3p "$$tmp/base.sorted"); change=$$(sed -n 3p "$$tmp/change.sorted"); \
	if [ "$$change" -gt "$$((2 * base))" ]; then \
	  echo "bench-ab: regression: change median $$change ns/op exceeds 2x the base median $$base" >&2; exit 1; fi; \
	echo "bench-ab: ok (change median within 2x of base)"

# Service-layer smoke: boot `llm4eda serve`, drive one quick job through
# the typed client (submit, SSE stream, report, cached resubmission,
# metrics), require the xdebug and lint jobs' per-round frames to arrive
# over SSE and the final metrics scrape to show a report-cache hit, a
# job-latency p99 and zero failed jobs (servedemo checks these), then
# SIGTERM and require a clean drained exit within 5 s. The EXIT trap
# SIGKILLs and reaps a server still running on any failure or
# interrupt, so none is left orphaned on the fixed port; override
# SERVE_SMOKE_ADDR when it clashes.
SERVE_SMOKE_ADDR ?= 127.0.0.1:18372
serve-smoke:
	@set -e; \
	tmp=$$(mktemp -d); pid=; \
	trap 'rc=$$?; if [ -n "$$pid" ]; then kill -KILL "$$pid" 2>/dev/null || true; \
	  wait "$$pid" 2>/dev/null || true; fi; rm -rf "$$tmp"; exit $$rc' EXIT; \
	trap 'exit 130' INT; trap 'exit 143' TERM; trap 'exit 129' HUP; \
	$(GO) build -o "$$tmp/llm4eda" ./cmd/llm4eda; \
	$(GO) build -o "$$tmp/servedemo" ./examples/servedemo; \
	"$$tmp/llm4eda" serve -addr $(SERVE_SMOKE_ADDR) > "$$tmp/serve.log" 2>&1 & \
	pid=$$!; \
	if ! "$$tmp/servedemo" -addr http://$(SERVE_SMOKE_ADDR) > "$$tmp/client.log" 2>&1; then \
	  echo "serve-smoke: client run failed; client log:" >&2; \
	  cat "$$tmp/client.log" >&2; echo "server log:" >&2; \
	  cat "$$tmp/serve.log" >&2; exit 1; fi; \
	cat "$$tmp/client.log"; \
	grep -q "xdebug diagnosis events over SSE" "$$tmp/client.log" || { \
	  echo "serve-smoke: SSE stream carried no xdebug diagnosis marker" >&2; \
	  exit 1; }; \
	grep -q "lint screen events over SSE" "$$tmp/client.log" || { \
	  echo "serve-smoke: SSE stream carried no lint screen marker" >&2; \
	  exit 1; }; \
	kill -TERM "$$pid"; \
	n=0; while kill -0 "$$pid" 2>/dev/null; do \
	  if [ $$n -ge 50 ]; then \
	    echo "serve-smoke: server did not drain within 5 s of SIGTERM; killing it. log:" >&2; \
	    cat "$$tmp/serve.log" >&2; exit 1; fi; \
	  n=$$((n + 1)); sleep 0.1; done; \
	if ! wait "$$pid"; then pid=; \
	  echo "serve-smoke: server did not exit cleanly; log:" >&2; \
	  cat "$$tmp/serve.log" >&2; exit 1; fi; \
	pid=; \
	grep -q "drained, bye" "$$tmp/serve.log" || { \
	  echo "serve-smoke: no clean-drain marker in server log:" >&2; \
	  cat "$$tmp/serve.log" >&2; exit 1; }; \
	echo "serve-smoke: ok (submit, stream, cached resubmit, metrics, clean drain)"

# Chaos acceptance: mixed realistic traffic against the seeded fault
# plan (worker/pipeline panics, transient errors, wedged stages, slow
# simulations, SSE disconnects, report-store write failures). Asserts
# every job reaches a terminal state, the resilience counters account
# for the injected faults, cached reports stay byte-consistent, and
# shutdown restores the goroutine baseline.
chaos-test:
	$(GO) test -race -run TestChaosSurvival -v -timeout 300s ./internal/edaserver

# The same storm at reduced scale with a fixed seed — a deterministic
# few-second gate, part of `make ci`.
chaos-smoke:
	$(GO) test -run TestChaosSurvival -short -timeout 120s ./internal/edaserver

ci: build vet fmt-check lint-go test-short test-race perfbench-check chaos-smoke serve-smoke
