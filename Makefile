# MobiGATE build targets. Everything is stdlib-only Go.

GO ?= go

.PHONY: all build test race bench bench-baseline bench-compare bench-smoke fault-smoke obs-smoke parallel-smoke adapt-smoke batch-smoke sessions-smoke health-smoke fusion-smoke stress gatebench-smoke docs-check vet fmt check examples experiments clean

all: build test

build:
	$(GO) build ./...

# The default test flow vets first: go vet failures are bugs here, not style.
test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full pre-merge gate: build, vet, tests, the race detector, a quick
# hot-path benchmark smoke (catches gross regressions without a full run),
# the fault-injection survival scenario, the end-to-end span smoke, the
# parallel-execution smoke, the adaptation-autopilot smoke, the
# batched-handoff smoke, the multi-session scale smoke, the health-model
# smoke, the chain-fusion smoke, the repeated runtime tests on one and two
# cores, the gatebench module's tests plus one smoke pass, and the
# documentation linter.
check: build test race bench-smoke fault-smoke obs-smoke parallel-smoke adapt-smoke batch-smoke sessions-smoke health-smoke fusion-smoke stress gatebench-smoke docs-check

bench:
	$(GO) test -bench=. -benchmem ./...

# The gated benchmarks: forward-path queue cost (single and batched),
# Figure 7-2 streamlet overhead, both Figure 7-3 buffer-management modes,
# the span-tracing overhead pair (off = production hot path, on =
# diagnosis), the per-service transform costs, the parallel fan-out chain,
# the transcode cache, the batched chain sweep, the vectored encode, the
# session layer (connect/disconnect churn + post/release hot path), and the
# sampled-session SLO observation path, and the fused-vs-unfused stateless
# chain pair.
GATED_BENCH = 'QueuePostFetch|Fig72StreamletOverhead|Fig73Pass|SpanOverhead|ServiceStreamlets|ParallelChain|TranscodeCache|BatchChain|MIMEWriteToV|SessionChurn|SessionSLOSample|FusedChain'
BENCH_FILE  = BENCH_PR2.json
# Hot paths that must stay allocation-free even on their first benchmarked
# run (no baseline entry needed): the batched queue ops, both encode
# paths, the session admit/post/release hot path, the same path on a
# sampled session feeding per-session SLO quantiles, and the fused-segment
# recirculation loop.
ZEROALLOC_BENCH = 'QueuePostFetchBatch|MIMEWriteToV|SessionChurn/post-release|SessionSLOSample|FusedChain/steady-state'

# Record the committed baseline the regression gate compares against.
# -count=5 gives benchdiff repeated runs: -save keeps the median (typical
# cost), compare keeps the minimum — see cmd/benchdiff; this is what makes
# the 25% gate usable on busy single-core machines.
bench-baseline:
	$(GO) test -run '^$$' -bench $(GATED_BENCH) -benchmem -count=5 . | $(GO) run ./cmd/benchdiff -save $(BENCH_FILE)

# Re-run the gated benchmarks and fail on ns/op regressions, fresh
# allocations on benchmarks the baseline records as allocation-free, or any
# allocation at all on the $(ZEROALLOC_BENCH) hot paths.
bench-compare:
	$(GO) test -run '^$$' -bench $(GATED_BENCH) -benchmem -count=5 . | $(GO) run ./cmd/benchdiff -baseline $(BENCH_FILE) -zeroalloc $(ZEROALLOC_BENCH)

bench-smoke:
	$(GO) test -run '^$$' -bench QueuePostFetch -benchtime 100x -benchmem .

# Fault-injection survival: a live session must absorb injected panics, a
# stall, and a link blackout with zero message loss (exits nonzero if not).
fault-smoke:
	$(GO) run ./cmd/mobibench -exp faults

# Parallel-execution smoke: workers fan-out must deliver every message in
# FIFO order at every width, keep the resequencer's parked depth within its
# workers-1 bound, speed up >= 2x at 4 workers when >= 4 cores are
# available, and the transcode cache's warm pass must run zero transforms
# (exits nonzero if not).
parallel-smoke:
	$(GO) run ./cmd/mobibench -exp parallel

# Adaptation-autopilot smoke: the when-policy engine must strictly beat
# both static compositions on goodput with zero message loss, fire exactly
# once per bandwidth-threshold crossing, and emit an ADAPTATION event, an
# adapt_actions_total increment, and a flight-recorder entry per firing
# (exits nonzero if not).
adapt-smoke:
	$(GO) run ./cmd/mobibench -exp adapt

# Batched-handoff smoke: the same redirector chain swept across handoff
# batch sizes {1, 8, 32, 64} must deliver every message sent, in FIFO
# order, at every point (exits nonzero if not).
batch-smoke:
	$(GO) run ./cmd/mobibench -exp batch

# Multi-session scale smoke: a 10k-session shared-plane table must survive
# traffic, churn/handoff rounds, and an admission overload with exact
# message conservation, bounded per-session heap growth, and every
# past-capacity connect shed and counted (exits nonzero if not). The full
# 100k-session run is `mobibench -exp sessions` with the default -sessions.
sessions-smoke:
	$(GO) run ./cmd/mobibench -exp sessions -sessions 10000

# Health-model smoke: overload a tiny shared plane until load shedding
# degrades /healthz to 503, require the MCL when-policy on health_degraded
# to fire, then drain and require recovery to 200 with both edges in the
# flight recorder and on the event plane (exits nonzero if not).
health-smoke:
	$(GO) run ./cmd/mobibench -exp health

# Chain-fusion smoke: a stateless chain run fused and unfused must deliver
# byte-identical output with exact conservation and zero reorders, the
# fused run must be faster, and a mid-run Insert must de-fuse the segment,
# apply, and re-fuse with zero loss, leaving defuse/fuse flight-recorder
# entries (exits nonzero if not).
fusion-smoke:
	$(GO) run ./cmd/mobibench -exp fusion

# Concurrency repeat: the runtime and front-end packages ten times over at
# one and at two cores, where a one-off green run hides ordering races.
stress:
	$(GO) test -count=10 -cpu 1,2 ./internal/queue ./internal/streamlet ./internal/stream ./internal/server ./internal/session

# The benchmark module (bench/, its own go.mod): its tests, then one quick
# gatebench pass on control-churn, the workload that exercises set-up,
# reconfiguration and back-to-back sessions as well as the data path.
gatebench-smoke:
	$(GO) test -C bench ./...
	$(GO) run -C bench ./gatebench -workload control-churn -smoke

# Documentation linter: every docs/*.md page must be linked from README.md,
# every relative markdown link must resolve, and fenced MCL / CLI examples
# must reference real grammar keywords, policy signals, and command flags
# (exits nonzero if not).
docs-check:
	$(GO) run ./cmd/docscheck

# End-to-end observability smoke: run the hops breakdown with span tracing
# on and require at least one message's reconstructed trace tree to cover
# the server chain, the link transfer, and a client peer streamlet, with
# per-hop durations summing to the measured response time (±5%), plus a
# non-empty flight-recorder journal (exits nonzero if not).
obs-smoke:
	$(GO) run ./cmd/mobibench -exp hops -spans

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# Smoke-run every example program.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/distillation
	$(GO) run ./examples/analysis
	$(GO) run ./examples/webaccel
	$(GO) run ./examples/handoff
	$(GO) run ./examples/recursive

# Regenerate every figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/mobibench -exp all

clean:
	$(GO) clean ./...
