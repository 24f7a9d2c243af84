# Convenience targets for the APGAS reproduction.

GO ?= go

.PHONY: all build test race contract bench bench-smoke profile-smoke trace dtrace telemetry wire chaos chaos-kill litmus fuzz-short experiments examples clean

all: build test race contract telemetry wire chaos chaos-kill litmus dtrace bench-smoke profile-smoke fuzz-short

# perfbench is a nested module that `./...` skips; vetting it here
# catches x10rt API changes that would break the benchmark build.
build:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The x10rt Transport contract: the conformance (including byte and
# per-link accounting), death and one-sided batteries against every
# transport and decorator stack, under -race.
contract:
	$(GO) test -race ./internal/x10rt/transporttest

bench:
	$(GO) test -bench=. -benchmem ./...

# Performance observatory smoke: emit a tiny single-rep artifact (UTS
# exercises the steal/lifeline critical-path buckets), validate it
# against the BENCH schema, then self-compare — benchdiff must report
# zero regressions by construction, so any failure is a pipeline bug.
# The transport gates then assert the wire-path acceptance targets on
# the small-control-frame microbenchmark over v4 frames: ≥3x msgs/s
# from batching, and ≥3x from a binary payload codec over the same
# shape on the gob fallback. The tracing gate asserts the
# distributed-tracing acceptance target: disabled span-propagation
# hooks cost <2% of a finish message and allocate nothing.
bench-smoke:
	$(GO) run ./cmd/apgas-bench -exp uts -scale tiny -bench-json /tmp/apgas-bench-smoke.json -bench-reps 1
	$(GO) run ./cmd/tracecheck -bench /tmp/apgas-bench-smoke.json
	$(GO) run ./cmd/benchdiff /tmp/apgas-bench-smoke.json /tmp/apgas-bench-smoke.json
	$(GO) test -run 'TestTransportBatchSpeedup|TestCodecSpeedup|TestOneSidedBandwidth|TestTracingDisabledOverhead|TestProfilingDisabledOverhead|TestWireLedgerDisabledOverhead' -count=1 -v ./internal/harness

# Continuous-profiling smoke: run the dense workload with pprof labels
# and enough spin per phase to land real CPU samples, capture a profile,
# and have tracecheck's label-aware summarizer assert that the samples
# partition by (place, pattern, kind) — at least two distinct finish
# patterns and two places must appear, i.e. attribution survives every
# activity boundary, not just the root body.
profile-smoke:
	$(GO) run ./cmd/apgas-bench -exp dense -prof -prof-cpu /tmp/apgas-profile-smoke.pb.gz -dense-burn 30000000
	$(GO) run ./cmd/tracecheck -profile -min-samples 5 -min-labeled 0.8 \
		-min-distinct pattern=2 -min-distinct place=2 /tmp/apgas-profile-smoke.pb.gz

# Record a Chrome trace of a small UTS run and sanity-check the JSON.
trace:
	$(GO) run ./cmd/uts -places 4 -depth 8 -trace /tmp/apgas-uts-trace.json
	$(GO) run ./cmd/tracecheck /tmp/apgas-uts-trace.json

# Distributed tracing end to end: a 4-place FINISH_DENSE run records
# one trace per place, merges them on the HLC-aligned timeline (every
# cross-place message becomes a flow arrow), prints the cross-place
# critical-path attribution, and tracecheck validates the merged file —
# flow begin/end pairing, no backwards arrows, monotone tracks.
dtrace:
	$(GO) run ./cmd/apgas-bench -exp dense -places 4 -trace-dist /tmp/apgas-dtrace
	$(GO) run ./cmd/tracecheck /tmp/apgas-dtrace-merged.json

# Cross-place telemetry smoke: a 4-place run under the Power 775 latency
# model whose aggregated message counts must equal the sum of the four
# per-place transport stats (the binary exits nonzero on mismatch), plus
# a flight-recorder dump validated by tracecheck. Stats and PlaceStats
# are views of one link table, so the check guards the gather and merge
# path, not two copies of the counts. The second run repeats the check
# over the batching wire path with compression enabled: the sum
# equality — wire bytes included — must survive coalescing.
telemetry:
	$(GO) run ./cmd/apgas-bench -exp telemetry -places 4 -netsim -metrics-all \
		-flight-dump /tmp/apgas-flight.jsonl
	$(GO) run ./cmd/tracecheck /tmp/apgas-flight.jsonl
	$(GO) run ./cmd/apgas-bench -exp telemetry -places 4 -batch -compress-min 128

# Wire observatory end to end: a 4-place batched FINISH_DENSE run with
# the cost-attribution ledger enabled writes the /wire-format dump and
# asserts the sum-equality invariant in-process (Σ per-handler payload
# bytes == transport bytes sent, Σ per-link wire bytes == bytes on the
# wire — the binary exits nonzero on mismatch); tracecheck then
# revalidates the serialized dump (row ordering, compression sanity,
# the same sums). The second run repeats the in-process check on the
# telemetry workload with compression enabled.
wire:
	$(GO) run ./cmd/apgas-bench -exp dense -places 4 -batch -wire-dump /tmp/apgas-wire.json
	$(GO) run ./cmd/tracecheck -wire /tmp/apgas-wire.json
	$(GO) run ./cmd/apgas-bench -exp telemetry -places 4 -batch -compress-min 128 -wire

# Deterministic chaos: a short race-enabled seed sweep of every finish
# pattern (plus lifeline GLB) under fault injection, checking the finish
# quiescence, activity conservation, and telemetry sum invariants after
# every run, followed by the exhaustive SPMD credit-order permutations.
# The full 64-seed acceptance sweep is `go test ./internal/chaos -run
# Explore` (without -short); cmd/chaos adds replay of a failing seed.
chaos:
	$(GO) test -race -short -run 'TestExplore|TestReplay' ./internal/chaos
	$(GO) run ./cmd/apgas-bench -exp chaos -chaos-seeds 4

# Resilience acceptance: every chaos workload x 32 seeds with one
# seed-chosen mid-run place death, plain and batched, plus the
# byte-identical kill-replay check, then the same sweep from the CLI
# (which also proves the cmd/chaos -kill path).
chaos-kill:
	$(GO) test -race -run 'TestKillSweep|TestKillReplay' ./internal/chaos
	$(GO) run ./cmd/chaos -kill -seeds 32

# Litmus-style ordering fence: MP/SB/IRIW analogues at the transport
# layer (chan, TCP, batching wires) and at the runtime layer
# (at/async/AtDirect/dense ctl), plus the cross-transport death
# battery. Resilience changes that weaken delivery guarantees fail
# here first.
litmus:
	$(GO) test -race -run 'TestLitmus' ./internal/core
	$(GO) test -race -run 'TestDeath' ./internal/x10rt/transporttest

# 30 seconds of coverage-guided fuzzing per target: the x10rt frame
# reader (single frames, byte round trips, v4 payloads, v4 and v5
# frames), v4 frame stream and type-table handshake, and the tracecheck
# flight-dump, bench-artifact, merged-trace, kill-dump and wire-dump
# validators. -fuzzminimizetime is bounded because the default
# 60s-per-input minimization budget would otherwise consume the entire
# run.
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzFrameRoundTrip -fuzztime 30s -fuzzminimizetime=10x ./internal/x10rt
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 30s -fuzzminimizetime=10x ./internal/x10rt
	$(GO) test -run '^$$' -fuzz FuzzDecodeBatch -fuzztime 30s -fuzzminimizetime=10x ./internal/x10rt
	$(GO) test -run '^$$' -fuzz FuzzBatchFrameRoundTrip -fuzztime 30s -fuzzminimizetime=10x ./internal/x10rt
	$(GO) test -run '^$$' -fuzz FuzzCodecDecode -fuzztime 30s -fuzzminimizetime=10x ./internal/x10rt
	$(GO) test -run '^$$' -fuzz FuzzTypeTableHandshake -fuzztime 30s -fuzzminimizetime=10x ./internal/x10rt
	$(GO) test -run '^$$' -fuzz FuzzCheckFlightDump -fuzztime 30s -fuzzminimizetime=10x ./cmd/tracecheck
	$(GO) test -run '^$$' -fuzz FuzzCheckBench -fuzztime 30s -fuzzminimizetime=10x ./cmd/tracecheck
	$(GO) test -run '^$$' -fuzz FuzzCheckMergedTrace -fuzztime 30s -fuzzminimizetime=10x ./cmd/tracecheck
	$(GO) test -run '^$$' -fuzz FuzzCheckKillDump -fuzztime 30s -fuzzminimizetime=10x ./cmd/tracecheck
	$(GO) test -run '^$$' -fuzz FuzzCheckWireDump -fuzztime 30s -fuzzminimizetime=10x ./cmd/tracecheck

# Regenerate every table and figure at laptop scale.
experiments:
	$(GO) run ./cmd/apgas-bench -exp all -scale small

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/uts
	$(GO) run ./examples/kmeans
	$(GO) run ./examples/ra
	$(GO) run ./examples/finishpatterns
	$(GO) run ./examples/tcpcluster

clean:
	$(GO) clean ./...
