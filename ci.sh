#!/bin/sh
# CI gate: formatting, static analysis, vet, build, then the full test
# suite under the race detector. The race run covers the parallel sweep
# engine (internal/sim) and the determinism contract
# (internal/experiments TestParallelOutputIdentical).
set -eux

# Formatting gate: gofmt must produce no diffs (testdata fixtures included —
# the analysistest runner parses them with the same toolchain).
test -z "$(gofmt -l .)"

# didtlint: the repo's own go/analysis-style suite (internal/analysis) —
# five intra-package analyzers (determinism, telemetryguard, hotpath,
# locks, directives) plus the whole-program ones (purity, ctxflow,
# goroleak, lockorder). Proves the determinism, telemetry-guard,
# hot-path, lock-discipline, and cancellation invariants the tests below
# only sample. Runs before the test suite so a contract violation fails
# fast with a file:line diagnostic. The run also emits a SARIF 2.1.0
# artifact (didtlint.sarif, uploadable to code-scanning UIs) and enforces
# the committed suppression budget: any drift in //didt:allow counts —
# up OR down — against didtlint.baseline.json fails the gate. After a
# reviewed change to the suppressions, regenerate the budget with
# `go run ./cmd/didtlint -baseline didtlint.baseline.json -write-baseline ./...`.
# (didtlint is standalone because golang.org/x/tools is not vendored; if it
# ever is, these analyzers can also be adapted behind `go vet -vettool`.)
go run ./cmd/didtlint -sarif didtlint.sarif -baseline didtlint.baseline.json ./...

# Span-guard gate, called out explicitly: the packages where an unguarded
# Tracer.Start/Span.End would tax every request and every sweep job. The
# ./... run above already covers them; this line keeps the observability
# contract visible when the lint scope changes.
go run ./cmd/didtlint ./internal/server ./internal/telemetry

go vet ./...
go build ./...

# Spec golden gate: the resolved default run spec is public API — it is
# served by GET /v1/spec/default and every memo key hashes spec sections —
# so any drift from the checked-in golden must be deliberate. Regenerate
# with `go run ./cmd/didtd -print-default-spec > internal/spec/testdata/default_spec.json`
# after an intentional default change.
go run ./cmd/didtd -print-default-spec | diff - internal/spec/testdata/default_spec.json

go test -race ./...

# Determinism with telemetry enabled: rendered output AND serialized
# traces must be byte-identical at any worker count.
go test -race -count=1 -run TestParallelOutputIdenticalWithTelemetry ./internal/experiments

# didtd server smoke test under the race detector: sweep responses
# byte-identical to cmd/experiments output at parallel 1 and 8, graceful
# shutdown drains in-flight work (503 for new requests), admission
# overflow answers 429, and concurrent requests under memo capacity
# pressure never compute an in-flight study twice.
go test -race -count=1 -run 'TestServer' ./internal/server

# Observability smoke test under the race detector: a sweep served over
# SSE (with structured JSON logging and spans live) reconstructs the
# exact bytes of the non-streaming response, error envelopes carry trace
# ids that appear in the access log, and the Prometheus exposition parses.
go test -race -count=1 \
    -run 'TestSweepSSE|TestErrorEnvelope|TestAccessLogAndSpanCorrelation|TestMetricsPrometheusFormat' \
    ./internal/server

# Determinism with spans + structured logs on: experiment bytes identical
# at parallel 1 and 4 whether tracing is enabled or not.
go test -race -count=1 -run TestParallelOutputIdenticalWithSpans ./internal/experiments

# Multi-rail smoke test under the race detector: the rail-graph family's
# rendered bytes identical at parallel 1 and 8, the multi-rail core
# (per-rail sensing, DVS composition) clean under race, and the exactness
# contract of the PDN's modal recursion — Run (modal, exact only near a
# decision edge) equal (==) to a cycle-by-cycle exact StepCycle loop on
# every Result field, single- and multi-rail, at every sensor delay, with
# thresholds pinned on observed voltages, and for controlled runs that
# replay a machine trace until control first acts; the solver's 175-point threshold
# golden and its edge-placement test; the locality study's five-rail
# golden; the controlled-cost studies' golden (every field of the
# baseline-and-grid studies, Table 2, Figure 10 and the rail sweep, bit
# for bit); the machine half's golden (core + power model on every benchmark
# and the stressmark, free-running and under a fixed gating/phantom/flush
# schedule); the dead-cycle skip against the plain per-cycle machine loop
# on those runs, every cycle's activity, current and per-unit power `==`;
# the core's store queue against an age-ordered window walk on every load
# of those runs; and the modal fuzz target's committed corpus.
go test -race -count=1 \
    -run 'TestRailsFamilyParallelDeterminism|TestMultiRail|TestRunMatchesStepwise|TestSpineGolden|TestMachineGolden|TestSkipDeadMatchesStepping|TestStoreQueueMatchesScan|TestLocalityGolden|TestStudiesGolden|TestThresholdsGolden|TestProbeEdgePlacement|FuzzModalMatchesExact' \
    ./internal/experiments ./internal/core ./internal/cpu ./internal/control ./internal/pdn

# Modal fuzzing: random networks and current traces; every modal estimate
# must lie within its error bound of the exact voltage (or the network
# must have declined the modal form).
go test -run NONE -fuzz FuzzModalMatchesExact -fuzztime=10s ./internal/pdn

# Store-entry fuzzing: arbitrary bytes through the entry parser every
# on-disk read takes; it must never panic, a decoded body must hash to its
# decoded digest, and every storable key and body must survive an
# encode/decode round trip.
go test -run NONE -fuzz FuzzDecodeEntry -fuzztime=10s ./internal/store

# Spec-path fuzzing: arbitrary JSON decoded into a run spec, resolved
# (defaults, then Validate) and, when it resolves, built by core.NewSystem;
# neither step may panic. The committed corpus seeds it with the default,
# a sparse and a controlled spec, a three-rail spec under FU and under the
# Section 6 pairing "gate FU/DL1/IL1, fire FU", plus specs that Validate
# must reject: negative unit counts, an unbounded PDN kernel and
# resonant periods too long or too short for the threshold solver.
go test -run NONE -fuzz FuzzSpecNewSystem -fuzztime=10s ./internal/core

# Replay differential fuzzing: a one-rail spec decoded from arbitrary
# bytes (workload, impedance, sensor delay and noise, mechanism, symmetric
# or a Section 6 pairing, flush recovery, seed, budget <= 50k cycles)
# replayed from its open-loop twin's cached machine trace must equal the
# same spec on the stepped path, on every Result field. The committed
# corpus seeds an open-loop run, a controlled run that never acts, two
# that act under symmetric mechanisms and one under each pairing.
go test -run NONE -fuzz FuzzReplayMatchesStepwise -fuzztime=10s ./internal/core

# Request-decoder fuzzing: arbitrary bodies through didtd's simulate,
# sweep and batch decoders (everything a request does before it admits
# work); none may panic, a rejected body is answered 400/413 with the
# error envelope, and an accepted one decodes to validated work. The
# committed corpus holds a valid and an invalid body per endpoint.
go test -run NONE -fuzz FuzzDecodeRequests -fuzztime=10s ./internal/server

# Result-store smoke test under the race detector: concurrent identical
# requests cost exactly one engine run (wire singleflight), a restarted
# server serves the stored bytes with the same ETag and answers
# If-None-Match with 304, /v1/batch deduplicates through the same store,
# and the store itself survives kill-restart, truncation and bit flips.
go test -race -count=1 \
    -run 'TestServerStore|TestServerSweepStoreRoundTrip|TestServerBatch|TestStore|TestEntry' \
    ./internal/server ./internal/store

# Allocation gate: the per-cycle simulation kernels (streaming PDN step,
# its block form on one rail and on the coupled graph, the modal block
# step that every engine run — open and closed loop — takes, the
# eight-lane BatchSimulator that perfbench times, the threshold solver's
# probe cycle loop, and the machine half: the core's StepInto and SkipDead
# and the power model's StepInto and Repeat) must stay allocation-free. A
# heap allocation per call adds garbage-collector work to every simulated
# cycle; the kernels themselves cost ~700 ns/cycle for the exact streaming
# step on the bench host and ~15 ns/cycle for the modal step. The
# benchmarks run under -benchmem and any "N allocs/op" with N > 0 fails.
go test -run NONE \
    -bench 'BenchmarkStep$|BenchmarkStepBlock$|BenchmarkStepModal$|BenchmarkBatchStep$|BenchmarkGraphStep$|BenchmarkGraphStepBlock$|BenchmarkProbeViolations$|BenchmarkStepInto$|BenchmarkSkipDead$|BenchmarkRepeat$' \
    -benchtime 100x -benchmem ./internal/pdn ./internal/control ./internal/cpu ./internal/power | tee /tmp/didt_allocgate.txt
! grep -E ' [1-9][0-9]* allocs/op' /tmp/didt_allocgate.txt

# Perf gate: the telemetry-off hot path (a disabled cycle tracer attached
# to every system) and the spans-off hot path (a disabled span tracer in
# the run context — didtd with -spans=false) must both stay within
# CI_BENCH_TOLERANCE_PCT (default 10%) of the bare serial sweep measured
# in the same process — a ratio, so the gate is insensitive to how fast
# the shared CI host happens to be running. Regenerate the committed
# BENCH_sweep.json (including spans_off_ns_per_op) with
# `go run ./cmd/benchreport` after intentional perf changes.
go run ./cmd/benchreport -check -baseline BENCH_sweep.json \
    -tolerance "${CI_BENCH_TOLERANCE_PCT:-10}"
