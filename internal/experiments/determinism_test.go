package experiments

import (
	"bytes"
	"context"
	"testing"

	"didt/internal/sim"
	"didt/internal/telemetry"
)

// tinyConfig keeps the determinism comparison fast enough to run under
// -race on a single core while still exercising multi-item sweeps.
func tinyConfig() Config {
	return Config{
		Cycles:     30_000,
		Warmup:     10_000,
		Iterations: 300,
		StressIter: 250,
		Benchmarks: []string{"swim", "gcc"},
	}
}

func resetAllCaches() { sim.ResetCaches() }

// TestEveryCacheResettable: every cache with a capacity tunable is also in
// the reset registry, so resetAllCaches — and every benchmark's "cold"
// iteration — really starts cold.
func TestEveryCacheResettable(t *testing.T) {
	stats := sim.AllCacheStats()
	for _, name := range sim.CacheCapacityNames() {
		if _, ok := stats[name]; !ok {
			t.Errorf("cache %q has a capacity tunable but no reset registration", name)
		}
	}
	if len(stats) < 8 {
		t.Errorf("only %d caches registered for reset", len(stats))
	}
}

// TestParallelOutputIdentical is the correctness contract of the sweep
// engine: rendered experiment output must be byte-identical regardless of
// the worker count. It covers representatives of every sweep shape —
// a benchmark×parameter grid (table2), a delay-major grid (fig14), a
// mechanism-major grid (stressmark-actuation) and plain list sweeps
// (ablation-window, asymmetric).
func TestParallelOutputIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism comparison is slow")
	}
	ids := []string{"table2", "fig14", "stressmark-actuation", "ablation-window", "asymmetric"}
	reg := Registry()

	render := func(parallel int) []byte {
		resetAllCaches()
		cfg := tinyConfig()
		cfg.Parallel = parallel
		var buf bytes.Buffer
		for _, id := range ids {
			if err := reg[id](cfg, &buf); err != nil {
				t.Fatalf("parallel=%d %s: %v", parallel, id, err)
			}
		}
		return buf.Bytes()
	}

	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		line := 1
		for i := 0; i < len(serial) && i < len(parallel); i++ {
			if serial[i] != parallel[i] {
				t.Fatalf("output diverges at byte %d (line %d): serial %q vs parallel %q",
					i, line, excerpt(serial, i), excerpt(parallel, i))
			}
			if serial[i] == '\n' {
				line++
			}
		}
		t.Fatalf("output lengths differ: serial %d bytes, parallel %d bytes", len(serial), len(parallel))
	}
}

// TestParallelOutputIdenticalWithTelemetry extends the determinism
// contract to observability: with a live tracer attached, both the
// rendered output AND the serialized trace must be byte-identical at any
// worker count (Streams() canonical ordering is what makes the trace
// independent of completion order).
func TestParallelOutputIdenticalWithTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism comparison is slow")
	}
	ids := []string{"table2", "fig11", "stressmark-actuation"}
	reg := Registry()

	render := func(parallel int) (output, trace []byte) {
		resetAllCaches()
		cfg := tinyConfig()
		cfg.Parallel = parallel
		tracer := telemetry.NewTracer(1 << 12)
		cfg.Telemetry = tracer
		var buf bytes.Buffer
		for _, id := range ids {
			if err := reg[id](cfg, &buf); err != nil {
				t.Fatalf("parallel=%d %s: %v", parallel, id, err)
			}
		}
		var tb bytes.Buffer
		if err := telemetry.WriteChromeTrace(&tb, tracer, 0); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), tb.Bytes()
	}

	serialOut, serialTrace := render(1)
	parallelOut, parallelTrace := render(8)
	if !bytes.Equal(serialOut, parallelOut) {
		t.Fatal("rendered output differs with telemetry attached")
	}
	if len(serialTrace) == 0 {
		t.Fatal("tracer recorded nothing")
	}
	if !bytes.Equal(serialTrace, parallelTrace) {
		for i := 0; i < len(serialTrace) && i < len(parallelTrace); i++ {
			if serialTrace[i] != parallelTrace[i] {
				t.Fatalf("trace diverges at byte %d: serial %q vs parallel %q",
					i, excerpt(serialTrace, i), excerpt(parallelTrace, i))
			}
		}
		t.Fatalf("trace lengths differ: serial %d bytes, parallel %d bytes",
			len(serialTrace), len(parallelTrace))
	}
}

// TestParallelOutputIdenticalWithSpans extends the determinism contract
// to request tracing: with a span tracer in the request context — per-job
// spans in sim.Map, cache-decision spans in memoized — rendered output
// must be byte-identical to a run with spans off, at -parallel 1 and 4.
// This is the acceptance proof that tracing observes and never perturbs.
func TestParallelOutputIdenticalWithSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism comparison is slow")
	}
	ids := []string{"table2", "fig14", "stressmark-actuation"}
	reg := Registry()

	render := func(parallel int, spans bool) ([]byte, *telemetry.Tracer) {
		resetAllCaches()
		cfg := tinyConfig()
		cfg.Parallel = parallel
		tracer := telemetry.NewTracer(0)
		tracer.SetEnabled(spans)
		ctx := telemetry.ContextWithTracer(context.Background(), tracer)
		ctx, root := tracer.Start(ctx, "sweep")
		cfg.Ctx = ctx
		var buf bytes.Buffer
		for _, id := range ids {
			if err := reg[id](cfg, &buf); err != nil {
				t.Fatalf("parallel=%d spans=%v %s: %v", parallel, spans, id, err)
			}
		}
		if root.Enabled() {
			root.End()
		}
		return buf.Bytes(), tracer
	}

	baseline, _ := render(1, false)
	for _, parallel := range []int{1, 4} {
		got, tracer := render(parallel, true)
		if !bytes.Equal(baseline, got) {
			t.Fatalf("output with spans on at parallel=%d differs from spans-off baseline", parallel)
		}
		spans := tracer.Spans()
		if len(spans) == 0 {
			t.Fatalf("parallel=%d: tracer recorded no spans", parallel)
		}
		var jobs, memos int
		for _, r := range spans {
			switch r.Name {
			case "sim.job":
				jobs++
			case "experiments.memo":
				memos++
			}
		}
		if jobs == 0 || memos == 0 {
			t.Errorf("parallel=%d: expected sim.job and experiments.memo spans, got %d/%d",
				parallel, jobs, memos)
		}
	}
}

func excerpt(b []byte, at int) string {
	lo, hi := at-30, at+30
	if lo < 0 {
		lo = 0
	}
	if hi > len(b) {
		hi = len(b)
	}
	return string(b[lo:hi])
}
