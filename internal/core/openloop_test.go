package core

import (
	"testing"

	"didt/internal/telemetry"
	"didt/internal/workload"
)

// TestOpenLoopMatchesStreaming pins the replay contract: an uncontrolled
// run replayed from its machine trace must equal, on every
// Result field, the same run forced onto the exact per-cycle streaming
// path (via an enabled tracer, which never changes results).
func TestOpenLoopMatchesStreaming(t *testing.T) {
	k := knobs{ImpedancePct: 2, MaxCycles: 60000, WarmupCycles: 10000}

	fastSys, err := NewSystem(alternator(300), k.options())
	if err != nil {
		t.Fatal(err)
	}
	if !fastSys.replays() {
		t.Fatal("uncontrolled run did not replay its machine trace")
	}
	fast, err := fastSys.Run()
	if err != nil {
		t.Fatal(err)
	}

	opts := k.options()
	opts.Telemetry = telemetry.NewTracer(1 << 10)
	opts.TelemetryName = "stream"
	slowSys, err := NewSystem(alternator(300), opts)
	if err != nil {
		t.Fatal(err)
	}
	if slowSys.replays() {
		t.Fatal("traced run unexpectedly replayed")
	}
	slow, err := slowSys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d := resultDiff(fast, slow); d != "" {
		t.Fatalf("replay differs from the streaming path: %s", d)
	}
}

// TestOpenLoopSkipsDeadCycles: an open-loop mcf run on a cold trace
// cache steps its machine trace skipping dead cycles in bulk, counts them
// in core.machine_skipped_cycles_total, and still equals the same run on
// the per-cycle streaming path, which skips one cycle at a time, on every
// Result field.
func TestOpenLoopSkipsDeadCycles(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	prof, err := workload.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.GenerateCached(prof)
	k := knobs{ImpedancePct: 2, MaxCycles: 60000, WarmupCycles: 10000}
	skipped := telemetry.Default().Counter("core.machine_skipped_cycles_total")

	sys, err := NewSystem(prog, k.options())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	before := skipped.Value()
	got, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !sys.replayed {
		t.Fatal("open-loop run did not replay")
	}
	n := skipped.Value() - before
	if n <= 0 || uint64(n) != sys.skipped {
		t.Fatalf("core.machine_skipped_cycles_total grew by %d, run skipped %d; want > 0", n, sys.skipped)
	}
	t.Logf("mcf skipped %d of %d cycles", n, got.Cycles)

	opts := k.options()
	opts.Telemetry = telemetry.NewTracer(1 << 10)
	opts.TelemetryName = "stream"
	ref, err := NewSystem(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ref.replayed {
		t.Fatal("traced run unexpectedly replayed")
	}
	if d := resultDiff(got, want); d != "" {
		t.Fatalf("skipping run differs from the streaming path: %s", d)
	}
}

// TestOpenLoopTraceCacheReuse checks that an open-loop run is
// identical whether its machine trace is computed or served from the
// trace cache, and that the cache actually gets hit.
func TestOpenLoopTraceCacheReuse(t *testing.T) {
	ResetTraceCache()
	before := TraceCacheStats()
	k := knobs{ImpedancePct: 2, MaxCycles: 50000, WarmupCycles: 10000}
	runAt := func(pct float64) *Result {
		kk := k
		kk.ImpedancePct = pct
		sys, err := NewSystem(alternator(300), kk.options())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := runAt(2)
	second := runAt(2) // same program: trace served from cache
	third := runAt(3)  // same trace, different network
	if st := TraceCacheStats(); st.Hits-before.Hits < 2 || st.Misses-before.Misses != 1 {
		t.Fatalf("trace cache not reused: %+v since %+v", st, before)
	}
	if d := resultDiff(second, first); d != "" {
		t.Fatalf("cached trace changed results: %s", d)
	}
	if third.MinV >= first.MinV {
		t.Fatalf("higher impedance should droop further: %g vs %g", third.MinV, first.MinV)
	}
}

// TestMachineTraceChunks: an open-loop run whose budget is the trace cap,
// far past its retirement, caches its cycles plus less than one chunk, in
// full chunks but the last; a budget-bound run caches exactly its cycles.
func TestMachineTraceChunks(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	for _, maxCycles := range []uint64{maxTraceCycles, 2*traceChunk + 3} {
		opts := knobs{ImpedancePct: 2, MaxCycles: maxCycles}.options()
		sys, err := NewSystem(alternator(3000), opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		mr, err := sys.machineTrace()
		sys.Close()
		if err != nil {
			t.Fatal(err)
		}
		budget := sys.spec.Budget.MaxCycles
		if maxCycles == maxTraceCycles && res.Cycles > budget/20 {
			t.Fatalf("capped budget: ran %d of %d cycles; want a run that retires early", res.Cycles, budget)
		}
		if maxCycles != maxTraceCycles && res.Cycles != maxCycles {
			t.Fatalf("bounded budget: ran %d cycles, want %d", res.Cycles, maxCycles)
		}
		held, n := 0, 0
		for i, c := range mr.chunks {
			if i < len(mr.chunks)-1 && (len(c) != traceChunk || cap(c) != traceChunk) {
				t.Errorf("budget %d: chunk %d holds %d of %d, want a full %d", budget, i, len(c), cap(c), traceChunk)
			}
			held += cap(c)
			n += len(c)
		}
		if uint64(n) != res.Cycles || len(mr.chunks) < 2 {
			t.Errorf("budget %d: %d chunks hold %d currents for %d cycles", budget, len(mr.chunks), n, res.Cycles)
		}
		if spare := held - n; spare >= traceChunk || (maxCycles != maxTraceCycles && spare != 0) {
			t.Errorf("budget %d: %d floats reserved beyond the run's %d cycles", budget, spare, res.Cycles)
		}
	}
}
