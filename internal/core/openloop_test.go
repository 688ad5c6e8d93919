package core

import (
	"testing"

	"didt/internal/telemetry"
)

// TestOpenLoopMatchesStreaming pins the replay contract: a keyed
// uncontrolled run replayed from its machine trace must equal, on every
// Result field, the same run forced onto the exact per-cycle streaming
// path (via an enabled tracer, which never changes results).
func TestOpenLoopMatchesStreaming(t *testing.T) {
	k := knobs{ImpedancePct: 2, MaxCycles: 60000, WarmupCycles: 10000}

	fastOpts := k.options()
	fastOpts.ProgKey = "test:alternator300"
	fastSys, err := NewSystem(alternator(300), fastOpts)
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

// TestOpenLoopTraceCacheReuse checks that a keyed open-loop run is
// identical whether its machine trace is computed or served from the
// trace cache, and that the cache actually gets hit.
func TestOpenLoopTraceCacheReuse(t *testing.T) {
	ResetTraceCache()
	before := TraceCacheStats()
	k := knobs{ImpedancePct: 2, MaxCycles: 50000, WarmupCycles: 10000}
	runKeyed := func(pct float64) *Result {
		kk := k
		kk.ImpedancePct = pct
		opts := kk.options()
		opts.ProgKey = "test:alternator300"
		sys, err := NewSystem(alternator(300), opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := runKeyed(2)
	second := runKeyed(2) // same key: trace served from cache
	third := runKeyed(3)  // same trace, different network
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

// TestRunBatchMatchesSoloRun pins RunBatch's contract: eight closed-loop
// systems run through it produce exactly the Results of eight solo Runs —
// including mixed programs, delays and budgets within one call.
func TestRunBatchMatchesSoloRun(t *testing.T) {
	progs := []int{300, 250, 300, 280, 300, 250, 280, 300}
	delays := []int{0, 1, 2, 3, 0, 2, 1, 3}
	build := func(i int) Options {
		k := knobs{
			ImpedancePct: 2, MaxCycles: 40000 + uint64(i)*3000, WarmupCycles: 10000,
			Control: true, Delay: delays[i], Seed: int64(100 + i),
		}
		return k.options()
	}

	solo := make([]*Result, len(progs))
	for i := range progs {
		sys, err := NewSystem(alternator(progs[i]), build(i))
		if err != nil {
			t.Fatal(err)
		}
		if sys.replays() {
			t.Fatal("controlled run unexpectedly replayed")
		}
		if solo[i], err = sys.Run(); err != nil {
			t.Fatal(err)
		}
	}

	systems := make([]*System, len(progs))
	for i := range progs {
		var err error
		if systems[i], err = NewSystem(alternator(progs[i]), build(i)); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := RunBatch(systems)
	if err != nil {
		t.Fatal(err)
	}
	for i := range progs {
		s, b := solo[i], batch[i]
		if s.Cycles != b.Cycles || s.Stats != b.Stats ||
			s.MinV != b.MinV || s.MaxV != b.MaxV ||
			s.Energy != b.Energy || s.Emergencies != b.Emergencies ||
			s.LowEvents != b.LowEvents || s.HighEvents != b.HighEvents {
			t.Fatalf("lane %d diverged from solo run:\nsolo  %+v\nbatch %+v", i, s, b)
		}
	}
}
