package cpu

import (
	"strings"
	"testing"

	"didt/internal/isa"
	"didt/internal/workload"
)

// run executes a program to completion (or maxCycles) and returns the CPU.
func run(t *testing.T, prog isa.Program, maxCycles int) *CPU {
	t.Helper()
	c, err := New(Config{}, prog)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < maxCycles; i++ {
		if _, done := c.Step(); done {
			if c.Err() != nil {
				t.Fatalf("cpu error: %v", c.Err())
			}
			return c
		}
	}
	t.Fatalf("program did not finish in %d cycles (pc=%d ruu=%d)", maxCycles, c.fetchPC, c.count)
	return nil
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Error("want error for empty program")
	}
	if _, err := New(Config{RUUSize: 1}, isa.Program{{Op: isa.HALT}}); err == nil {
		t.Error("want error for tiny RUU")
	}
	if _, err := New(Config{}, isa.Program{{Op: isa.JMP, Imm: 7}}); err == nil {
		t.Error("want error for invalid program")
	}
	// FU latencies must lie in [1, MaxFULatency]: a longer one would wrap
	// the completion calendar (the core then wedged) or outrun the power
	// model's spreading ring, and a negative one was taken silently.
	halt := isa.Program{{Op: isa.HALT}}
	for _, cfg := range []Config{
		{LatFPDiv: 2000}, {LatFPDiv: MaxFULatency + 1}, {LatIntALU: -1},
		{LatIntMult: -3}, {LatIntDiv: 1 << 20}, {LatFPAdd: -1}, {LatFPMult: 65},
	} {
		if _, err := New(cfg, halt); err == nil || !strings.Contains(err.Error(), "outside [1, 64]") {
			t.Errorf("%+v: want latency range error, got %v", cfg, err)
		}
	}
	if _, err := New(Config{LatFPDiv: MaxFULatency, LatIntDiv: MaxFULatency}, halt); err != nil {
		t.Errorf("latency %d rejected: %v", MaxFULatency, err)
	}
	// The calendar bound covers every class, not only the integer divide:
	// this memory latency leaves room for a 20-cycle divide but not for a
	// 64-cycle one.
	long := Config{LatFPDiv: MaxFULatency}
	long.Mem.MemLat = calBuckets - 40
	if _, err := New(long, halt); err == nil || !strings.Contains(err.Error(), "calendar") {
		t.Errorf("fp-div latency past the calendar: want error, got %v", err)
	}
	// Validate alone enforces the bound, so spec validation covers it, and
	// it rejects memory latencies that are negative or past the calendar.
	if err := long.WithDefaults().Validate(); err == nil || !strings.Contains(err.Error(), "calendar") {
		t.Errorf("Validate: fp-div latency past the calendar: want error, got %v", err)
	}
	for _, lat := range []int{-1, calBuckets, 1 << 62} {
		cfg := Config{}
		cfg.Mem.MemLat = lat
		if _, err := New(cfg, halt); err == nil || !strings.Contains(err.Error(), "Mem.MemLat") {
			t.Errorf("MemLat %d: want range error, got %v", lat, err)
		}
	}
	neg := Config{}
	neg.Mem.L2HitLat = -16
	if err := neg.WithDefaults().Validate(); err == nil || !strings.Contains(err.Error(), "Mem.L2HitLat") {
		t.Errorf("negative L2HitLat: want range error, got %v", err)
	}
	// Every size that sizes an allocation is bounded on both sides:
	// negative unit counts and queue lengths used to pass Validate and
	// panic in New ("makeslice: len out of range"), and a huge one would
	// size the window, the unit pools or the power model's tables without
	// bound.
	for _, cfg := range []Config{
		{IntALU: -1}, {FetchQLen: -2}, {MemPorts: -1}, {IntMult: -1}, {FPALU: -7}, {FPMult: -1},
		{RUUSize: MaxQueue + 1}, {LSQSize: -1}, {LSQSize: MaxQueue + 1}, {FetchQLen: 1 << 40},
		{FetchWidth: MaxWidth + 1}, {DecodeWidth: -1}, {IssueWidth: 1 << 20}, {CommitWidth: -8},
		{IntALU: MaxWidth + 1}, {MemPorts: 1 << 30},
	} {
		if _, err := New(cfg, halt); err == nil || !strings.Contains(err.Error(), "outside [") {
			t.Errorf("%+v: want size range error, got %v", cfg, err)
		}
		if err := cfg.WithDefaults().Validate(); err == nil {
			t.Errorf("%+v: Validate accepted it", cfg)
		}
	}
	bigCache := Config{}
	bigCache.Mem.L2Bytes, bigCache.Mem.L2Ways = 1<<40, 4
	bigBTB := Config{}
	bigBTB.Bpred.BTBEntries = 1 << 40
	oddCache := Config{}
	oddCache.Mem.L1DBytes, oddCache.Mem.L1DWays = 3<<10, 2
	for _, cfg := range []Config{bigCache, bigBTB, oddCache} {
		if err := cfg.WithDefaults().Validate(); err == nil {
			t.Errorf("%+v: Validate accepted it", cfg)
		}
	}
	// The caps themselves are accepted.
	top := Config{
		RUUSize: MaxQueue, LSQSize: MaxQueue, FetchQLen: MaxQueue,
		FetchWidth: MaxWidth, DecodeWidth: MaxWidth, IssueWidth: MaxWidth, CommitWidth: MaxWidth,
		IntALU: MaxWidth, IntMult: MaxWidth, FPALU: MaxWidth, FPMult: MaxWidth, MemPorts: MaxWidth,
	}
	if _, err := New(top, halt); err != nil {
		t.Errorf("sizes at the caps rejected: %v", err)
	}
}

func TestTrivialProgramHalts(t *testing.T) {
	c := run(t, isa.Program{{Op: isa.HALT}}, 1000)
	if got := c.Stats().Instructions; got != 1 {
		t.Errorf("instructions = %d, want 1", got)
	}
}

func TestArithmeticResult(t *testing.T) {
	b := isa.NewBuilder()
	b.LdI(1, 6).LdI(2, 7).Mul(3, 1, 2).Halt()
	c := run(t, b.MustBuild(), 1000)
	if c.Arch().R[3] != 42 {
		t.Errorf("r3 = %d, want 42", c.Arch().R[3])
	}
}

func TestIndependentOpsSuperscalar(t *testing.T) {
	// A warm loop of 64 independent single-cycle adds must sustain IPC well
	// above 1 (the 8-wide machine should approach its width). The loop
	// amortizes the cold-I-cache compulsory misses.
	b := isa.NewBuilder()
	b.LdI(20, 1000)
	b.Label("loop")
	for i := 0; i < 64; i++ {
		b.AddI(uint8(1+i%8), isa.ZeroReg, int64(i))
	}
	b.AddI(20, 20, -1)
	b.BneZ(20, "loop")
	b.Halt()
	c := run(t, b.MustBuild(), 200000)
	if ipc := c.Stats().IPC(); ipc < 2.0 {
		t.Errorf("independent adds IPC = %.2f, want > 2", ipc)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	// A chain of 64 dependent adds cannot exceed IPC 1.
	b := isa.NewBuilder()
	b.LdI(1, 0)
	for i := 0; i < 64; i++ {
		b.AddI(1, 1, 1)
	}
	b.Halt()
	c := run(t, b.MustBuild(), 5000)
	if c.Arch().R[1] != 64 {
		t.Fatalf("r1 = %d, want 64", c.Arch().R[1])
	}
	if ipc := c.Stats().IPC(); ipc > 1.2 {
		t.Errorf("dependent chain IPC = %.2f, want ~<1", ipc)
	}
}

func TestDependentVsIndependentTiming(t *testing.T) {
	mk := func(dep bool) isa.Program {
		b := isa.NewBuilder()
		b.LdI(1, 0)
		for i := 0; i < 100; i++ {
			if dep {
				b.AddI(1, 1, 1)
			} else {
				b.AddI(uint8(2+i%8), 1, 1)
			}
		}
		b.Halt()
		return b.MustBuild()
	}
	dep := run(t, mk(true), 5000).Stats().Cycles
	ind := run(t, mk(false), 5000).Stats().Cycles
	if ind >= dep {
		t.Errorf("independent (%d cycles) should beat dependent (%d cycles)", ind, dep)
	}
}

func TestFDivLongLatencyStalls(t *testing.T) {
	// Chained FDIVs: each takes LatFPDiv cycles, non-pipelined.
	b := isa.NewBuilder()
	b.FLdI(1, 1e30).FLdI(2, 1.5)
	for i := 0; i < 10; i++ {
		b.FDiv(1, 1, 2)
	}
	b.Halt()
	c := run(t, b.MustBuild(), 5000)
	if got := c.Stats().Cycles; got < 10*12 {
		t.Errorf("10 chained fdivs took %d cycles, want >= 120", got)
	}
}

func TestNonPipelinedDivOccupiesUnit(t *testing.T) {
	// 4 independent int divides on 2 units (20 cycles, non-pipelined) need
	// at least 2 waves: ~40+ cycles. Pipelined would take ~20.
	b := isa.NewBuilder()
	b.LdI(1, 100).LdI(2, 3)
	for i := 0; i < 4; i++ {
		b.Div(uint8(3+i), 1, 2)
	}
	b.Halt()
	c := run(t, b.MustBuild(), 5000)
	if got := c.Stats().Cycles; got < 40 {
		t.Errorf("4 divs on 2 non-pipelined units took %d cycles, want >= 40", got)
	}
}

func TestLoadStoreForwarding(t *testing.T) {
	b := isa.NewBuilder()
	b.LdI(1, 0x1000).LdI(2, 77)
	b.St(2, 1, 0)
	b.Ld(3, 1, 0) // must see 77 via forwarding or memory
	b.Halt()
	c := run(t, b.MustBuild(), 5000)
	if c.Arch().R[3] != 77 {
		t.Errorf("r3 = %d, want 77", c.Arch().R[3])
	}
}

func TestColdLoadPaysMemoryLatency(t *testing.T) {
	b := isa.NewBuilder()
	b.LdI(1, 0x100000)
	b.Ld(2, 1, 0)
	b.Add(3, 2, 2) // dependent on the load
	b.Halt()
	c := run(t, b.MustBuild(), 5000)
	memLat := c.Mem.Config().MemLat
	if got := int(c.Stats().Cycles); got < memLat {
		t.Errorf("cold load run took %d cycles, want >= %d", got, memLat)
	}
}

func TestWarmLoadsFast(t *testing.T) {
	// Two runs over the same line: second load should hit.
	b := isa.NewBuilder()
	b.LdI(1, 0x2000)
	b.Ld(2, 1, 0)
	b.Ld(3, 1, 8) // same line (64B lines)
	b.Halt()
	c := run(t, b.MustBuild(), 5000)
	if mr := c.Mem.L1D.MissRate(); mr >= 1.0 {
		t.Errorf("second load should hit L1: miss rate %.2f", mr)
	}
}

func TestLoopExecutesCorrectly(t *testing.T) {
	b := isa.NewBuilder()
	b.LdI(1, 100).LdI(2, 0)
	b.Label("loop")
	b.Add(2, 2, 1)
	b.AddI(1, 1, -1)
	b.BneZ(1, "loop")
	b.Halt()
	c := run(t, b.MustBuild(), 100000)
	if c.Arch().R[2] != 5050 {
		t.Errorf("sum = %d, want 5050", c.Arch().R[2])
	}
	// The loop branch is highly predictable: mispredicts must be a handful
	// (cold BTB plus the final fall-through).
	if mp := c.Stats().Mispredicts; mp > 8 {
		t.Errorf("mispredicts = %d, want small", mp)
	}
}

func TestMispredictionCostsPenalty(t *testing.T) {
	// A data-dependent unpredictable branch pattern: compare cycles against
	// the same instruction count with a fully-biased branch.
	mk := func(pattern int64) isa.Program {
		b := isa.NewBuilder()
		b.LdI(1, 200) // trip count
		b.LdI(4, pattern)
		b.LdI(5, 0)
		b.Label("loop")
		// r6 = bit of r4 selected by (r1 & 63): pseudo-random for pattern.
		b.And(6, 1, 7)
		b.Emit(isa.Instr{Op: isa.SHR, Dst: 6, Src1: 4, Src2: 1})
		b.AddI(6, 6, 0)
		b.And(6, 6, 8)
		b.BeqZ(6, "skip")
		b.AddI(5, 5, 1)
		b.Label("skip")
		b.AddI(1, 1, -1)
		b.BneZ(1, "loop")
		b.Halt()
		return b.MustBuild()
	}
	// r8 must hold 1 for the AND mask; set via program? Simpler: encode
	// mask inline by initializing r8 before loop.
	withInit := func(pattern int64) isa.Program {
		b := isa.NewBuilder()
		b.LdI(8, 1)
		p := mk(pattern)
		for _, in := range p {
			// shift branch targets by 1 for the prepended instruction
			if in.IsBranch() && in.Op != isa.RET {
				in.Imm++
			}
			b.Emit(in)
		}
		return b.MustBuild()
	}
	biased := run(t, withInit(0), 200000)
	random := run(t, withInit(0x5DEECE66D), 200000)
	if random.Stats().Mispredicts <= biased.Stats().Mispredicts {
		t.Errorf("random pattern should mispredict more: %d vs %d",
			random.Stats().Mispredicts, biased.Stats().Mispredicts)
	}
	if random.Stats().Cycles <= biased.Stats().Cycles {
		t.Errorf("random pattern should be slower: %d vs %d cycles",
			random.Stats().Cycles, biased.Stats().Cycles)
	}
}

func TestCallRetRoundTrip(t *testing.T) {
	b := isa.NewBuilder()
	b.LdI(1, 5)
	b.Emit(isa.Instr{Op: isa.CALL}) // patched below via label trick
	// Simpler to assemble textually:
	src := `
	  ldi r1, 0
	  ldi r2, 3
	loop:
	  call fn
	  addi r2, r2, -1
	  bnez r2, loop
	  halt
	fn:
	  addi r1, r1, 10
	  ret
	`
	p, err := isa.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	c := run(t, p, 100000)
	if c.Arch().R[1] != 30 {
		t.Errorf("r1 = %d, want 30", c.Arch().R[1])
	}
}

func TestGatingFUsStallsExecution(t *testing.T) {
	b := isa.NewBuilder()
	b.LdI(1, 0)
	for i := 0; i < 50; i++ {
		b.AddI(1, 1, 1)
	}
	b.Halt()
	p := b.MustBuild()

	base := run(t, p, 10000).Stats().Cycles

	c, err := New(Config{}, p)
	if err != nil {
		t.Fatal(err)
	}
	// Let the front end warm up past the cold I-cache misses, then gate the
	// FUs for 100 cycles; nothing may issue while gated.
	warm := int(base) - 20
	for i := 0; i < warm && !c.Done(); i++ {
		c.Step()
	}
	if c.Done() {
		t.Fatal("finished during warmup")
	}
	for i := 0; i < 100; i++ {
		c.SetGating(Gating{FUs: true})
		act, done := c.Step()
		if done {
			t.Fatal("finished while gated")
		}
		// HALT/NOP placeholders may still flow; no real execution class may.
		for _, cl := range []isa.Class{isa.ClassIntALU, isa.ClassIntMult,
			isa.ClassIntDiv, isa.ClassFPAdd, isa.ClassFPMult, isa.ClassFPDiv,
			isa.ClassBranch} {
			if act.IssuedByClass[cl] > 0 {
				t.Fatalf("cycle %d: issued %s while FUs gated", i, cl)
			}
		}
	}
	c.SetGating(Gating{})
	for i := 0; i < 10000; i++ {
		if _, done := c.Step(); done {
			break
		}
	}
	if !c.Done() {
		t.Fatal("did not finish after ungating")
	}
	if c.Arch().R[1] != 50 {
		t.Errorf("r1 = %d, want 50 (gating must not drop instructions)", c.Arch().R[1])
	}
	// The window recovers some slack after ungating, so the added time is a
	// bit under the 100 gated cycles.
	if got := c.Stats().Cycles; got < base+60 {
		t.Errorf("gated run %d cycles vs base %d; gating should add most of the 100", got, base)
	}
}

func TestGatingIL1StallsFetch(t *testing.T) {
	b := isa.NewBuilder()
	for i := 0; i < 20; i++ {
		b.Nop()
	}
	b.Halt()
	c, err := New(Config{}, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	c.SetGating(Gating{IL1: true})
	for i := 0; i < 50; i++ {
		act, _ := c.Step()
		if act.Fetched > 0 {
			t.Fatalf("fetched %d while I-cache gated", act.Fetched)
		}
	}
	c.SetGating(Gating{})
	for i := 0; i < 1000 && !c.Done(); i++ {
		c.Step()
	}
	if !c.Done() {
		t.Error("did not finish after ungating")
	}
}

func TestGatingDL1StallsLoads(t *testing.T) {
	b := isa.NewBuilder()
	b.LdI(1, 0x3000)
	b.Ld(2, 1, 0)
	b.Halt()
	c, err := New(Config{}, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	c.SetGating(Gating{DL1: true})
	for i := 0; i < 100; i++ {
		act, _ := c.Step()
		if act.DCacheAccess > 0 {
			t.Fatalf("D-cache accessed while gated")
		}
	}
	c.SetGating(Gating{})
	for i := 0; i < 2000 && !c.Done(); i++ {
		c.Step()
	}
	if !c.Done() {
		t.Error("did not finish after ungating")
	}
}

func TestActivityOccupancyBounded(t *testing.T) {
	b := isa.NewBuilder()
	b.LdI(1, 1000)
	b.Label("loop")
	b.AddI(1, 1, -1)
	b.BneZ(1, "loop")
	b.Halt()
	c, err := New(Config{}, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	for !c.Done() {
		act, _ := c.Step()
		if act.RUUOccupancy > c.Config().RUUSize {
			t.Fatalf("RUU occupancy %d exceeds size", act.RUUOccupancy)
		}
		if act.LSQOccupancy > c.Config().LSQSize {
			t.Fatalf("LSQ occupancy %d exceeds size", act.LSQOccupancy)
		}
		if act.Issued > c.Config().IssueWidth {
			t.Fatalf("issued %d exceeds width", act.Issued)
		}
		if act.Committed > c.Config().CommitWidth {
			t.Fatalf("committed %d exceeds width", act.Committed)
		}
	}
}

func TestStrideMissesSlowerThanHits(t *testing.T) {
	mk := func(stride int64) isa.Program {
		b := isa.NewBuilder()
		b.LdI(1, 0).LdI(2, 500)
		b.Label("loop")
		b.Ld(3, 1, 0)
		b.AddI(1, 1, stride)
		b.AddI(2, 2, -1)
		b.BneZ(2, "loop")
		b.Halt()
		return b.MustBuild()
	}
	hits := run(t, mk(0), 2000000).Stats().Cycles
	misses := run(t, mk(4096), 2000000).Stats().Cycles
	if misses <= hits*2 {
		t.Errorf("striding loads (%d cycles) should be much slower than repeated (%d)", misses, hits)
	}
}

func TestStatsConsistency(t *testing.T) {
	b := isa.NewBuilder()
	b.LdI(1, 50)
	b.Label("loop")
	b.AddI(1, 1, -1)
	b.BneZ(1, "loop")
	b.Halt()
	c := run(t, b.MustBuild(), 100000)
	s := c.Stats()
	if s.Instructions != 1+50*2+1 {
		t.Errorf("instructions = %d, want 102", s.Instructions)
	}
	if s.Fetched < s.Instructions {
		t.Errorf("fetched %d < committed %d", s.Fetched, s.Instructions)
	}
	if s.IPC() <= 0 {
		t.Error("IPC must be positive")
	}
}

func TestDeterminism(t *testing.T) {
	b := isa.NewBuilder()
	b.LdI(1, 200).LdI(2, 0x4000)
	b.Label("loop")
	b.Ld(3, 2, 0)
	b.Add(4, 4, 3)
	b.AddI(2, 2, 64)
	b.AddI(1, 1, -1)
	b.BneZ(1, "loop")
	b.Halt()
	p := b.MustBuild()
	a := run(t, p, 2000000).Stats()
	bb := run(t, p, 2000000).Stats()
	if a != bb {
		t.Errorf("two identical runs diverged: %+v vs %+v", a, bb)
	}
}

// BenchmarkStepInto times one core cycle of the stressmark in its steady
// loop, past the cold-cache warm-up. Under -benchmem it pins the cycle at
// zero heap allocations.
func BenchmarkStepInto(b *testing.B) {
	c, err := New(Config{}, workload.Stressmark(workload.StressmarkParams{Iterations: 1 << 30}))
	if err != nil {
		b.Fatal(err)
	}
	var act Activity
	for i := 0; i < 50_000; i++ {
		c.StepInto(&act)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.StepInto(&act) {
			b.Fatalf("stressmark retired at cycle %d: %v", c.Cycle(), c.Err())
		}
	}
}

// BenchmarkSkipDead times SkipDead skipping one dead cycle: a core whose
// fetch is gated from its first cycle only waits, until its wedge guard
// would fire, so a fresh core replaces it then.
func BenchmarkSkipDead(b *testing.B) {
	waiting := func() *CPU {
		c, err := New(Config{}, workload.Stressmark(workload.StressmarkParams{}))
		if err != nil {
			b.Fatal(err)
		}
		c.SetGating(Gating{IL1: true})
		var act Activity
		c.StepInto(&act)
		return c
	}
	c := waiting()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.SkipDead(1) == 0 {
			b.StopTimer()
			c = waiting()
			b.StartTimer()
		}
	}
}
