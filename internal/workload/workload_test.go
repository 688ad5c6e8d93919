package workload

import (
	"strings"
	"testing"

	"didt/internal/cpu"
	"didt/internal/isa"
	"didt/internal/sim"
)

// TestCachedProgramRaisesContainedPanic: a program cache whose generation
// panicked hands back no nil program; the cache's *sim.PanicError is
// raised again, for the nearest sim.Map to report.
func TestCachedProgramRaisesContainedPanic(t *testing.T) {
	pe := &sim.PanicError{Value: "generate exploded"}
	defer func() {
		if p := recover(); p != pe {
			t.Fatalf("recovered %v, want the cache's *sim.PanicError", p)
		}
	}()
	mustProgram(nil, pe)
}

func TestStressmarkBuildsAndValidates(t *testing.T) {
	p := Stressmark(StressmarkParams{})
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(p) < 50 {
		t.Errorf("stressmark suspiciously small: %d instrs", len(p))
	}
}

func TestStressmarkRunsToCompletion(t *testing.T) {
	prog := Stressmark(StressmarkParams{Iterations: 50})
	c, err := cpu.New(cpu.Config{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200000 && !c.Done(); i++ {
		c.Step()
	}
	if !c.Done() {
		t.Fatal("stressmark did not halt")
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
}

func TestStressmarkPhases(t *testing.T) {
	// The defining property: alternating quiet (no issue) and burst
	// (wide issue) phases. Measure the issue-rate distribution over a warm
	// window: it must be strongly bimodal — many near-zero cycles AND many
	// wide cycles.
	prog := Stressmark(StressmarkParams{Iterations: 400})
	c, err := cpu.New(cpu.Config{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	idle, wide, total := 0, 0, 0
	for i := 0; i < 40000 && !c.Done(); i++ {
		act, _ := c.Step()
		if i < 15000 {
			continue // cold start
		}
		total++
		if act.Issued == 0 {
			idle++
		}
		if act.Issued >= 6 {
			wide++
		}
	}
	if total == 0 {
		t.Fatal("no measured cycles")
	}
	if frac := float64(idle) / float64(total); frac < 0.25 {
		t.Errorf("quiet fraction %.2f too small for a dI/dt stressmark", frac)
	}
	if frac := float64(wide) / float64(total); frac < 0.10 {
		t.Errorf("wide-issue fraction %.2f too small for a dI/dt stressmark", frac)
	}
}

func TestStressmarkPeriodNearResonance(t *testing.T) {
	prog := Stressmark(StressmarkParams{Iterations: 500})
	c, err := cpu.New(cpu.Config{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < 300000 && !c.Done(); i++ {
		c.Step()
	}
	cycles = c.Stats().Cycles
	perIter := float64(cycles) / 500
	// 3 GHz / 50 MHz = 60-cycle resonant period; tuned loop sits nearby.
	if perIter < 40 || perIter > 100 {
		t.Errorf("loop period %.1f cycles, want near the 60-cycle resonance", perIter)
	}
}

func TestStressmarkAssemblyRendering(t *testing.T) {
	asm := StressmarkAssembly(StressmarkParams{Iterations: 10})
	for _, want := range []string{"fdiv", "fld", "cmovnz", "bnez"} {
		if !strings.Contains(asm, want) {
			t.Errorf("assembly missing %q", want)
		}
	}
}

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 26 {
		t.Fatalf("got %d profiles, want 26 (SPEC2000)", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
	}
	for _, name := range ChallengingEight() {
		if !seen[name] {
			t.Errorf("challenging-eight benchmark %q not in profiles", name)
		}
	}
	if len(ChallengingEight()) != 8 {
		t.Error("challenging set must have 8 entries")
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("swim")
	if err != nil || p.Name != "swim" {
		t.Fatalf("ProfileByName(swim): %v %+v", err, p)
	}
	if _, err := ProfileByName("nonesuch"); err == nil {
		t.Error("want error for unknown name")
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) != 26 {
		t.Fatalf("%d names", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatal("names not sorted")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ProfileByName("gcc")
	a := Generate(p)
	b := Generate(p)
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instr %d differs", i)
		}
	}
}

func TestAllProfilesBuildAndValidate(t *testing.T) {
	for _, p := range Profiles() {
		p.Iterations = 5
		prog := Generate(p)
		if err := prog.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestProfilesExecuteCorrectly(t *testing.T) {
	// Spot-check a few profiles end to end on the core.
	for _, name := range []string{"gcc", "swim", "mcf", "crafty"} {
		p, _ := ProfileByName(name)
		p.Iterations = 30
		c, err := cpu.New(cpu.Config{}, Generate(p))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 500000 && !c.Done(); i++ {
			c.Step()
		}
		if !c.Done() || c.Err() != nil {
			t.Errorf("%s: did not complete cleanly (err=%v)", name, c.Err())
		}
	}
}

func TestSmoothedBurstSameInstructionMix(t *testing.T) {
	a := Stressmark(StressmarkParams{Iterations: 10})
	b := Stressmark(StressmarkParams{Iterations: 10, SmoothedBurst: true})
	if len(a) != len(b) {
		t.Errorf("smoothing changed instruction count: %d vs %d", len(a), len(b))
	}
	countOps := func(p isa.Program) map[isa.Op]int {
		m := map[isa.Op]int{}
		for _, in := range p {
			m[in.Op]++
		}
		return m
	}
	ca, cb := countOps(a), countOps(b)
	for op, n := range ca {
		if cb[op] != n {
			t.Errorf("op %v count changed: %d vs %d", op, n, cb[op])
		}
	}
}
