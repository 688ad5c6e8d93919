package power

import (
	"math"
	"testing"

	"didt/internal/cpu"
	"didt/internal/isa"
	"didt/internal/workload"
)

func newM() *Model {
	return New(Params{}, cpu.DefaultConfig())
}

func TestDefaultsApplied(t *testing.T) {
	m := newM()
	p := m.Params()
	if p.VNominal != 1.0 || p.ClockHz != 3e9 || p.IdleFraction != 0.10 || p.GatedFraction != 0.02 {
		t.Errorf("defaults: %+v", p)
	}
	if p.Peak[UnitClock] == 0 {
		t.Error("peak powers not defaulted")
	}
}

func TestEnvelopeOrdering(t *testing.T) {
	m := newM()
	min, max := m.MinCurrent(AllScopes), m.MaxCurrent(AllScopes)
	if !(0 < min && min < max) {
		t.Fatalf("0 < min (%g) < max (%g) violated", min, max)
	}
	// A ~60W/1V processor: max around 55-70A, min well below half.
	if max < 40 || max > 90 {
		t.Errorf("max current %g A out of the calibrated range", max)
	}
	if min > max/3 {
		t.Errorf("idle current %g too close to max %g", min, max)
	}
}

func TestIdleCycleNearMinCurrent(t *testing.T) {
	m := newM()
	r := m.Step(&cpu.Activity{}, Phantom{})
	if d := math.Abs(r.Current - m.MinCurrent(AllScopes)); d > 1.0 {
		t.Errorf("idle cycle current %g vs MinCurrent %g", r.Current, m.MinCurrent(AllScopes))
	}
}

func fullActivity(cfg cpu.Config) *cpu.Activity {
	var act cpu.Activity
	act.Fetched = cfg.FetchWidth
	act.Dispatched = cfg.DecodeWidth
	act.Issued = cfg.IssueWidth
	act.Completed = cfg.IssueWidth
	act.Committed = cfg.CommitWidth
	act.IssuedByClass[isa.ClassIntALU] = cfg.IntALU
	act.IssuedByClass[isa.ClassIntDiv] = cfg.IntMult
	act.IssuedByClass[isa.ClassFPAdd] = cfg.FPALU
	act.IssuedByClass[isa.ClassFPDiv] = cfg.FPMult
	act.IssuedByClass[isa.ClassLoad] = cfg.MemPorts
	act.BpredLookups = 2
	act.ICacheAccess = 1
	act.DCacheAccess = cfg.MemPorts
	act.L2Access = 1
	act.RegReads = 2 * cfg.IssueWidth
	act.RegWrites = cfg.IssueWidth
	act.WindowWakeups = cfg.IssueWidth
	act.RUUOccupancy = cfg.RUUSize
	act.LSQOccupancy = cfg.LSQSize
	return &act
}

func TestBusyCycleApproachesMax(t *testing.T) {
	cfg := cpu.DefaultConfig()
	m := newM()
	var r CycleReport
	for i := 0; i < 30; i++ { // let spreading saturate
		r = m.Step(fullActivity(cfg), Phantom{})
	}
	if r.Current < 0.85*m.MaxCurrent(AllScopes) {
		t.Errorf("fully busy current %g, want near max %g", r.Current, m.MaxCurrent(AllScopes))
	}
	if r.Current > m.MaxCurrent(AllScopes)*1.0001 {
		t.Errorf("current %g exceeds max %g", r.Current, m.MaxCurrent(AllScopes))
	}
}

func TestMoreActivityMorePower(t *testing.T) {
	cfg := cpu.DefaultConfig()
	m1, m2 := newM(), newM()
	var half cpu.Activity
	half.Fetched = cfg.FetchWidth / 2
	half.Issued = cfg.IssueWidth / 2
	half.IssuedByClass[isa.ClassIntALU] = cfg.IntALU / 2
	half.RUUOccupancy = cfg.RUUSize / 2
	var rHalf, rFull CycleReport
	for i := 0; i < 10; i++ {
		rHalf = m1.Step(&half, Phantom{})
		rFull = m2.Step(fullActivity(cfg), Phantom{})
	}
	if rHalf.Power >= rFull.Power {
		t.Errorf("half activity %gW >= full %gW", rHalf.Power, rFull.Power)
	}
}

func TestMultiCycleSpreading(t *testing.T) {
	// One FDIV issue must contribute FPMult activity for LatFPDiv cycles,
	// not a single spike.
	cfg := cpu.DefaultConfig()
	m := newM()
	var act cpu.Activity
	act.IssuedByClass[isa.ClassFPDiv] = 1
	r0 := m.Step(&act, Phantom{})
	elevated := 0
	for i := 0; i < cfg.LatFPDiv+5; i++ {
		r := m.Step(&cpu.Activity{}, Phantom{})
		if r.PerUnit[UnitFPMult] > m.Params().Peak[UnitFPMult]*m.Params().IdleFraction*1.01 {
			elevated++
		}
	}
	if r0.PerUnit[UnitFPMult] <= m.Params().Peak[UnitFPMult]*m.Params().IdleFraction {
		t.Error("issue cycle shows no FPMult activity")
	}
	if elevated < cfg.LatFPDiv-2 || elevated > cfg.LatFPDiv {
		t.Errorf("FPMult elevated for %d cycles, want ~%d-1", elevated, cfg.LatFPDiv)
	}
}

func TestHardGatingBelowIdle(t *testing.T) {
	m := newM()
	var act cpu.Activity
	act.FUsGated, act.DL1Gated, act.IL1Gated = true, true, true
	r := m.Step(&act, Phantom{})
	p := m.Params()
	for _, u := range []Unit{UnitIntALU, UnitFPALU, UnitL1D, UnitL1I} {
		if r.PerUnit[u] > p.Peak[u]*p.GatedFraction*1.001 {
			t.Errorf("%s gated power %g exceeds residual", u, r.PerUnit[u])
		}
	}
	idleR := newM().Step(&cpu.Activity{}, Phantom{})
	if r.Current >= idleR.Current {
		t.Errorf("hard-gated current %g should undercut idle %g", r.Current, idleR.Current)
	}
}

func TestPhantomFiringRaisesCurrent(t *testing.T) {
	m1, m2 := newM(), newM()
	idle := m1.Step(&cpu.Activity{}, Phantom{})
	ph := m2.Step(&cpu.Activity{}, Phantom{FUs: true, DL1: true, IL1: true})
	if ph.Current <= idle.Current+10 {
		t.Errorf("phantom firing raised current only from %g to %g", idle.Current, ph.Current)
	}
	p := m2.Params()
	if ph.PerUnit[UnitIntALU] != p.Peak[UnitIntALU] {
		t.Errorf("phantom IntALU at %g, want peak %g", ph.PerUnit[UnitIntALU], p.Peak[UnitIntALU])
	}
}

func TestGatedFloorAndPhantomCeilingOrdering(t *testing.T) {
	m := newM()
	// Wider gating scope digs a deeper floor. Narrow scopes leave the rest
	// of the chip running, so their floors sit ABOVE the all-idle current —
	// the Section 5.2 leverage argument.
	fu := m.GatedFloorCurrent(AllScopes, true, false, false)
	fud := m.GatedFloorCurrent(AllScopes, true, true, false)
	fudi := m.GatedFloorCurrent(AllScopes, true, true, true)
	if !(fudi < fud && fud < fu) {
		t.Errorf("floors not ordered: fu=%g fud=%g fudi=%g", fu, fud, fudi)
	}
	if fu < m.MinCurrent(AllScopes) {
		t.Errorf("FU-only floor %g should exceed all-idle %g (front end keeps running)", fu, m.MinCurrent(AllScopes))
	}
	if fudi > m.MinCurrent(AllScopes) {
		t.Errorf("full-scope floor %g should undercut all-idle %g", fudi, m.MinCurrent(AllScopes))
	}
	// Wider phantom scope reaches a higher ceiling.
	pfu := m.PhantomCeilingCurrent(AllScopes, true, false, false)
	pfud := m.PhantomCeilingCurrent(AllScopes, true, true, false)
	pfudi := m.PhantomCeilingCurrent(AllScopes, true, true, true)
	if !(pfudi > pfud && pfud > pfu && pfu > m.MinCurrent(AllScopes)) {
		t.Errorf("ceilings not ordered: %g %g %g idle=%g", pfu, pfud, pfudi, m.MinCurrent(AllScopes))
	}
	if pfudi >= m.MaxCurrent(AllScopes) {
		t.Errorf("phantom ceiling %g should stay below absolute max %g", pfudi, m.MaxCurrent(AllScopes))
	}
}

func TestEnergyAccumulates(t *testing.T) {
	m := newM()
	if m.TotalEnergy() != 0 {
		t.Fatal("fresh model has energy")
	}
	r := m.Step(&cpu.Activity{}, Phantom{})
	want := r.Power / m.Params().ClockHz
	if math.Abs(m.TotalEnergy()-want) > 1e-18 {
		t.Errorf("energy %g, want %g", m.TotalEnergy(), want)
	}
	m.Step(&cpu.Activity{}, Phantom{})
	if m.Cycles() != 2 {
		t.Errorf("cycles = %d", m.Cycles())
	}
}

func TestActivityFractionsClamped(t *testing.T) {
	// Absurd over-reporting must not push any unit past its peak.
	m := newM()
	var act cpu.Activity
	act.Fetched = 1000
	act.DCacheAccess = 1000
	act.RegReads = 1000
	act.IssuedByClass[isa.ClassIntALU] = 1000
	r := m.Step(&act, Phantom{})
	p := m.Params()
	for u := Unit(0); u < NumUnits; u++ {
		if r.PerUnit[u] > p.Peak[u]*1.0001 {
			t.Errorf("%s power %g exceeds peak %g", u, r.PerUnit[u], p.Peak[u])
		}
	}
}

func TestUnitStringNames(t *testing.T) {
	if UnitClock.String() != "clock" || UnitL1D.String() != "l1d" {
		t.Error("unit names wrong")
	}
	if Unit(99).String() == "" {
		t.Error("out-of-range unit name empty")
	}
}

// BenchmarkStepInto times one cycle of power accounting over a recorded
// stretch of the stressmark's steady-state activity. Under -benchmem it
// pins the cycle at zero heap allocations.
func BenchmarkStepInto(b *testing.B) {
	c, err := cpu.New(cpu.Config{}, workload.Stressmark(workload.StressmarkParams{Iterations: 1 << 30}))
	if err != nil {
		b.Fatal(err)
	}
	acts := make([]cpu.Activity, 4096)
	for i := 0; i < 50_000; i++ {
		c.StepInto(&acts[0])
	}
	for i := range acts {
		c.StepInto(&acts[i])
	}
	m := New(Params{}, c.Config())
	var r CycleReport
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.StepInto(&acts[i&(len(acts)-1)], Phantom{}, &r)
	}
}

// BenchmarkRepeat times Repeat accounting one more cycle of an idle
// machine's report.
func BenchmarkRepeat(b *testing.B) {
	m := New(Params{}, cpu.DefaultConfig())
	var act cpu.Activity
	var r CycleReport
	m.StepInto(&act, Phantom{}, &r)
	if !m.Quiet(Phantom{}) {
		b.Fatal("an idle cycle left the spreading rings busy")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Repeat(1, &r)
	}
}
