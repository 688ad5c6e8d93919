package power

import (
	"math"
	"math/rand/v2"
	"testing"

	"didt/internal/cpu"
	"didt/internal/isa"
)

// refModel is the per-unit formula the model evaluated every cycle before
// its unit tables: per unit a divide, a clamp and a multiply-add, with the
// spreading calendars kept in float64.
type refModel struct {
	p           Params
	cfg         cpu.Config
	spread      [isa.NumClasses][spreadLen]float64
	lat         [isa.NumClasses]int
	pos         int
	sumPeak     float64
	totalEnergy float64
}

func newRef(p Params, cfg cpu.Config) *refModel {
	m := &refModel{p: p.WithDefaults(), cfg: cfg.WithDefaults()}
	for cl := range m.lat {
		m.lat[cl] = classLatency(m.cfg, isa.Class(cl))
	}
	for u := Unit(1); u < NumUnits; u++ {
		m.sumPeak += m.p.Peak[u]
	}
	return m
}

func refUnitPower(peak, frac, idle, gated float64, hardGated, phantom bool) float64 {
	switch {
	case phantom:
		return peak
	case hardGated:
		return peak * gated
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return peak * (idle + (1-idle)*frac)
}

func (m *refModel) step(act *cpu.Activity, ph Phantom, r *CycleReport) {
	for cl, n := range act.IssuedByClass {
		if n == 0 {
			continue
		}
		ring, f := &m.spread[cl], float64(n)
		for k, idx := 0, m.pos; k < m.lat[cl]; k, idx = k+1, (idx+1)&spreadMask {
			ring[idx] += f
		}
	}
	busy, pos, peak := &m.spread, m.pos, &m.p.Peak
	idle, gated := m.p.IdleFraction, m.p.GatedFraction
	fw, iw := float64(m.cfg.FetchWidth), float64(m.cfg.IssueWidth)
	pu := &r.PerUnit

	pu[UnitFetch] = refUnitPower(peak[UnitFetch], float64(act.Fetched)/fw, idle, gated, act.IL1Gated, ph.IL1)
	pu[UnitBpred] = refUnitPower(peak[UnitBpred], float64(act.BpredLookups)/2, idle, gated, act.IL1Gated, ph.IL1)
	pu[UnitL1I] = refUnitPower(peak[UnitL1I], float64(act.ICacheAccess), idle, gated, act.IL1Gated, ph.IL1)
	pu[UnitRename] = refUnitPower(peak[UnitRename], float64(act.Dispatched)/float64(m.cfg.DecodeWidth), idle, gated, false, false)

	occFrac := float64(act.RUUOccupancy) / float64(m.cfg.RUUSize)
	issFrac := float64(act.Issued) / iw
	pu[UnitWindow] = refUnitPower(peak[UnitWindow], 0.45*occFrac+0.55*issFrac, idle, gated, false, false)
	lsqFrac := float64(act.LSQOccupancy) / float64(m.cfg.LSQSize)
	memIss := float64(act.IssuedByClass[isa.ClassLoad]+act.IssuedByClass[isa.ClassStore]) / float64(m.cfg.MemPorts)
	pu[UnitLSQ] = refUnitPower(peak[UnitLSQ], 0.4*lsqFrac+0.6*memIss, idle, gated, false, false)
	pu[UnitRegFile] = refUnitPower(peak[UnitRegFile], float64(act.RegReads+act.RegWrites)/(3*iw), idle, gated, false, false)
	pu[UnitResultBus] = refUnitPower(peak[UnitResultBus], float64(act.Completed)/iw, idle, gated, false, false)

	pu[UnitIntALU] = refUnitPower(peak[UnitIntALU],
		(busy[isa.ClassIntALU][pos]+busy[isa.ClassBranch][pos])/float64(m.cfg.IntALU),
		idle, gated, act.FUsGated, ph.FUs)
	pu[UnitIntMult] = refUnitPower(peak[UnitIntMult],
		(busy[isa.ClassIntMult][pos]+busy[isa.ClassIntDiv][pos])/float64(m.cfg.IntMult),
		idle, gated, act.FUsGated, ph.FUs)
	pu[UnitFPALU] = refUnitPower(peak[UnitFPALU],
		busy[isa.ClassFPAdd][pos]/float64(m.cfg.FPALU),
		idle, gated, act.FUsGated, ph.FUs)
	pu[UnitFPMult] = refUnitPower(peak[UnitFPMult],
		(busy[isa.ClassFPMult][pos]+busy[isa.ClassFPDiv][pos])/float64(m.cfg.FPMult),
		idle, gated, act.FUsGated, ph.FUs)

	pu[UnitL1D] = refUnitPower(peak[UnitL1D], float64(act.DCacheAccess)/float64(m.cfg.MemPorts),
		idle, gated, act.DL1Gated, ph.DL1)
	pu[UnitL2] = refUnitPower(peak[UnitL2], float64(act.L2Access), idle, gated, false, false)

	var sum float64
	for u := Unit(1); u < NumUnits; u++ {
		sum += pu[u]
	}
	activityFrac := 0.0
	if m.sumPeak > 0 {
		activityFrac = sum / m.sumPeak
	}
	pu[UnitClock] = peak[UnitClock] * (0.35 + 0.65*activityFrac)
	var total float64
	for u := Unit(0); u < NumUnits; u++ {
		total += pu[u]
	}
	r.Power = total
	r.Current = total / m.p.VNominal
	m.totalEnergy += total / m.p.ClockHz
	for cl := range m.spread {
		m.spread[cl][pos] = 0
	}
	m.pos = (pos + 1) & spreadMask
}

// randActivity draws one cycle's activity. With over set, every count may
// run to twice its unit's full scale (past every table's range, into the
// clamp and the two-count units' formula fallback); otherwise counts stay
// within what the core can report.
func randActivity(rng *rand.Rand, cfg cpu.Config, over bool) cpu.Activity {
	n := func(full int) int {
		if over {
			return rng.IntN(2*full + 2)
		}
		return rng.IntN(full + 1)
	}
	var act cpu.Activity
	act.Fetched = n(cfg.FetchWidth)
	act.BpredLookups = n(2)
	act.ICacheAccess = n(1)
	act.Dispatched = n(cfg.DecodeWidth)
	act.Issued = n(cfg.IssueWidth)
	act.Completed = n(cfg.IssueWidth)
	act.Committed = n(cfg.CommitWidth)
	for cl := range act.IssuedByClass {
		if rng.IntN(3) == 0 {
			act.IssuedByClass[cl] = n(2)
		}
	}
	act.IssuedByClass[isa.ClassLoad] = n(cfg.MemPorts / 2)
	act.IssuedByClass[isa.ClassStore] = n(cfg.MemPorts / 2)
	act.DCacheAccess = n(cfg.MemPorts)
	act.L2Access = n(1)
	act.RegReads = n(2 * cfg.IssueWidth)
	act.RegWrites = n(cfg.IssueWidth)
	act.WindowWakeups = n(cfg.IssueWidth)
	act.RUUOccupancy = n(cfg.RUUSize)
	act.LSQOccupancy = n(cfg.LSQSize)
	return act
}

// TestUnitTablesMatchFormula drives the tabulated model and refModel with
// the same activity and actuator input and requires == on Power, Current,
// every PerUnit entry and the running TotalEnergy, every cycle. The inputs
// cover random in-range activity, counts past every table's range, and all
// 64 combinations of the gating and phantom flags, on the Table 1 core and
// on a small odd-sized one with long multi-cycle latencies.
func TestUnitTablesMatchFormula(t *testing.T) {
	small := cpu.Config{
		FetchWidth: 3, DecodeWidth: 5, IssueWidth: 3, CommitWidth: 2,
		RUUSize: 37, LSQSize: 11, IntALU: 3, IntMult: 1, FPALU: 2, FPMult: 1, MemPorts: 3,
		LatIntMult: 7, LatFPMult: 9, LatFPDiv: cpu.MaxFULatency,
	}
	for _, cfg := range []cpu.Config{cpu.DefaultConfig(), small} {
		for _, p := range []Params{{}, {IdleFraction: 0.15, GatedFraction: 0.05, VNominal: 1.1}} {
			m, ref := New(p, cfg), newRef(p, cfg)
			rng := rand.New(rand.NewPCG(1, uint64(cfg.RUUSize)))
			rcfg := cfg.WithDefaults()
			var got, want CycleReport
			for i := 0; i < 20_000; i++ {
				act := randActivity(rng, rcfg, i%3 == 2)
				var ph Phantom
				if i%4 == 0 {
					f := i / 4 % 64
					act.FUsGated, act.DL1Gated, act.IL1Gated = f&1 != 0, f&2 != 0, f&4 != 0
					ph = Phantom{FUs: f&8 != 0, DL1: f&16 != 0, IL1: f&32 != 0}
				}
				m.StepInto(&act, ph, &got)
				ref.step(&act, ph, &want)
				if got != want || m.TotalEnergy() != ref.totalEnergy {
					for u := Unit(0); u < NumUnits; u++ {
						if got.PerUnit[u] != want.PerUnit[u] {
							t.Errorf("cycle %d %s: table %v, formula %v", i, u, got.PerUnit[u], want.PerUnit[u])
						}
					}
					t.Fatalf("cfg %+v params %+v cycle %d: power %v vs %v, energy %v vs %v (activity %+v, phantom %+v)",
						cfg, p, i, got.Power, want.Power, m.TotalEnergy(), ref.totalEnergy, act, ph)
				}
			}
			if math.IsNaN(m.TotalEnergy()) || m.TotalEnergy() <= 0 {
				t.Fatalf("energy %v", m.TotalEnergy())
			}
		}
	}
}

// TestUnitTablesShared checks that models of one configuration share one
// table set, that any difference in the configuration or in the bits of
// the parameters tables depend on (a -0 peak included) builds a new one,
// and that a model keeps its own tables after another configuration
// replaced the shared set.
func TestUnitTablesShared(t *testing.T) {
	a, b := New(Params{}, cpu.Config{}), New(Params{}, cpu.DefaultConfig())
	if a.t != b.t {
		t.Fatal("models of one configuration do not share their tables")
	}
	negZero := Params{}.WithDefaults()
	negZero.Peak[UnitL2] = math.Copysign(0, -1)
	posZero := negZero
	posZero.Peak[UnitL2] = 0
	for _, m := range []*Model{New(Params{}, cpu.Config{RUUSize: 64}), New(Params{IdleFraction: 0.2}, cpu.Config{}), New(posZero, cpu.Config{})} {
		if m.t == a.t {
			t.Fatalf("params %+v share the default tables", m.p)
		}
	}
	if p, n := New(posZero, cpu.Config{}), New(negZero, cpu.Config{}); p.t == n.t {
		t.Fatal("a -0 peak reuses a +0 peak's tables")
	}
	ref := newRef(Params{}, cpu.Config{})
	var got, want CycleReport
	act := cpu.Activity{Fetched: 5, Issued: 3, RUUOccupancy: 100, LSQOccupancy: 40}
	act.IssuedByClass[isa.ClassLoad] = 2
	a.StepInto(&act, Phantom{}, &got)
	ref.step(&act, Phantom{}, &want)
	if got != want {
		t.Fatalf("model after its tables were replaced: %+v, formula %+v", got, want)
	}
}
