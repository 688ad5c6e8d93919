// Package power is the structural, Wattch-style power model: it converts
// the core's per-cycle Activity reports into per-cycle power and current.
//
// Modeling choices mirror Section 3.1 of the paper:
//
//   - Conditional clock gating ("cc3"): an idle unit still draws a fixed
//     fraction of its peak power (default 10%). A unit hard-gated by the
//     dI/dt actuator draws a smaller residual (default 2%).
//   - Multi-cycle operations (divides, fp multiplies) spread their energy
//     over their full execution latency rather than charging it all at
//     issue, which would overstate cycle-to-cycle current swings.
//   - The clock tree has a fixed floor plus a component that tracks how
//     much of the chip is active.
//   - Peak unit powers are calibrated to a ~60 W, 3 GHz, 1.0 V processor
//     (ITRS-derived scaling), and current is power divided by nominal
//     voltage — supply ripple is ±5%, so the linearization error is small
//     and is the same approximation the paper's toolchain makes.
//
// The model also implements the actuator's "phantom firing": when the
// controller requests extra current draw, the controlled units are charged
// at full activity regardless of real utilization.
package power

import (
	"fmt"

	"didt/internal/cpu"
	"didt/internal/isa"
)

// Unit identifies one power-modeled structure.
type Unit int

const (
	UnitClock Unit = iota
	UnitFetch
	UnitBpred
	UnitRename
	UnitWindow
	UnitLSQ
	UnitRegFile
	UnitL1I
	UnitL1D
	UnitL2
	UnitIntALU
	UnitIntMult
	UnitFPALU
	UnitFPMult
	UnitResultBus
	NumUnits
)

var unitNames = [NumUnits]string{
	"clock", "fetch", "bpred", "rename", "window", "lsq", "regfile",
	"l1i", "l1d", "l2", "int-alu", "int-mult", "fp-alu", "fp-mult",
	"result-bus",
}

// String names the unit.
func (u Unit) String() string {
	if u >= 0 && int(u) < len(unitNames) {
		return unitNames[u]
	}
	return fmt.Sprintf("unit(%d)", int(u))
}

// Params configures the model. Zero values take defaults.
type Params struct {
	VNominal      float64 // volts; default 1.0
	ClockHz       float64 // default 3 GHz
	IdleFraction  float64 // cc3 residual for an idle unit; default 0.10
	GatedFraction float64 // residual for an actuator-gated unit; default 0.02

	// Peak per-unit power in watts; zero takes DefaultUnitPowers.
	Peak [NumUnits]float64
}

// DefaultUnitPowers is the peak power budget (watts) of the modeled 3 GHz
// 1.0 V core, roughly 62 W total, with a Wattch-like breakdown.
func DefaultUnitPowers() [NumUnits]float64 {
	return [NumUnits]float64{
		UnitClock:     12.0,
		UnitFetch:     4.0,
		UnitBpred:     2.5,
		UnitRename:    2.0,
		UnitWindow:    9.0,
		UnitLSQ:       3.5,
		UnitRegFile:   5.0,
		UnitL1I:       5.0,
		UnitL1D:       7.0,
		UnitL2:        4.5,
		UnitIntALU:    6.5,
		UnitIntMult:   1.5,
		UnitFPALU:     4.0,
		UnitFPMult:    2.5,
		UnitResultBus: 3.0,
	}
}

// WithDefaults fills zero fields with the reference 3 GHz / 1.0 V model.
// The spec layer resolves the power section of a RunSpec through this;
// power.New applies it again idempotently for direct users.
func (p Params) WithDefaults() Params {
	if p.VNominal == 0 {
		p.VNominal = 1.0
	}
	if p.ClockHz == 0 {
		p.ClockHz = 3e9
	}
	if p.IdleFraction == 0 {
		p.IdleFraction = 0.10
	}
	if p.GatedFraction == 0 {
		p.GatedFraction = 0.02
	}
	allZero := true
	for _, v := range p.Peak {
		if v != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		p.Peak = DefaultUnitPowers()
	}
	return p
}

// Phantom is the actuator's phantom-firing request: charge the named
// structures at full activity to raise current draw (voltage-high
// response). Phantom firings do no architectural work.
type Phantom struct {
	FUs bool
	DL1 bool
	IL1 bool
}

// CycleReport is one cycle's power accounting.
type CycleReport struct {
	Power   float64 // watts
	Current float64 // amperes (Power / VNominal)
	PerUnit [NumUnits]float64
}

// Model converts Activity to power. It carries the energy-spreading
// calendars for multi-cycle operations and accumulates total energy; it is
// not safe for concurrent use.
type Model struct {
	p   Params
	cfg cpu.Config

	// spread[class] is a ring of "units busy" counts for future cycles,
	// fed at issue time with the operation's full latency; pos is the
	// current cycle's slot. lat[class] is the number of cycles an issue of
	// that class spreads over.
	spread [isa.NumClasses][spreadLen]float64
	lat    [isa.NumClasses]int
	pos    int

	// sumPeak is the peak power of units 1..NumUnits-1 accumulated in
	// ascending unit order — the same order (hence the same float) the
	// per-cycle loop used to recompute it before it was hoisted here.
	sumPeak float64

	cycles      uint64
	totalEnergy float64 // joules
}

// spreadLen is the spreading calendar's length: the longest latency the
// core accepts, a power of two so the ring wraps with a mask.
const (
	spreadLen  = cpu.MaxFULatency
	spreadMask = spreadLen - 1
)

// New builds a model for the given core configuration.
func New(p Params, cfg cpu.Config) *Model {
	m := &Model{p: p.WithDefaults(), cfg: cfg}
	for cl := range m.lat {
		m.lat[cl] = min(classLatency(cfg, isa.Class(cl)), spreadLen)
	}
	for u := Unit(1); u < NumUnits; u++ {
		m.sumPeak += m.p.Peak[u]
	}
	return m
}

// Params returns the resolved parameters.
func (m *Model) Params() Params { return m.p }

// classLatency mirrors the core's execution latencies for spreading.
func classLatency(cfg cpu.Config, cl isa.Class) int {
	switch cl {
	case isa.ClassIntALU, isa.ClassBranch:
		return max1(cfg.LatIntALU)
	case isa.ClassIntMult:
		return max1(cfg.LatIntMult)
	case isa.ClassIntDiv:
		return max1(cfg.LatIntDiv)
	case isa.ClassFPAdd:
		return max1(cfg.LatFPAdd)
	case isa.ClassFPMult:
		return max1(cfg.LatFPMult)
	case isa.ClassFPDiv:
		return max1(cfg.LatFPDiv)
	}
	return 1
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// unitPower is a unit's power given its peak, its activity fraction and
// whether the actuator has hard-gated or phantom-fired it.
func unitPower(peak, frac, idle, gated float64, hardGated, phantom bool) float64 {
	switch {
	case phantom:
		return peak // phantom firing: full rail
	case hardGated:
		return peak * gated
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	// cc3: idle floor plus activity-proportional dynamic power.
	return peak * (idle + (1-idle)*frac)
}

// Step accounts one cycle of activity and returns its power.
func (m *Model) Step(act *cpu.Activity, ph Phantom) CycleReport {
	var r CycleReport
	m.StepInto(act, ph, &r)
	return r
}

// StepInto is Step without the CycleReport return copy: it overwrites *r
// in place. The simulation loops call it once per machine cycle into a
// report they own.
//
//didt:hotpath
func (m *Model) StepInto(act *cpu.Activity, ph Phantom, r *CycleReport) {
	// Feed the spreading calendars with this cycle's issues.
	for cl, n := range act.IssuedByClass {
		if n == 0 {
			continue
		}
		ring, f := &m.spread[cl], float64(n)
		for k, idx := 0, m.pos; k < m.lat[cl]; k, idx = k+1, (idx+1)&spreadMask {
			ring[idx] += f
		}
	}
	busy := &m.spread
	pos := m.pos
	peak := &m.p.Peak
	idle := m.p.IdleFraction
	gated := m.p.GatedFraction
	fw := float64(m.cfg.FetchWidth)
	iw := float64(m.cfg.IssueWidth)
	pu := &r.PerUnit

	// Front end.
	pu[UnitFetch] = unitPower(peak[UnitFetch], float64(act.Fetched)/fw, idle, gated, act.IL1Gated, ph.IL1)
	pu[UnitBpred] = unitPower(peak[UnitBpred], float64(act.BpredLookups)/2, idle, gated, act.IL1Gated, ph.IL1)
	pu[UnitL1I] = unitPower(peak[UnitL1I], float64(act.ICacheAccess), idle, gated, act.IL1Gated, ph.IL1)
	pu[UnitRename] = unitPower(peak[UnitRename], float64(act.Dispatched)/float64(m.cfg.DecodeWidth), idle, gated, false, false)

	// Window and register machinery.
	occFrac := float64(act.RUUOccupancy) / float64(m.cfg.RUUSize)
	issFrac := float64(act.Issued) / iw
	pu[UnitWindow] = unitPower(peak[UnitWindow], 0.45*occFrac+0.55*issFrac, idle, gated, false, false)
	lsqFrac := float64(act.LSQOccupancy) / float64(m.cfg.LSQSize)
	memIss := float64(act.IssuedByClass[isa.ClassLoad]+act.IssuedByClass[isa.ClassStore]) / float64(m.cfg.MemPorts)
	pu[UnitLSQ] = unitPower(peak[UnitLSQ], 0.4*lsqFrac+0.6*memIss, idle, gated, false, false)
	pu[UnitRegFile] = unitPower(peak[UnitRegFile], float64(act.RegReads+act.RegWrites)/(3*iw), idle, gated, false, false)
	pu[UnitResultBus] = unitPower(peak[UnitResultBus], float64(act.Completed)/iw, idle, gated, false, false)

	// Execution units, with multi-cycle spreading.
	pu[UnitIntALU] = unitPower(peak[UnitIntALU],
		(busy[isa.ClassIntALU][pos]+busy[isa.ClassBranch][pos])/float64(m.cfg.IntALU),
		idle, gated, act.FUsGated, ph.FUs)
	pu[UnitIntMult] = unitPower(peak[UnitIntMult],
		(busy[isa.ClassIntMult][pos]+busy[isa.ClassIntDiv][pos])/float64(m.cfg.IntMult),
		idle, gated, act.FUsGated, ph.FUs)
	pu[UnitFPALU] = unitPower(peak[UnitFPALU],
		busy[isa.ClassFPAdd][pos]/float64(m.cfg.FPALU),
		idle, gated, act.FUsGated, ph.FUs)
	pu[UnitFPMult] = unitPower(peak[UnitFPMult],
		(busy[isa.ClassFPMult][pos]+busy[isa.ClassFPDiv][pos])/float64(m.cfg.FPMult),
		idle, gated, act.FUsGated, ph.FUs)

	// Data-side caches.
	pu[UnitL1D] = unitPower(peak[UnitL1D], float64(act.DCacheAccess)/float64(m.cfg.MemPorts),
		idle, gated, act.DL1Gated, ph.DL1)
	pu[UnitL2] = unitPower(peak[UnitL2], float64(act.L2Access), idle, gated, false, false)

	// Clock tree: fixed floor plus a share tracking overall chip activity.
	// Both sums run in ascending unit order into locals, so every float is
	// the one a running r.Power sum would produce.
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
	m.cycles++

	// Advance the spreading calendar.
	for cl := range m.spread {
		m.spread[cl][pos] = 0
	}
	m.pos = (pos + 1) & spreadMask
}

// TotalEnergy returns the accumulated energy in joules.
func (m *Model) TotalEnergy() float64 { return m.totalEnergy }

// Cycles returns how many cycles have been accounted.
func (m *Model) Cycles() uint64 { return m.cycles }

// MinCurrent returns the quiescent current: every unit idle under
// conditional clock gating. This is the regulator's calibration point
// (IFloor) and the floor the actuator can force current toward.
func (m *Model) MinCurrent() float64 {
	var p float64
	for u := Unit(1); u < NumUnits; u++ {
		p += m.p.Peak[u] * m.p.IdleFraction
	}
	p += m.p.Peak[UnitClock] * (0.35 + 0.65*m.p.IdleFraction)
	return p / m.p.VNominal
}

// MaxCurrent returns the absolute worst-case current: every unit at peak.
func (m *Model) MaxCurrent() float64 {
	var p float64
	for u := Unit(0); u < NumUnits; u++ {
		p += m.p.Peak[u]
	}
	return p / m.p.VNominal
}

// sustainedFraction is the activity level the un-gated parts of the chip
// can sustain over a short gating window: the machine keeps fetching and
// accessing caches for tens of cycles while only some units are gated, so
// the worst-case analysis must assume an adversarial workload keeps them
// nearly saturated.
const sustainedFraction = 0.8

// gatingScope classifies each unit under an actuation decision: directly
// hard-gated, indirectly stalled within a couple of cycles (its upstream
// work source is gated), or still running.
type gatingScope int

const (
	scopeRunning gatingScope = iota
	scopeStalled
	scopeGated
)

func classify(u Unit, fus, dl1, il1 bool) gatingScope {
	switch u {
	case UnitIntALU, UnitIntMult, UnitFPALU, UnitFPMult:
		if fus {
			return scopeGated
		}
	case UnitL1D:
		if dl1 {
			return scopeGated
		}
	case UnitL1I, UnitFetch, UnitBpred:
		if il1 {
			return scopeGated
		}
	case UnitResultBus, UnitRegFile:
		// Results stop flowing as soon as the execution units stop.
		if fus {
			return scopeStalled
		}
	case UnitLSQ, UnitL2:
		// Memory traffic stops when the D-cache is gated.
		if dl1 {
			return scopeStalled
		}
	case UnitRename:
		// Dispatch stops when fetch stops.
		if il1 {
			return scopeStalled
		}
	case UnitWindow:
		if fus && dl1 {
			return scopeStalled // nothing issues at all
		}
	}
	return scopeRunning
}

// GatedFloorCurrent returns the current the actuator can force within the
// control-relevant horizon (a fraction of the resonant period) by
// hard-gating the given unit groups. Crucially, units outside the gated
// scope keep running at a sustained activity level — this is why FU-only
// actuation "does not have the necessary leverage to reshape voltage
// quickly" (Section 5.2): the front end and caches carry on.
func (m *Model) GatedFloorCurrent(fus, dl1, il1 bool) float64 {
	var p, sumPeak float64
	for u := Unit(1); u < NumUnits; u++ {
		switch classify(u, fus, dl1, il1) {
		case scopeGated:
			p += m.p.Peak[u] * m.p.GatedFraction
		case scopeStalled:
			p += m.p.Peak[u] * m.p.IdleFraction
		default:
			p += m.p.Peak[u] * sustainedFraction
		}
		sumPeak += m.p.Peak[u]
	}
	p += m.p.Peak[UnitClock] * (0.35 + 0.65*(p/sumPeak))
	return p / m.p.VNominal
}

// PhantomCeilingCurrent returns the current reached when the actuator
// phantom-fires the given groups. Phantom firing happens in voltage-high
// states, which follow low activity, so the un-fired remainder of the
// chip is charged at the idle floor.
func (m *Model) PhantomCeilingCurrent(fus, dl1, il1 bool) float64 {
	var p, sumPeak float64
	for u := Unit(1); u < NumUnits; u++ {
		full := false
		switch u {
		case UnitIntALU, UnitIntMult, UnitFPALU, UnitFPMult:
			full = fus
		case UnitL1D:
			full = dl1
		case UnitL1I, UnitFetch, UnitBpred:
			full = il1
		}
		if full {
			p += m.p.Peak[u]
		} else {
			p += m.p.Peak[u] * m.p.IdleFraction
		}
		sumPeak += m.p.Peak[u]
	}
	p += m.p.Peak[UnitClock] * (0.35 + 0.65*(p/sumPeak))
	return p / m.p.VNominal
}
