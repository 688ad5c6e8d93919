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
	"math"
	"sync/atomic"

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
	p Params

	// spread[class] is a ring of "units busy" counts for future cycles,
	// fed at issue time with the operation's full latency; pos is the
	// current cycle's slot. lat[class] is the number of cycles an issue of
	// that class spreads over.
	spread [isa.NumClasses][spreadLen]int
	lat    [isa.NumClasses]int
	pos    int

	// quietFrom is the first cycle from which every spreading ring is
	// empty: no issue so far spreads into it. ph is the phantom the last
	// StepInto saw.
	quietFrom uint64
	ph        Phantom

	t *unitTables // read only; shared by models of one configuration

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

// New builds a model for the given core configuration. Zero fields of cfg
// take the Table 1 defaults; the resolved configuration must pass
// cpu.Config.Validate, as every core cpu.New builds does, and New panics
// if it does not, since it sizes the unit tables from it.
func New(p Params, cfg cpu.Config) *Model {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		panic("power: " + err.Error())
	}
	m := &Model{p: p.WithDefaults()}
	for cl := range m.lat {
		m.lat[cl] = classLatency(cfg, isa.Class(cl))
	}
	for u := Unit(1); u < NumUnits; u++ {
		m.sumPeak += m.p.Peak[u]
	}
	m.t = tablesFor(m.p, cfg)
	return m
}

// unitTables holds every unit's ungated power at every activity count it
// can see, computed through unitPower. Unit u's count n sits at
// tab[off[u]+n] for n in [0, lim[u]]; lim[u] is the count's full-scale
// value, at and past which the activity fraction clamps to 1. The window
// and the LSQ read a second count b in [0, stride[u]), at
// off[u]+a*stride[u]+b; a pair outside that table takes the formula.
// A table set is immutable once built.
type unitTables struct {
	key         tableKey
	p           Params
	tab         []float64
	off         [NumUnits]int
	lim, stride [NumUnits]int
}

// tableKey is what a table set depends on: the core configuration and the
// bits of the idle and gated fractions and the peaks (== on floats would
// let a -0 peak reuse a +0 peak's entries).
type tableKey struct {
	cfg  cpu.Config
	bits [2 + NumUnits]uint64
}

// lastTables is the most recently built table set. Every model of a sweep
// shares one configuration, so New reuses it instead of allocating ~24 KB
// per system, garbage that raised an open-loop sweep's peak RSS.
var lastTables atomic.Pointer[unitTables]

// tablesFor returns the table set for resolved parameters and a validated
// configuration, reusing the last one built when it matches.
func tablesFor(p Params, cfg cpu.Config) *unitTables {
	key := tableKey{cfg: cfg}
	key.bits[0], key.bits[1] = math.Float64bits(p.IdleFraction), math.Float64bits(p.GatedFraction)
	for u, v := range p.Peak {
		key.bits[2+u] = math.Float64bits(v)
	}
	if t := lastTables.Load(); t != nil && t.key == key {
		return t
	}
	t := &unitTables{key: key, p: p}
	t.lim = [NumUnits]int{
		UnitFetch: cfg.FetchWidth, UnitBpred: 2, UnitL1I: 1, UnitRename: cfg.DecodeWidth,
		UnitWindow: cfg.RUUSize, UnitLSQ: cfg.LSQSize,
		UnitRegFile: 3 * cfg.IssueWidth, UnitResultBus: cfg.IssueWidth,
		UnitIntALU: cfg.IntALU, UnitIntMult: cfg.IntMult, UnitFPALU: cfg.FPALU, UnitFPMult: cfg.FPMult,
		UnitL1D: cfg.MemPorts, UnitL2: 1,
	}
	for u := range t.stride {
		t.stride[u] = 1
	}
	t.stride[UnitWindow], t.stride[UnitLSQ] = cfg.IssueWidth+1, cfg.MemPorts+1
	n := 0
	for u := Unit(1); u < NumUnits; u++ {
		t.off[u] = n
		n += (t.lim[u] + 1) * t.stride[u]
	}
	t.tab = make([]float64, n)
	for u := Unit(1); u < NumUnits; u++ {
		tu := t.tab[t.off[u]:]
		for a := 0; a <= t.lim[u]; a++ {
			if t.stride[u] == 1 {
				tu[a] = unitPower(p.Peak[u], float64(a)/float64(t.lim[u]), p.IdleFraction)
				continue
			}
			for b := 0; b < t.stride[u]; b++ {
				tu[a*t.stride[u]+b] = t.power2(u, a, b)
			}
		}
	}
	lastTables.Store(t)
	return t
}

// Params returns the resolved parameters.
func (m *Model) Params() Params { return m.p }

// classLatency mirrors the core's execution latencies for spreading.
// Validate holds every latency in [1, MaxFULatency], so it fits the ring.
func classLatency(cfg cpu.Config, cl isa.Class) int {
	switch cl {
	case isa.ClassIntALU, isa.ClassBranch:
		return cfg.LatIntALU
	case isa.ClassIntMult:
		return cfg.LatIntMult
	case isa.ClassIntDiv:
		return cfg.LatIntDiv
	case isa.ClassFPAdd:
		return cfg.LatFPAdd
	case isa.ClassFPMult:
		return cfg.LatFPMult
	case isa.ClassFPDiv:
		return cfg.LatFPDiv
	}
	return 1
}

// unitPower is an ungated unit's power given its peak and its activity
// fraction; look adds the actuator's hard gating and phantom firing.
func unitPower(peak, frac, idle float64) float64 {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	// cc3: idle floor plus activity-proportional dynamic power.
	return peak * (idle + (1-idle)*frac)
}

// power2 is a two-count unit's ungated power: the window's activity mixes
// RUU occupancy with issue, the LSQ's its occupancy with memory issue.
func (t *unitTables) power2(u Unit, a, b int) float64 {
	var frac float64
	if u == UnitWindow {
		frac = 0.45*(float64(a)/float64(t.key.cfg.RUUSize)) + 0.55*(float64(b)/float64(t.key.cfg.IssueWidth))
	} else {
		frac = 0.4*(float64(a)/float64(t.key.cfg.LSQSize)) + 0.6*(float64(b)/float64(t.key.cfg.MemPorts))
	}
	return unitPower(t.p.Peak[u], frac, t.p.IdleFraction)
}

// look is unit u's power at count n: the full peak when phantom-fired,
// the gated residual when hard-gated, otherwise the table entry at n
// clamped to [0, lim[u]], which equals unitPower at n because the
// fraction n/lim[u] clamps to [0, 1].
func (m *Model) look(u Unit, n int, hardGated, phantom bool) float64 {
	switch {
	case phantom:
		return m.p.Peak[u]
	case hardGated:
		return m.p.Peak[u] * m.p.GatedFraction
	}
	t := m.t
	return t.tab[t.off[u]+min(max(n, 0), t.lim[u])]
}

// look2 is a two-count unit's power (never gated or phantom-fired).
func (m *Model) look2(u Unit, a, b int) float64 {
	t := m.t
	if uint(a) <= uint(t.lim[u]) && uint(b) < uint(t.stride[u]) {
		return t.tab[t.off[u]+a*t.stride[u]+b]
	}
	return t.power2(u, a, b)
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
		m.quietFrom = max(m.quietFrom, m.cycles+uint64(m.lat[cl]))
		ring := &m.spread[cl]
		for k, idx := 0, m.pos; k < m.lat[cl]; k, idx = k+1, (idx+1)&spreadMask {
			ring[idx] += n
		}
	}
	busy := &m.spread
	pos := m.pos
	peak := &m.p.Peak
	pu := &r.PerUnit

	// Front end.
	pu[UnitFetch] = m.look(UnitFetch, act.Fetched, act.IL1Gated, ph.IL1)
	pu[UnitBpred] = m.look(UnitBpred, act.BpredLookups, act.IL1Gated, ph.IL1)
	pu[UnitL1I] = m.look(UnitL1I, act.ICacheAccess, act.IL1Gated, ph.IL1)
	pu[UnitRename] = m.look(UnitRename, act.Dispatched, false, false)

	// Window and register machinery.
	pu[UnitWindow] = m.look2(UnitWindow, act.RUUOccupancy, act.Issued)
	pu[UnitLSQ] = m.look2(UnitLSQ, act.LSQOccupancy, act.IssuedByClass[isa.ClassLoad]+act.IssuedByClass[isa.ClassStore])
	pu[UnitRegFile] = m.look(UnitRegFile, act.RegReads+act.RegWrites, false, false)
	pu[UnitResultBus] = m.look(UnitResultBus, act.Completed, false, false)

	// Execution units, with multi-cycle spreading.
	pu[UnitIntALU] = m.look(UnitIntALU, busy[isa.ClassIntALU][pos]+busy[isa.ClassBranch][pos], act.FUsGated, ph.FUs)
	pu[UnitIntMult] = m.look(UnitIntMult, busy[isa.ClassIntMult][pos]+busy[isa.ClassIntDiv][pos], act.FUsGated, ph.FUs)
	pu[UnitFPALU] = m.look(UnitFPALU, busy[isa.ClassFPAdd][pos], act.FUsGated, ph.FUs)
	pu[UnitFPMult] = m.look(UnitFPMult, busy[isa.ClassFPMult][pos]+busy[isa.ClassFPDiv][pos], act.FUsGated, ph.FUs)

	// Data-side caches.
	pu[UnitL1D] = m.look(UnitL1D, act.DCacheAccess, act.DL1Gated, ph.DL1)
	pu[UnitL2] = m.look(UnitL2, act.L2Access, false, false)

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
	m.ph = ph

	// Advance the spreading calendar.
	for cl := range m.spread {
		m.spread[cl][pos] = 0
	}
	m.pos = (pos + 1) & spreadMask
}

// Quiet reports whether the last StepInto ran under phantom ph and read
// empty spreading rings. The rings then stay empty until the next issue,
// so a StepInto of the same activity under ph would write the same report
// again.
func (m *Model) Quiet(ph Phantom) bool { return ph == m.ph && m.cycles > m.quietFrom }

// Repeat accounts n more cycles of the activity and phantom the last
// StepInto saw, whose report *r still holds. It requires Quiet under that
// phantom, so each of those cycles would write *r again. It adds each
// cycle's energy on its own, in cycle order, so TotalEnergy's bits are
// those of n StepInto calls.
//
//didt:hotpath
func (m *Model) Repeat(n uint64, r *CycleReport) {
	e := r.Power / m.p.ClockHz
	for range n {
		m.totalEnergy += e
	}
	m.cycles += n
	m.pos = int((uint64(m.pos) + n) & spreadMask)
}

// TotalEnergy returns the accumulated energy in joules.
func (m *Model) TotalEnergy() float64 { return m.totalEnergy }

// Cycles returns how many cycles have been accounted.
func (m *Model) Cycles() uint64 { return m.cycles }

// MinCurrent returns the quiescent current of the units in the given
// scopes: every unit idle under conditional clock gating. At AllScopes
// this is the regulator's calibration point (IFloor) and the floor the
// actuator can force current toward. The clock tree belongs to uncore and
// idles at its activity-tracking floor.
func (m *Model) MinCurrent(mask ScopeMask) float64 {
	var p float64
	for u := Unit(1); u < NumUnits; u++ {
		if mask.Has(scopeOf[u]) {
			p += m.p.Peak[u] * m.p.IdleFraction
		}
	}
	if mask.Has(ScopeUncore) {
		p += m.p.Peak[UnitClock] * (0.35 + 0.65*m.p.IdleFraction)
	}
	return p / m.p.VNominal
}

// MaxCurrent returns the worst-case current of the units in the given
// scopes: every unit at peak.
func (m *Model) MaxCurrent(mask ScopeMask) float64 {
	var p float64
	for u := Unit(0); u < NumUnits; u++ {
		if mask.Has(scopeOf[u]) {
			p += m.p.Peak[u]
		}
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

// GatedFloorCurrent returns the current the units in the given scopes
// draw when the actuator hard-gates the given unit groups, within the
// control-relevant horizon (a fraction of the resonant period).
// Crucially, units outside the gated groups keep running at a sustained
// activity level — this is why FU-only actuation "does not have the
// necessary leverage to reshape voltage quickly" (Section 5.2): the front
// end and caches carry on. The clock term uses the whole-chip activity
// fraction — the clock tree spans the die regardless of which rail feeds
// it — so the floors of a scope partition sum to the AllScopes floor.
func (m *Model) GatedFloorCurrent(mask ScopeMask, fus, dl1, il1 bool) float64 {
	var p, sumPeak, sel float64
	for u := Unit(1); u < NumUnits; u++ {
		var f float64
		switch classify(u, fus, dl1, il1) {
		case scopeGated:
			f = m.p.GatedFraction
		case scopeStalled:
			f = m.p.IdleFraction
		default:
			f = sustainedFraction
		}
		pu := m.p.Peak[u] * f
		p += pu
		sumPeak += m.p.Peak[u]
		if mask.Has(scopeOf[u]) {
			sel += pu
		}
	}
	if mask.Has(ScopeUncore) {
		sel += m.p.Peak[UnitClock] * (0.35 + 0.65*(p/sumPeak))
	}
	return sel / m.p.VNominal
}

// PhantomCeilingCurrent returns the current the units in the given scopes
// draw when the actuator phantom-fires the given groups. Phantom firing
// happens in voltage-high states, which follow low activity, so the
// un-fired remainder of the chip is charged at the idle floor. The clock
// term again tracks whole-chip activity.
func (m *Model) PhantomCeilingCurrent(mask ScopeMask, fus, dl1, il1 bool) float64 {
	var p, sumPeak, sel float64
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
		pu := m.p.Peak[u] * m.p.IdleFraction
		if full {
			pu = m.p.Peak[u]
		}
		p += pu
		sumPeak += m.p.Peak[u]
		if mask.Has(scopeOf[u]) {
			sel += pu
		}
	}
	if mask.Has(ScopeUncore) {
		sel += m.p.Peak[UnitClock] * (0.35 + 0.65*(p/sumPeak))
	}
	return sel / m.p.VNominal
}
