package core

import (
	"fmt"
	"math"

	"didt/internal/actuator"
	"didt/internal/control"
	"didt/internal/cpu"
	"didt/internal/pdn"
	"didt/internal/power"
	"didt/internal/sensor"
	"didt/internal/spec"
)

// Multi-rail assembly: when the spec carries a Rails section, the system
// replaces its single Network/Simulator pair with a pdn.Graph — one
// calibrated Network per delivery domain plus the cross-coupling matrix —
// and the power model's per-cycle current is split across the rails by
// delivery scope. Both kinds of system run on the one block driver
// (drive.go); this file supplies the multi-rail machine, ingest and
// classification steps. A legacy spec never reaches them, and the public
// System.Net/System.Sim fields point at rail 0 so existing accessors keep
// working.

// railState is one delivery domain's runtime state.
type railState struct {
	name       string
	net        *pdn.Network
	sensor     *sensor.Sensor // nil when the rail is not sensed
	th         control.Thresholds
	iMin, iMax float64
	mask       power.ScopeMask

	level sensor.Level
	minV  float64
	maxV  float64
	emerg uint64
}

// RailResult summarizes one rail of a multi-rail run.
type RailResult struct {
	Name          string
	IMin, IMax    float64 // rail calibration envelope (amperes)
	MinV, MaxV    float64 // observed after warmup
	Emergencies   uint64  // post-warmup cycles outside the rail's band
	EmergencyFreq float64
	Thresholds    control.Thresholds
}

// newMultiRailSystem finishes NewSystem for a spec with a Rails section:
// per-rail envelopes from the scoped saturation probe, per-rail
// calibration, the coupled graph, per-rail sensors, and — with control
// enabled — per-rail threshold solves against the mechanism's scoped
// authority.
func newMultiRailSystem(s *System, sp spec.RunSpec, opts Options) (*System, error) {
	if opts.Responder != nil {
		return nil, fmt.Errorf("core: multi-rail specs do not support code-level responder overrides; use the actuator spec")
	}
	masks, err := sp.PDN.RailScopeMasks()
	if err != nil {
		return nil, err
	}
	env, err := measureEnvelopeScoped(opts.Spec.CPU, opts.Spec.Power)
	if err != nil {
		return nil, err
	}
	s.iMin, s.iMax = env.iMin, env.iMax

	sensed := func(name string) bool {
		if len(sp.Sensor.Rails) == 0 {
			return true
		}
		for _, n := range sp.Sensor.Rails {
			if n == name {
				return true
			}
		}
		return false
	}

	noise := sp.Sensor.NoiseMV * 1e-3
	seed := sp.Seed.Resolve(0)
	rails := make([]railState, len(sp.PDN.Rails))
	graphRails := make([]pdn.Rail, len(sp.PDN.Rails))
	for i, rs := range sp.PDN.Rails {
		var iMin, iMax float64
		if masks[i] == power.AllScopes {
			// A rail feeding the whole chip uses the whole-chip envelope
			// (p98 of the summed current, not the sum of per-scope p98s),
			// so a one-rail graph calibrates exactly like the legacy path.
			iMin, iMax = env.iMin, env.iMax
		} else {
			for sc := power.Scope(0); sc < power.NumScopes; sc++ {
				if masks[i].Has(sc) {
					iMin += env.scopeMin[sc]
					iMax += env.scopeMax[sc]
				}
			}
		}
		params := rs.Params
		params.IFloor = 0.5 * (iMin + iMax)
		net, err := pdn.Calibrate(params, iMin, iMax, rs.ImpedancePct)
		if err != nil {
			return nil, fmt.Errorf("core: rail %q: %w", rs.Name, err)
		}
		rails[i] = railState{
			name: rs.Name,
			net:  net,
			iMin: iMin,
			iMax: iMax,
			mask: masks[i],
			minV: math.Inf(1),
			maxV: math.Inf(-1),
		}
		if sensed(rs.Name) {
			// Each rail draws its noise from its own stream so per-rail
			// readings stay independent yet seed-deterministic.
			sen, err := sensor.New(sp.Sensor.DelayCycles, noise, seed+int64(i))
			if err != nil {
				return nil, err
			}
			rails[i].sensor = sen
		}
		graphRails[i] = pdn.Rail{Name: rs.Name, Net: net}
	}
	matrix, err := sp.PDN.CouplingMatrix()
	if err != nil {
		return nil, err
	}
	graph, err := pdn.NewGraph(graphRails, matrix)
	if err != nil {
		return nil, err
	}
	s.graph = graph
	s.gsim = graph.NewSimulator()
	s.rails = rails
	s.Net = rails[0].net
	s.Sim = s.gsim.RailSim(0)
	s.scopeCur = make([]float64, power.NumScopes)
	s.railCur = make([]float64, pdn.MaxBlock*len(rails))
	s.railVolt = make([]float64, pdn.MaxBlock*len(rails))
	s.railEps = make([]float64, len(rails))
	for sc := power.Scope(0); sc < power.NumScopes; sc++ {
		for i := range rails {
			if rails[i].mask.Has(sc) {
				s.railOf[sc] = i
				break
			}
		}
	}

	mech, err := sp.Mechanism()
	if err != nil {
		return nil, err
	}
	s.responder = mech
	s.dvsRail = -1
	if d := sp.Actuator.DVS; d != nil {
		dvs := actuator.NewDVS(mech, d.Steps, d.TransitionCycles, d.HoldCycles, d.CurrentExponent)
		// The multi-rail loop drives the schedule itself, from the bound
		// rail's sensed level (or the aggregate when unbound).
		dvs.Driven = true
		if d.Rail != "" {
			for i := range rails {
				if rails[i].name == d.Rail {
					s.dvsRail = i
					break
				}
			}
		}
		s.dvs = dvs
		s.responder = dvs
	}

	if sp.Control.Enabled {
		s.counting = &actuator.Counting{R: s.responder}
		s.responder = s.counting
		guard := sp.Sensor.GuardBandMV * 1e-3
		for i := range rails {
			r := &rails[i]
			// The mechanism's authority over this rail: what gating can
			// force its scopes down to and phantom firing up to. Clamp into
			// the rail's envelope — a rail the mechanism cannot reach keeps
			// a floor at its own maximum (no authority), which the solver
			// then reports as unstable rather than erroring out.
			floor := s.Power.ScopedGatedFloorCurrent(r.mask, mech.FUs, mech.DL1, mech.IL1)
			ceil := s.Power.ScopedPhantomCeilingCurrent(r.mask, mech.FUs, mech.DL1, mech.IL1)
			if floor > r.iMax {
				floor = r.iMax
			}
			if ceil < r.iMin {
				ceil = r.iMin
			}
			th, err := control.NewSolver(r.net).Solve(control.Envelope{
				IMin: r.iMin, IMax: r.iMax,
				Floor: floor, Ceil: ceil,
				Settle: sp.Control.SettleCycles,
			}, sp.Sensor.DelayCycles)
			if err != nil {
				return nil, fmt.Errorf("core: rail %q thresholds: %w", r.name, err)
			}
			if th.Stable {
				lo, hi := th.Low+guard, th.High-guard
				if lo >= hi {
					th.Stable = false
				} else {
					th.Low, th.High, th.SafeWindow = lo, hi, hi-lo
				}
			}
			if !th.Stable {
				p := r.net.Params()
				th.Low = p.VNominal - 0.25*(p.VNominal-r.net.VMin())
				th.High = p.VNominal + 0.25*(r.net.VMax()-p.VNominal)
				th.SafeWindow = th.High - th.Low
			}
			r.th = th
			if r.sensor != nil {
				if err := r.sensor.SetThresholds(th.Low, th.High); err != nil {
					return nil, err
				}
			}
		}
		s.thresholds = rails[0].th
	}
	return s, nil
}

// machineStepMulti advances the machine half and splits the cycle's
// current across the rails by delivery scope (scaled by the DVS operating
// point when one is active). railCur must have length >= len(s.rails).
//
//didt:hotpath
func (s *System) machineStepMulti(act *cpu.Activity, railCur []float64) (float64, bool) {
	s.CPU.SetGating(s.gating)
	done := s.CPU.StepInto(act)
	rep := s.Power.Step(act, s.phantom)
	s.Power.ScopeCurrents(&rep, s.scopeCur)
	scale := 1.0
	if s.dvs != nil {
		scale = s.dvs.CurrentScale()
	}
	for i := range s.rails {
		railCur[i] = 0
	}
	for sc := 0; sc < int(power.NumScopes); sc++ {
		railCur[s.railOf[sc]] += s.scopeCur[sc]
	}
	for i := range s.rails {
		railCur[i] *= scale
	}
	return rep.Current * scale, done
}

// ingestMulti records cycle c's per-rail voltages: per-rail statistics,
// the aggregate ones (the worst across rails, so single-number summaries
// stay meaningful), traces, and each sensed rail's delay line.
//
//didt:hotpath
func (s *System) ingestMulti(c uint64, total float64, volts []float64) {
	if c >= s.spec.Budget.WarmupCycles {
		anyEmerg := false
		for i := range s.rails {
			r := &s.rails[i]
			v := volts[i]
			if v < r.minV {
				r.minV = v
			}
			if v > r.maxV {
				r.maxV = v
			}
			if v < r.net.VMin() || v > r.net.VMax() {
				r.emerg++
				anyEmerg = true
			}
			if v < s.minV {
				s.minV = v
			}
			if v > s.maxV {
				s.maxV = v
			}
			s.hist.Add(v)
		}
		if anyEmerg {
			s.emerg++
		}
	}
	if s.opts.RecordTraces {
		s.curTr = append(s.curTr, total)      //didt:allow hotpath -- trace recording is a debug mode; steady-state sweeps never enter this branch
		s.voltTr = append(s.voltTr, volts[0]) //didt:allow hotpath -- trace recording is a debug mode; steady-state sweeps never enter this branch
	}
	if s.spec.Control.Enabled {
		for i := range s.rails {
			if sen := s.rails[i].sensor; sen != nil {
				sen.Push(volts[i])
			}
		}
	}
}

// classifyRails is the multi-rail sensing step of the control half: every
// sensed rail's level lead cycles ahead of its newest sample, the
// aggregate (undervolt wins: gating beats phantom firing when rails
// disagree), and the DVS schedule advanced from its bound rail's level or
// the aggregate.
//
//didt:hotpath
func (s *System) classifyRails(lead int) (level sensor.Level, anyLow, anyHigh bool) {
	for i := range s.rails {
		r := &s.rails[i]
		if r.sensor == nil {
			r.level = sensor.Normal
			continue
		}
		r.level = r.sensor.Classify(lead)
		if r.level == sensor.Low {
			anyLow = true
		} else if r.level == sensor.High {
			anyHigh = true
		}
	}
	if anyLow {
		level = sensor.Low
	} else if anyHigh {
		level = sensor.High
	}
	if s.dvs != nil {
		drive := level
		if s.dvsRail >= 0 {
			drive = s.rails[s.dvsRail].level
		}
		s.dvs.Observe(drive)
	}
	return level, anyLow, anyHigh
}

// railResults materializes the per-rail summaries for finish.
func (s *System) railResults() []RailResult {
	if len(s.rails) == 0 {
		return nil
	}
	measured := uint64(0)
	if s.cycle > s.spec.Budget.WarmupCycles {
		measured = s.cycle - s.spec.Budget.WarmupCycles
	}
	out := make([]RailResult, len(s.rails))
	for i := range s.rails {
		r := &s.rails[i]
		rr := RailResult{
			Name:        r.name,
			IMin:        r.iMin,
			IMax:        r.iMax,
			MinV:        r.minV,
			MaxV:        r.maxV,
			Emergencies: r.emerg,
			Thresholds:  r.th,
		}
		if measured > 0 {
			rr.EmergencyFreq = float64(r.emerg) / float64(measured)
		}
		out[i] = rr
	}
	return out
}

// Rails exposes the per-rail networks and calibration envelopes for
// inspection tools (cmd/pdnexplore). Nil on a single-rail system.
func (s *System) Rails() []RailInfo {
	if len(s.rails) == 0 {
		return nil
	}
	out := make([]RailInfo, len(s.rails))
	for i := range s.rails {
		r := &s.rails[i]
		out[i] = RailInfo{
			Name:       r.name,
			Net:        r.net,
			IMin:       r.iMin,
			IMax:       r.iMax,
			Coupling:   s.graph.CouplingInto(i),
			Thresholds: r.th,
		}
	}
	return out
}

// RailInfo describes one assembled rail.
type RailInfo struct {
	Name       string
	Net        *pdn.Network
	IMin, IMax float64
	Coupling   []float64 // incoming coefficients, spec order; nil when uncoupled
	Thresholds control.Thresholds
}
