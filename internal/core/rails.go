package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"didt/internal/actuator"
	"didt/internal/control"
	"didt/internal/pdn"
	"didt/internal/power"
	"didt/internal/sensor"
	"didt/internal/spec"
)

// The rail graph: every system is a pdn.Graph — one calibrated Network per
// delivery domain plus the cross-coupling matrix — and the power model's
// per-cycle current is split across the rails by delivery scope. A spec
// without a rails section is the 1-node graph of one whole-chip rail named
// "chip". Rails partition the delivery scopes, so a rail that feeds the
// whole chip is the only rail: it takes the whole-chip envelope, current
// and actuator authority, and a single-rail system is calibrated, solved
// and run exactly as it was before the graph existed. The public
// System.Net/Sim/Sensor fields point at rail 0.

// railState is one delivery domain's runtime state.
type railState struct {
	name       string
	net        *pdn.Network
	sensor     *sensor.Sensor // nil when the rail is not sensed
	th         control.Thresholds
	iMin, iMax float64
	vMin, vMax float64 // emergency band edges (net.VMin/VMax, hoisted)
	mask       power.ScopeMask

	minV  float64
	maxV  float64
	emerg uint64
}

// RailResult summarizes one rail of a run on a spec with a rails section.
type RailResult struct {
	Name          string
	IMin, IMax    float64 // rail calibration envelope (amperes)
	MinV, MaxV    float64 // observed after warmup
	Emergencies   uint64  // post-warmup cycles outside the rail's band
	EmergencyFreq float64
	Thresholds    control.Thresholds
}

// buildRails assembles the rail graph: the chip envelope (the spec's
// override where given, else the saturation probe's measurement), each
// rail's envelope — the chip's for a whole-chip rail, the sum of its
// scopes' otherwise — and calibrated network, the per-rail sensors, and
// the graph's simulator.
func (s *System) buildRails() error {
	sp := s.spec
	specs := sp.PDN.Rails
	if len(specs) == 0 {
		specs = []spec.RailSpec{{Name: "chip", Params: sp.PDN.Params, ImpedancePct: sp.PDN.ImpedancePct}}
	}
	masks, err := spec.PDNSpec{Rails: specs}.RailScopeMasks()
	if err != nil {
		return err
	}
	s.iMin, s.iMax = sp.PDN.EnvelopeIMin, sp.PDN.EnvelopeIMax
	var env envelope
	if s.iMin == 0 || s.iMax == 0 || len(specs) > 1 {
		// The probe memo keys on the as-given (pre-resolution) CPU/power
		// sections, so distinct sparse specs keep distinct entries even
		// when they resolve to the same configuration.
		if env, err = probeEnvelope(s.opts.Spec.CPU, s.opts.Spec.Power); err != nil {
			return err
		}
		if s.iMin == 0 {
			s.iMin = env.iMin
		}
		if s.iMax == 0 {
			s.iMax = env.iMax
		}
	}

	noise := sp.Sensor.NoiseMV * 1e-3
	seed := sp.Seed.Resolve(0)
	s.rails = make([]railState, len(specs))
	graphRails := make([]pdn.Rail, len(specs))
	for i, rs := range specs {
		r := &s.rails[i]
		*r = railState{name: rs.Name, mask: masks[i], iMin: s.iMin, iMax: s.iMax, minV: math.Inf(1), maxV: math.Inf(-1)}
		if r.mask != power.AllScopes {
			// A scoped rail's envelope is the sum of its scopes' (same
			// probe, same window, same percentile).
			r.iMin, r.iMax = 0, 0
			for sc := power.Scope(0); sc < power.NumScopes; sc++ {
				if r.mask.Has(sc) {
					r.iMin += env.scopeMin[sc]
					r.iMax += env.scopeMax[sc]
					s.railOf[sc] = i
				}
			}
		}
		// The voltage regulator's reference point: it holds the supply at
		// exactly nominal for the midpoint current, so workload swings
		// produce the symmetric over- and under-shoots of the paper's
		// Figures 2 and 6 (an idle machine sits slightly above nominal, a
		// saturated one slightly below, and transients ring around both).
		params := rs.Params
		params.IFloor = 0.5 * (r.iMin + r.iMax)
		if r.net, err = pdn.Calibrate(params, r.iMin, r.iMax, rs.ImpedancePct); err != nil {
			return fmt.Errorf("core: rail %q: %w", rs.Name, err)
		}
		r.vMin, r.vMax = r.net.VMin(), r.net.VMax()
		if len(sp.Sensor.Rails) == 0 || slices.Contains(sp.Sensor.Rails, rs.Name) {
			// Each rail draws its noise from its own stream so per-rail
			// readings stay independent yet seed-deterministic.
			if r.sensor, err = sensor.New(sp.Sensor.DelayCycles, noise, seed+int64(i)); err != nil {
				return err
			}
		}
		graphRails[i] = pdn.Rail{Name: rs.Name, Net: r.net}
	}
	matrix, err := sp.PDN.CouplingMatrix()
	if err != nil {
		return err
	}
	if s.graph, err = pdn.NewGraph(graphRails, matrix); err != nil {
		return err
	}
	k := len(s.rails)
	s.gsim = s.graph.NewSimulator()
	s.Net, s.Sim, s.Sensor = s.rails[0].net, s.gsim.RailSim(0), s.rails[0].sensor
	if k > 1 {
		s.scopeCur = make([]float64, power.NumScopes)
	}
	s.railCur = make([]float64, pdn.MaxBlock*k)
	s.railVolt = make([]float64, pdn.MaxBlock*k)
	s.railEps = make([]float64, k)
	return nil
}

// solve sets rail r's thresholds: the solver's answer for the configured
// delay against the rail's envelope and the actuator's authority over it,
// guard-banded for sensor error (Section 4.5: raise Low and lower High by
// the guard band, defaulting to the noise amplitude, so a worst-case
// misreading still triggers in time). When no guaranteed thresholds exist
// (e.g. FU-only actuation with large delay) the rail runs with maximally
// conservative trip points, so the instability is observable, as in
// Figure 17.
func (s *System) solve(r *railState, mech actuator.Mechanism) error {
	floor, ceil := s.authority(r, mech)
	th, err := control.NewSolver(r.net).Solve(control.Envelope{
		IMin: r.iMin, IMax: r.iMax,
		Floor: floor, Ceil: ceil,
		Settle: s.spec.Control.SettleCycles,
	}, s.spec.Sensor.DelayCycles)
	if err != nil {
		return fmt.Errorf("core: rail %q thresholds: %w", r.name, err)
	}
	guard := s.spec.Sensor.GuardBandMV * 1e-3
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
	if r.sensor == nil {
		return nil
	}
	return r.sensor.SetThresholds(th.Low, th.High)
}

// authority is the actuator's reach over rail r: what gating can force its
// current down to and phantom firing up to. A whole-chip rail takes the
// responder's own envelope. A scoped rail takes the mechanism's over its
// scopes, clamped into the rail's envelope — a rail the mechanism cannot
// reach keeps a floor at its own maximum (no authority), which the solver
// then reports as unstable rather than erroring out.
func (s *System) authority(r *railState, mech actuator.Mechanism) (floor, ceil float64) {
	if r.mask == power.AllScopes {
		return s.responder.Envelope(s.Power)
	}
	floor = s.Power.GatedFloorCurrent(r.mask, mech.FUs, mech.DL1, mech.IL1)
	ceil = s.Power.PhantomCeilingCurrent(r.mask, mech.FUs, mech.DL1, mech.IL1)
	return min(floor, r.iMax), max(ceil, r.iMin)
}

// ingest records the per-rail voltages of the len(cur) cycles starting at
// cycle first (whole-chip currents cur, voltages cycle-major): each rail's
// statistics and delay line, rail by rail in cycle order, then the
// aggregate emergency count (a cycle counts when any rail left its band)
// and traces. The histogram takes every rail's samples. It reads nothing
// the control half writes, so the driver may run it after later cycles'
// control halves.
//
//didt:hotpath
func (s *System) ingest(first uint64, cur, volts []float64) {
	hist, warm := s.hist, s.spec.Budget.WarmupCycles
	k := len(s.rails)
	var emerg uint // bit j: some rail left its band on cycle first+j
	for i := range s.rails {
		r := &s.rails[i]
		sensed := s.spec.Control.Enabled && r.sensor != nil
		for j, c := i, first; j < len(volts); j, c = j+k, c+1 {
			v := volts[j]
			if c >= warm {
				if v < r.minV {
					r.minV = v
				}
				if v > r.maxV {
					r.maxV = v
				}
				if v < r.vMin || v > r.vMax {
					r.emerg++
					emerg |= 1 << (c - first)
				}
				hist.Add(v)
			}
			if sensed {
				r.sensor.Push(v)
			}
		}
	}
	s.emerg += uint64(bits.OnesCount(emerg))
	if s.opts.RecordTraces {
		for j, total := range cur {
			s.curTr = append(s.curTr, total)        //didt:allow hotpath -- trace recording is a debug mode; steady-state sweeps never enter this branch
			s.voltTr = append(s.voltTr, volts[j*k]) //didt:allow hotpath -- trace recording is a debug mode; steady-state sweeps never enter this branch
		}
	}
}

// classify is the sensing step of the control half: every sensed rail's
// level lead cycles ahead of its newest sample, the aggregate (undervolt
// wins: gating beats phantom firing when rails disagree), and the DVS
// schedule advanced from its bound rail's level or the aggregate.
//
//didt:hotpath
func (s *System) classify(lead int) (level sensor.Level, anyLow, anyHigh bool) {
	bound := sensor.Normal // the DVS-bound rail's level (Normal when unsensed)
	for i := range s.rails {
		sen := s.rails[i].sensor
		if sen == nil {
			continue
		}
		l := sen.Classify(lead)
		if l == sensor.Low {
			anyLow = true
		} else if l == sensor.High {
			anyHigh = true
		}
		if i == s.dvsRail {
			bound = l
		}
	}
	if anyLow {
		level = sensor.Low
	} else if anyHigh {
		level = sensor.High
	}
	if s.dvs != nil {
		if s.dvsRail < 0 {
			bound = level
		}
		s.dvs.Observe(bound)
	}
	return level, anyLow, anyHigh
}

// railResults materializes the per-rail summaries for finish: nil unless
// the spec has a rails section, so a legacy result's bytes never carry
// the synthesized chip rail.
func (s *System) railResults() []RailResult {
	if !s.spec.PDN.MultiRail() {
		return nil
	}
	out := make([]RailResult, len(s.rails))
	for i := range s.rails {
		r := &s.rails[i]
		out[i] = RailResult{
			Name:          r.name,
			IMin:          r.iMin,
			IMax:          r.iMax,
			MinV:          r.minV,
			MaxV:          r.maxV,
			Emergencies:   r.emerg,
			EmergencyFreq: s.emergencyFreq(r.emerg),
			Thresholds:    r.th,
		}
	}
	return out
}

// Rails exposes the per-rail networks and calibration envelopes for
// inspection tools (cmd/pdnexplore): the one "chip" rail on a spec
// without a rails section.
func (s *System) Rails() []RailInfo {
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
