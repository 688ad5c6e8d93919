package core

import (
	"math"

	"didt/internal/cpu"
	"didt/internal/pdn"
	"didt/internal/power"
	"didt/internal/sensor"
)

// The block driver: the one streaming closed-loop spine, shared by the
// single-rail and multi-rail systems, which differ only in their machine,
// convolution, ingest and classification steps.
//
// The sensor reports the supply D cycles late, so the control decision at
// cycle m — and through it the machine at cycle m+1 — depends on the
// voltage of cycle m-D and nothing later. The driver spends that slack: it
// steps the machine ahead through a block of up to D+1 cycles, running
// each cycle's control half between its machine step and the next exactly
// as the cycle-by-cycle loop does (classifying the already-known voltage
// of D cycles before), then computes all of the block's voltages in one
// pass of the PDN block kernel, ingests them in cycle order, and finishes
// with the last cycle's control half. Per-chain accumulation order is the
// single-cycle kernel's, noise draws stay in cycle order, and control(m)
// still runs between machine steps m and m+1, so a run is bit-identical at
// any block length.

// blockLen is the number of cycles the driver advances per PDN pass: the
// sensor delay plus one with control on (capped at pdn.MaxBlock), the cap
// with control off (nothing reads the voltage until the run ends), and one
// whenever a telemetry stream is live, because per-cycle events interleave
// the voltage with the control decision of the same cycle.
func (s *System) blockLen() int {
	if s.stream.Enabled() {
		return 1
	}
	if !s.spec.Control.Enabled {
		return pdn.MaxBlock
	}
	return min(s.spec.Sensor.DelayCycles+1, pdn.MaxBlock)
}

// runLoop advances the loop block by block until the program retires or
// the cycle budget is spent. Voltages come from the PDN's modal recursion
// unless the run publishes them (recorded traces, a live telemetry
// stream).
func (s *System) runLoop() {
	b := uint64(s.blockLen())
	exact := s.opts.RecordTraces || s.stream.Enabled()
	for s.cycle < s.spec.Budget.MaxCycles {
		if s.stepBlock(int(min(b, s.spec.Budget.MaxCycles-s.cycle)), exact).Done {
			break
		}
	}
}

// stepBlock advances up to n (1..pdn.MaxBlock) cycles, stopping early when
// the program retires, and returns the last cycle's state. With exact
// false the block's voltages come from the PDN's modal recursion and are
// exact only where ingest could tell the difference (see needsExact); the
// returned state's Voltage is then such an estimate.
//
//didt:hotpath
func (s *System) stepBlock(n int, exact bool) CycleState {
	b := 0
	done := false
	for {
		if s.rails == nil {
			s.cur[b], done = s.machineStep(&s.acts[b])
		} else {
			k := len(s.rails)
			s.cur[b], done = s.machineStepMulti(&s.acts[b], s.railCur[b*k:b*k+k])
		}
		b++
		if done || b == n {
			break
		}
		// With m0 the block's first cycle: cycle m0+b-1's control half,
		// b cycles ahead of the sensor's newest sample (voltage m0-1).
		s.control(&s.acts[b-1], b)
		s.cycle++
	}
	first := s.cycle + 1 - uint64(b)
	if s.rails == nil {
		if exact {
			s.Sim.StepBlock(s.cur[:b], s.volt[:b])
		} else if eps := s.Sim.StepModal(s.cur[:b], s.volt[:b]); eps > 0 {
			s.modalCycles += uint64(b)
			if s.needsExact(first, s.volt[:b], eps) {
				s.Sim.ExactBlock(s.volt[:b])
				s.exactEvals += uint64(b)
			}
		}
		for j := 0; j < b; j++ {
			s.ingest(first+uint64(j), s.cur[j], s.volt[j])
		}
	} else {
		k := len(s.rails)
		if exact {
			s.gsim.StepBlock(s.railCur[:b*k], s.railVolt[:b*k])
		} else {
			volts := s.railVolt[:b*k]
			s.gsim.StepModal(s.railCur[:b*k], volts, s.railEps)
			for i := range s.rails {
				if s.railEps[i] == 0 {
					continue // no modal form: the rail's voltages are exact
				}
				s.modalCycles += uint64(b)
				if s.railNeedsExact(i, first, volts) {
					s.gsim.ExactRail(i, volts)
					s.exactEvals += uint64(b)
				}
			}
		}
		for j := 0; j < b; j++ {
			s.volt[j] = s.railVolt[j*k]
			s.ingestMulti(first+uint64(j), s.cur[j], s.railVolt[j*k:j*k+k])
		}
	}
	return s.endCycle(&s.acts[b-1], s.cur[b-1], s.volt[b-1], done)
}

// needsExact reports whether any modal estimate f[j] of a single-rail
// block, each within eps of its exact voltage, could be ingested
// differently from that voltage: a possible new min or max, within eps of
// the emergency band's edges, straddling a histogram bin edge, or within
// eps plus the noise amplitude of a sensor threshold. Every ingest
// decision is a comparison monotone in the voltage, so an estimate that
// passes all four tests is ingested exactly as its exact voltage would be.
//
//didt:hotpath
func (s *System) needsExact(first uint64, f []float64, eps float64) bool {
	warm := s.spec.Budget.WarmupCycles
	vmin, vmax := s.Net.VMin(), s.Net.VMax()
	for j, v := range f {
		if first+uint64(j) >= warm {
			if v-eps < s.minV || v+eps > s.maxV ||
				math.Abs(v-vmin) <= eps || math.Abs(v-vmax) <= eps ||
				s.hist.Bin(v-eps) != s.hist.Bin(v+eps) {
				return true
			}
		}
		if s.spec.Control.Enabled && !s.Sensor.Decides(v, eps) {
			return true
		}
	}
	return false
}

// railNeedsExact is needsExact for rail i of a multi-rail block (f
// cycle-major, bound s.railEps[i]), adding the rail's own min/max and
// band to the aggregate ones.
//
//didt:hotpath
func (s *System) railNeedsExact(i int, first uint64, f []float64) bool {
	warm := s.spec.Budget.WarmupCycles
	k := len(s.rails)
	r := &s.rails[i]
	eps := s.railEps[i]
	vmin, vmax := r.net.VMin(), r.net.VMax()
	for j := 0; j*k < len(f); j++ {
		v := f[j*k+i]
		if first+uint64(j) >= warm &&
			(v-eps < r.minV || v+eps > r.maxV || v-eps < s.minV || v+eps > s.maxV ||
				math.Abs(v-vmin) <= eps || math.Abs(v-vmax) <= eps ||
				s.hist.Bin(v-eps) != s.hist.Bin(v+eps)) {
			return true
		}
		if s.spec.Control.Enabled && r.sensor != nil && !r.sensor.Decides(v, eps) {
			return true
		}
	}
	return false
}

// endCycle closes a cycle whose voltage has been ingested: its control
// half, telemetry, the reported state, and the cycle counter.
//
//didt:hotpath
func (s *System) endCycle(act *cpu.Activity, current, v float64, done bool) CycleState {
	level := s.control(act, 0)
	if s.stream.Enabled() {
		s.emitCycle(current, v, level)
	}
	st := CycleState{
		Cycle:   s.cycle,
		Current: current,
		Voltage: v,
		Level:   level,
		Gating:  s.gating,
		Phantom: s.phantom,
		Done:    done,
	}
	s.cycle++
	return st
}

// control is the half of cycle s.cycle that runs between its machine step
// and the next: the sensor level lead cycles ahead of the newest ingested
// voltage, policy, responder and flush recovery, then the pessimistic
// ramp. It returns the sensed level (the aggregate on a multi-rail system).
//
//didt:hotpath
func (s *System) control(act *cpu.Activity, lead int) sensor.Level {
	level := sensor.Normal
	if s.spec.Control.Enabled {
		var anyLow, anyHigh bool
		if s.rails == nil {
			level = s.Sensor.Classify(lead)
			anyLow, anyHigh = level == sensor.Low, level == sensor.High
		} else {
			level, anyLow, anyHigh = s.classifyRails(lead)
		}
		lowBefore := s.policy.LowEvents
		gate, phantom := s.policy.Update(anyLow, anyHigh)
		g, p := s.responder.Respond(level)
		if !gate {
			g = cpu.Gating{}
		}
		if !phantom {
			p = power.Phantom{}
		}
		s.gating, s.phantom = g, p
		if s.spec.Control.FlushRecovery && s.policy.LowEvents > lowBefore {
			s.CPU.Flush(s.CPU.Config().BranchPenalty)
		}
	}

	// Pessimistic ramp policy (Section 2.3's alternative to the greedy
	// default): after a quiet spell, restart execution at half rate. The
	// ramp's gating is recomputed every cycle on top of the controller's
	// decision (or from scratch when no controller runs).
	if s.spec.Control.PessimisticRamp > 0 {
		if !s.spec.Control.Enabled {
			s.gating = cpu.Gating{}
		}
		if act.Issued == 0 {
			s.quietStreak++
		} else {
			if s.quietStreak >= 8 {
				s.rampLeft = s.spec.Control.PessimisticRamp
			}
			s.quietStreak = 0
		}
		if s.rampLeft > 0 {
			s.rampLeft--
			if s.cycle%2 == 0 {
				s.gating.FUs = true
			}
		}
	}
	return level
}
