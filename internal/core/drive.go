package core

import (
	"math"

	"didt/internal/cpu"
	"didt/internal/pdn"
	"didt/internal/power"
	"didt/internal/sensor"
)

// The block driver: the one streaming closed-loop spine of every rail
// graph, one rail or several. Its PDN half, settle, is also the whole of
// an open-loop replay, and with the control half the whole of a controlled
// replay until control first acts (replay.go).
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
		if s.stepBlock(0, int(min(b, s.spec.Budget.MaxCycles-s.cycle)), exact).Done {
			break
		}
	}
}

// stepBlock advances the cycles b..n-1 (n at most pdn.MaxBlock) of a block,
// stopping early when the program retires, settles the whole block, and
// returns its last cycle's state. A block starts at b = 0; a resumed
// replay (see resume) finishes one from b > 0, with the currents of cycles
// 0..b-1 already in s.cur and s.railCur and s.cycle at the block's cycle b.
// With exact false the block's voltages come from the PDN's modal
// recursion and are exact only where ingest could tell the difference (see
// railNeedsExact); the returned state's Voltage is then such an estimate.
//
//didt:hotpath
func (s *System) stepBlock(b, n int, exact bool) CycleState {
	k := len(s.rails)
	done := false
	for {
		s.cur[b], done = s.machineStep(&s.acts[b], s.railCur[b*k:b*k+k])
		b++
		if done || b == n {
			break
		}
		// With m0 the block's first cycle: cycle m0+b-1's control half,
		// b cycles ahead of the sensor's newest sample (voltage m0-1).
		s.control(&s.acts[b-1], b)
		s.cycle++
	}
	s.settle(s.cycle+1-uint64(b), s.cur[:b], s.railCur[:b*k], exact)
	return s.endCycle(&s.acts[b-1], s.cur[b-1], s.railVolt[(b-1)*k], done)
}

// settle is the PDN half of a block: it computes the per-rail voltages of
// the len(cur) (1..pdn.MaxBlock) cycles starting at cycle first, whose
// whole-chip load currents are cur and per-rail ones railCur
// (cycle-major), and ingests them in cycle order. With exact false they
// come from the modal recursion, re-evaluated exactly wherever
// railNeedsExact says an ingest decision could depend on it. stepBlock
// calls it with the machine's currents; the replays (replay.go) with the
// currents of a recorded machine trace, which they only read.
//
//didt:hotpath
func (s *System) settle(first uint64, cur, railCur []float64, exact bool) {
	b := len(cur)
	k := len(s.rails)
	volts := s.railVolt[:b*k]
	if exact {
		s.gsim.StepBlock(railCur, volts)
	} else {
		s.gsim.StepModal(railCur, volts, s.railEps)
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
	s.ingest(first, cur, volts)
}

// railNeedsExact reports whether any modal estimate of rail i in the block
// f (cycle-major), each within s.railEps[i] of its exact voltage, could be
// ingested differently from that voltage: a possible new rail min or max
// (the aggregate ones are taken over the rails'), within eps of the rail's
// emergency band edges, straddling a histogram bin edge, or within eps
// plus the noise amplitude of a sensor threshold. Every ingest decision is
// a comparison monotone in the voltage, so an estimate that passes all of
// these tests is ingested exactly as its exact voltage would be.
//
//didt:hotpath
func (s *System) railNeedsExact(i int, first uint64, f []float64) bool {
	warm := s.spec.Budget.WarmupCycles
	k := len(s.rails)
	r := &s.rails[i]
	eps := s.railEps[i]
	sensed := s.spec.Control.Enabled && r.sensor != nil
	for c, j := first, i; j < len(f); c, j = c+1, j+k {
		v := f[j]
		if c >= warm &&
			(v-eps < r.minV || v+eps > r.maxV ||
				math.Abs(v-r.vMin) <= eps || math.Abs(v-r.vMax) <= eps ||
				s.hist.Bin(v-eps) != s.hist.Bin(v+eps)) {
			return true
		}
		if sensed && !r.sensor.Decides(v, eps) {
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
// ramp. It returns the sensed level (the aggregate across rails). It
// writes only control state — gating, phantom, a due flush — and never the
// machine, so a replay can run it before the machine has been stepped.
//
//didt:hotpath
func (s *System) control(act *cpu.Activity, lead int) sensor.Level {
	level := sensor.Normal
	if s.spec.Control.Enabled {
		var anyLow, anyHigh bool
		level, anyLow, anyHigh = s.classify(lead)
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
			s.flushDue = true // machineStep flushes before the next cycle
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
