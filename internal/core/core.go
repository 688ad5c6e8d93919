// Package core couples every substrate into the paper's closed loop
// (Figure 7 plus the controller of Sections 4-5): each cycle the
// out-of-order core produces structural activity, the power model turns it
// into current, the PDN convolution turns current into supply voltage, the
// threshold sensor classifies the (delayed, noisy) voltage, and the
// actuator's response gates or phantom-fires the controlled units on the
// next cycle.
//
// This package is the paper's primary contribution in executable form: a
// microarchitectural dI/dt controller with solver-derived thresholds that
// bound supply excursions, coupled to a cycle-accurate machine.
package core

import (
	"fmt"
	"math"

	"didt/internal/actuator"
	"didt/internal/control"
	"didt/internal/cpu"
	"didt/internal/isa"
	"didt/internal/pdn"
	"didt/internal/power"
	"didt/internal/sensor"
	"didt/internal/spec"
	"didt/internal/stats"
	"didt/internal/telemetry"
	"didt/internal/trace"
)

// Options assembles a system: the serializable spec describing the run,
// plus the few runtime-only attachments (a code-level responder override,
// trace recording, a telemetry sink) that cannot live in configuration
// data. Zero spec fields take paper defaults; see spec.RunSpec.
type Options struct {
	// Spec is the complete run description — PDN, CPU, power model,
	// sensor, controller, actuator, budgets and seed. NewSystem resolves
	// it through spec.WithDefaults, so sparse specs work.
	Spec spec.RunSpec

	// Responder overrides the spec's named mechanism with an arbitrary
	// actuation policy (e.g. actuator.Asymmetric, the paper's Section 6
	// proposal). Responders are code, so they attach here rather than in
	// the serializable spec.
	Responder actuator.Responder

	RecordTraces bool // keep per-cycle current/voltage traces

	// Telemetry, when non-nil, receives typed per-cycle events (sensor
	// transitions, actuation engage/release, emergencies, voltage and
	// current samples) on a stream named TelemetryName. A nil tracer — or
	// a disabled one — costs one pointer test and one atomic load per
	// cycle, so the hot path is unchanged when observability is off.
	Telemetry     *telemetry.Tracer
	TelemetryName string
}

// Result summarizes one run.
type Result struct {
	Stats    cpu.Stats
	Cycles   uint64
	Energy   float64 // joules
	AvgPower float64 // watts

	IMin, IMax float64 // calibration envelope (amperes)
	MinV, MaxV float64 // observed after warmup
	VNominal   float64

	Emergencies   uint64  // post-warmup cycles outside the +-5% band
	EmergencyFreq float64 // Emergencies / measured cycles

	Hist *stats.Histogram // post-warmup voltage distribution

	Thresholds control.Thresholds
	LowEvents  uint64 // distinct gating actuations
	HighEvents uint64 // distinct phantom actuations

	// Rails carries per-rail summaries when the spec has a rails section
	// (spec order; nil otherwise). The top-level MinV/MaxV are then the
	// worst across rails, Emergencies counts cycles where any rail left
	// its band, and Thresholds/VNominal describe rail 0.
	Rails []RailResult

	// DVS schedule activity, when the spec carries a DVS section.
	DVSStepDowns uint64
	DVSStepUps   uint64

	CurrentTrace trace.Trace // populated when Options.RecordTraces
	VoltageTrace trace.Trace
}

// IPC is a convenience accessor.
func (r *Result) IPC() float64 { return r.Stats.IPC() }

// MaxDeviation is the run's worst-side voltage excursion from nominal:
// the larger of the droop below it and the overshoot above it (volts).
func (r *Result) MaxDeviation() float64 {
	dev := r.VNominal - r.MinV
	if up := r.MaxV - r.VNominal; up > dev {
		dev = up
	}
	return dev
}

// System is one assembled closed loop. Create with NewSystem; not safe for
// concurrent use.
type System struct {
	opts Options
	spec spec.RunSpec // resolved (WithDefaults applied)
	prog isa.Program

	// CPU and Power are the machine; Net, Sim and Sensor are rail 0's
	// network, streaming simulator and sensor.
	CPU    *cpu.CPU
	Power  *power.Model
	Net    *pdn.Network
	Sim    *pdn.Simulator
	Sensor *sensor.Sensor

	thresholds control.Thresholds
	policy     control.Policy
	responder  actuator.Responder
	counting   *actuator.Counting

	// Telemetry stream plus the previous-cycle states whose transitions
	// become events.
	stream      *telemetry.Stream
	lastLevel   sensor.Level
	gateActive  bool
	phantomOn   bool
	emergActive bool

	gating   cpu.Gating
	phantom  power.Phantom
	flushDue bool // flush recovery fired; the next machine step flushes

	// Whole-run replay accounting (see Run and replay.go): whether the
	// run's currents came from a machine trace, whether a controlled replay
	// resumed stepping, and how many cycles the trace supplied.
	replayed, resumed bool
	replayCycles      uint64

	skipped uint64 // dead machine cycles skipped (see skipDead)

	// Block-driver scratch (see drive.go): each in-flight cycle's machine
	// activity and whole-chip load current, reused so a step never zeroes
	// a fresh copy.
	acts [pdn.MaxBlock]cpu.Activity
	cur  [pdn.MaxBlock]float64
	rep  power.CycleReport // the machine step's power report

	// Rail-cycles whose voltages came from the PDN's modal recursion, and
	// how many of those were re-evaluated exactly (whole-run counters).
	modalCycles uint64
	exactEvals  uint64

	quietStreak uint64 // consecutive no-issue cycles (pessimistic ramp)
	rampLeft    int

	cycle  uint64
	emerg  uint64
	hist   *stats.Histogram
	curTr  trace.Trace
	voltTr trace.Trace
	iMin   float64 // chip envelope
	iMax   float64

	// The rail graph (see rails.go): one railState per delivery domain, at
	// least one.
	graph    *pdn.Graph
	gsim     *pdn.GraphSimulator
	rails    []railState
	railOf   [power.NumScopes]int // delivery scope -> owning rail index
	scopeCur []float64            // per-cycle scratch: current by scope (several rails only)
	railCur  []float64            // block scratch: current by rail, cycle-major
	railVolt []float64            // block scratch: voltage by rail, cycle-major
	railEps  []float64            // block scratch: modal error bound by rail

	// dvs, when non-nil, scales the machine's current draw by the schedule's
	// operating point, which control advances (see classify).
	dvs     *actuator.DVS
	dvsRail int // rail whose sensor drives the schedule; -1 = aggregate
}

// NewSystem builds the coupled system for a program as a rail graph; a
// spec without a rails section is the 1-node graph of one whole-chip
// rail named "chip". Each rail's PDN is calibrated so that the
// theoretical worst-case current waveform of its envelope exactly reaches
// the emergency boundary at 100% target impedance, then scaled by its
// impedance; with control enabled each rail's thresholds are solved for
// the configured delay and the actuator's authority over the rail, with
// noise guard-banding applied.
func NewSystem(prog isa.Program, opts Options) (*System, error) {
	sp := opts.Spec.WithDefaults()
	c, err := cpu.New(sp.CPU, prog)
	if err != nil {
		return nil, err
	}
	s := &System{
		opts:    opts,
		spec:    sp,
		prog:    prog,
		CPU:     c,
		Power:   power.New(sp.Power, c.Config()),
		hist:    stats.NewHistogram(0.90, 1.10, 200),
		dvsRail: -1,
	}
	s.stream = opts.Telemetry.Stream(opts.TelemetryName)
	if err := s.buildRails(); err != nil {
		return nil, err
	}

	s.responder = opts.Responder
	var mech actuator.Mechanism
	if s.responder == nil {
		if mech, err = sp.Mechanism(); err != nil {
			return nil, err
		}
		s.responder = mech
	} else if len(s.rails) > 1 {
		// Scoped authority needs the mechanism's unit set (see authority).
		return nil, fmt.Errorf("core: multi-rail specs do not support code-level responder overrides; use the actuator spec")
	}
	if d := sp.Actuator.DVS; d != nil {
		s.dvs = actuator.NewDVS(s.responder, d.Steps, d.TransitionCycles, d.HoldCycles, d.CurrentExponent)
		s.responder = s.dvs
		for i := range s.rails {
			if d.Rail != "" && s.rails[i].name == d.Rail {
				s.dvsRail = i
			}
		}
	}
	if !sp.Control.Enabled {
		return s, nil
	}
	// The counting wrapper feeds actuation tallies into the metrics
	// registry at the end of the run; one plain increment per cycle.
	s.counting = &actuator.Counting{R: s.responder}
	s.responder = s.counting
	for i := range s.rails {
		if err := s.solve(&s.rails[i], mech); err != nil {
			return nil, err
		}
	}
	s.thresholds = s.rails[0].th
	return s, nil
}

// Thresholds returns the solved (and guard-banded) thresholds; zero value
// when control is disabled.
func (s *System) Thresholds() control.Thresholds { return s.thresholds }

// Close releases pooled resources (the PDN simulator's ring buffer) back
// for reuse by other runs against the same network. The system must not be
// stepped afterwards; Close is optional but sweeps that build hundreds of
// systems should call it.
func (s *System) Close() {
	if s.gsim != nil {
		// Releases every rail's simulator, including the one aliased by
		// s.Sim.
		s.gsim.Release()
		s.gsim = nil
		s.Sim = nil
	}
}

// Envelope returns the chip's calibration current envelope.
func (s *System) Envelope() (iMin, iMax float64) { return s.iMin, s.iMax }

// Spec returns the resolved run spec the system was built from. Its Key()
// identifies the configuration in manifests and server responses.
func (s *System) Spec() spec.RunSpec { return s.spec }

// CycleState reports one cycle for trace-level consumers (Figure 11).
type CycleState struct {
	Cycle   uint64
	Current float64
	Voltage float64
	Level   sensor.Level
	Gating  cpu.Gating
	Phantom power.Phantom
	Done    bool
}

// StepCycle advances the loop one cycle: the block driver with a block of
// one, so the voltage is computed before this cycle's control half runs.
//
//didt:hotpath
func (s *System) StepCycle() CycleState {
	return s.stepBlock(0, 1, true)
}

// machineStep advances the machine half of the loop — a flush that flush
// recovery made due, actuator gating into the core, core activity into the
// power model — and returns the cycle's activity, whole-chip load current
// and completion flag, with each rail's share of the current in railCur
// (length len(s.rails)), all scaled by the DVS operating point when one is
// active. Rails partition the delivery scopes, so a lone rail feeds the
// whole chip and draws the whole current. A dead cycle after a dead one,
// under the same gating and phantom, is skipped rather than stepped (see
// skipDead); its activity and report are the last cycle's. The PDN
// convolution and everything downstream of the voltage live in the
// driver's settle and control halves.
//
//didt:hotpath
func (s *System) machineStep(act *cpu.Activity, railCur []float64) (float64, bool) {
	if s.flushDue {
		s.flushDue = false
		s.CPU.Flush(s.CPU.Config().BranchPenalty)
	}
	s.CPU.SetGating(s.gating)
	done := false
	if skipDead(s.CPU, s.Power, &s.rep, s.phantom, 1) == 1 {
		s.CPU.DeadActivity(act)
		s.skipped++
	} else {
		done = s.CPU.StepInto(act)
		s.Power.StepInto(act, s.phantom, &s.rep)
	}
	scale := 1.0
	if s.dvs != nil {
		scale = s.dvs.CurrentScale()
	}
	total := s.rep.Current * scale
	if len(railCur) == 1 {
		railCur[0] = total
		return total, done
	}
	s.Power.ScopeCurrents(&s.rep, s.scopeCur)
	for i := range railCur {
		railCur[i] = 0
	}
	for sc := 0; sc < int(power.NumScopes); sc++ {
		railCur[s.railOf[sc]] += s.scopeCur[sc]
	}
	for i := range railCur {
		railCur[i] *= scale
	}
	return total, done
}

// skipDead advances the machine c, pm over the dead cycles that follow the
// one just stepped into *r, at most limit of them, under the core's
// gating and phantom ph, and returns how many it skipped: cpu.SkipDead
// and the power model's Repeat, when the model is Quiet under ph. Each
// skipped cycle's report is *r, bit for bit.
//
//didt:hotpath
func skipDead(c *cpu.CPU, pm *power.Model, r *power.CycleReport, ph power.Phantom, limit uint64) uint64 {
	if !pm.Quiet(ph) {
		return 0
	}
	n := c.SkipDead(limit)
	pm.Repeat(n, r)
	return n
}

// emitCycle records this cycle's telemetry: per-cycle voltage and current
// samples plus transition events for the sensor level, actuation state and
// emergency state. StepCycle only calls it when the stream is enabled; the
// guard below re-establishes that dominance locally so the telemetryguard
// analyzer can prove every Emit is reached enabled-only without
// cross-function reasoning.
//
//didt:hotpath
func (s *System) emitCycle(current, v float64, level sensor.Level) {
	if !s.stream.Enabled() {
		return
	}
	c := s.cycle
	s.stream.Emit(c, telemetry.KindVoltage, 0, v)
	s.stream.Emit(c, telemetry.KindCurrent, 0, current)
	if level != s.lastLevel {
		s.stream.Emit(c, telemetry.KindSensorLevel, int32(level), v)
		s.lastLevel = level
	}
	if gate := s.gating.FUs || s.gating.DL1 || s.gating.IL1; gate != s.gateActive {
		s.stream.Emit(c, telemetry.KindGate, boolArg(gate), v)
		s.gateActive = gate
	}
	if ph := s.phantom.FUs || s.phantom.DL1 || s.phantom.IL1; ph != s.phantomOn {
		s.stream.Emit(c, telemetry.KindPhantom, boolArg(ph), v)
		s.phantomOn = ph
	}
	if emerg := v < s.Net.VMin() || v > s.Net.VMax(); emerg != s.emergActive {
		s.stream.Emit(c, telemetry.KindEmergency, boolArg(emerg), v)
		s.emergActive = emerg
	}
}

func boolArg(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

func boolCount(b bool) int64 { return int64(boolArg(b)) }

// Run advances the loop until the program retires or MaxCycles elapse and
// returns the aggregated result.
//
// Every run computes its voltages in the block driver's one PDN half
// (settle, drive.go): the network's O(1) modal recursion, taking a
// sample's exact voltage wherever a decision could depend on its last
// bits, so results are identical to stepping cycle by cycle. Runs differ
// only in where the currents come from. When the machine's currents can
// come from a trace (see replays):
//   - an open-loop run takes its machine's whole current trace from the
//     trace cache, stepping it there on a miss, and settles it block by
//     block;
//   - a controlled run whose trace is already cached replays it until its
//     control half first acts, then steps the machine from there on
//     (replayControlled); one that never acts never steps it.
//
// Every other run, a controlled one whose trace is not cached included,
// steps the machine up to pdn.MaxBlock cycles ahead of each PDN pass.
func (s *System) Run() (*Result, error) {
	if s.replays() {
		if !s.spec.Control.Enabled {
			return s.replay()
		}
		if mr, ok := traceCache.Peek(s.traceKey()); ok {
			return s.replayControlled(mr)
		}
	}
	s.runLoop()
	return s.stepped()
}

// stepped finishes a run whose machine has been stepped to its end.
func (s *System) stepped() (*Result, error) {
	if err := s.CPU.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return s.finish(s.CPU.Stats(), s.Power.TotalEnergy()), nil
}

// replays reports whether the run's machine currents can come from a
// machine trace: a single-rail run in which nothing but the controller's
// decisions feeds the computed voltage back into the machine, so the
// machine runs open loop until control first acts — the pessimistic ramp
// is off (its gating feeds the next machine cycle), no code-level
// responder is attached, no DVS schedule scales the current, and the
// telemetry stream is disabled (per-cycle emission is interleaved with
// stepping). Trace-cache entries hold one whole-chip current per cycle, so
// runs on several rails always step, and they hold at most maxTraceCycles,
// so longer budgets step too.
func (s *System) replays() bool {
	return len(s.rails) == 1 &&
		s.spec.Control.PessimisticRamp == 0 &&
		s.opts.Responder == nil &&
		s.dvs == nil &&
		!s.stream.Enabled() &&
		s.spec.Budget.MaxCycles <= maxTraceCycles
}

// finish aggregates the run's statistics into a Result and publishes the
// whole-run metrics. Every completion path — stepped and replayed —
// funnels through here.
func (s *System) finish(st cpu.Stats, energy float64) *Result {
	r := &Result{
		Stats:         st,
		Cycles:        s.cycle,
		Energy:        energy,
		IMin:          s.iMin,
		IMax:          s.iMax,
		MinV:          math.Inf(1),
		MaxV:          math.Inf(-1),
		VNominal:      s.Net.Params().VNominal,
		Emergencies:   s.emerg,
		EmergencyFreq: s.emergencyFreq(s.emerg),
		Hist:          s.hist,
		Thresholds:    s.thresholds,
		LowEvents:     s.policy.LowEvents,
		HighEvents:    s.policy.HighEvents,
		CurrentTrace:  s.curTr,
		VoltageTrace:  s.voltTr,
	}
	for i := range s.rails {
		r.MinV, r.MaxV = min(r.MinV, s.rails[i].minV), max(r.MaxV, s.rails[i].maxV)
	}
	r.Rails = s.railResults()
	if s.dvs != nil {
		r.DVSStepDowns, r.DVSStepUps = s.dvs.StepDowns, s.dvs.StepUps
	}
	if s.cycle > 0 {
		r.AvgPower = r.Energy / (float64(s.cycle) / s.Power.Params().ClockHz)
	}
	s.publishMetrics(r)
	return r
}

// emergencyFreq is n emergency cycles as a fraction of the post-warmup
// cycles run, or 0 before any.
func (s *System) emergencyFreq(n uint64) float64 {
	warm := s.spec.Budget.WarmupCycles
	if s.cycle <= warm {
		return 0
	}
	return float64(n) / float64(s.cycle-warm)
}

// publishMetrics folds the finished run into the process-wide metrics
// registry: whole-run aggregates only (a handful of atomic adds per run,
// never per cycle), so the simulation hot path is untouched.
func (s *System) publishMetrics(r *Result) {
	reg := telemetry.Default()
	reg.Counter("core.runs_total").Inc()
	reg.Counter("core.cycles_total").Add(int64(s.cycle))
	reg.Counter("core.emergencies_total").Add(int64(s.emerg))
	reg.Counter("core.gating_episodes_total").Add(int64(s.policy.LowEvents))
	reg.Counter("core.phantom_episodes_total").Add(int64(s.policy.HighEvents))
	reg.Counter("cpu.instructions_total").Add(int64(r.Stats.Instructions))
	reg.Counter("cpu.mispredicts_total").Add(int64(r.Stats.Mispredicts))
	reg.Counter("cpu.gated_cycles_total").Add(int64(r.Stats.GatedCycles))
	reg.Counter("pdn.modal_cycles_total").Add(int64(s.modalCycles))
	reg.Counter("pdn.exact_evals_total").Add(int64(s.exactEvals))
	reg.Counter("core.machine_skipped_cycles_total").Add(int64(s.skipped))
	reg.Counter("core.replayed_runs_total").Add(boolCount(s.replayed))
	reg.Counter("core.replay_resumed_total").Add(boolCount(s.resumed))
	reg.Counter("core.replay_cycles_total").Add(int64(s.replayCycles))
	for i := range s.rails {
		if sen := s.rails[i].sensor; sen != nil {
			samples, low, high := sen.Trips()
			reg.Counter("sensor.samples_total").Add(int64(samples))
			reg.Counter("sensor.low_trips_total").Add(int64(low))
			reg.Counter("sensor.high_trips_total").Add(int64(high))
		}
	}
	if s.counting != nil {
		reg.Counter("actuator.low_responses_total").Add(int64(s.counting.LowResponses))
		reg.Counter("actuator.high_responses_total").Add(int64(s.counting.HighResponses))
		reg.Counter("actuator.normal_responses_total").Add(int64(s.counting.NormalResponses))
	}
	reg.Histogram("core.run_ipc", 0, 8, 32).Observe(r.IPC())
}
