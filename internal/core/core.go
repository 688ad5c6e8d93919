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

	// ProgKey, when non-empty, is a stable identity for the program
	// (typically a fingerprint of its generation parameters). It enables
	// the machine-trace cache for runs that replay (see System.Run):
	// runs that share program, CPU and power configuration and budget
	// reuse one cycle-accurate current trace and replay it through each
	// PDN. Empty runs step instead — results are identical either way.
	ProgKey string
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

	// Rails carries per-rail summaries on a multi-rail run (spec order;
	// nil otherwise). The top-level MinV/MaxV are then the worst across
	// rails, Emergencies counts cycles where any rail left its band, and
	// Thresholds/VNominal describe rail 0.
	Rails []RailResult

	// DVS schedule activity, when the spec carries a DVS section.
	DVSStepDowns uint64
	DVSStepUps   uint64

	CurrentTrace trace.Trace // populated when Options.RecordTraces
	VoltageTrace trace.Trace
}

// IPC is a convenience accessor.
func (r *Result) IPC() float64 { return r.Stats.IPC() }

// System is one assembled closed loop. Create with NewSystem; not safe for
// concurrent use.
type System struct {
	opts Options
	spec spec.RunSpec // resolved (WithDefaults applied)

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

	gating  cpu.Gating
	phantom power.Phantom

	// Block-driver scratch (see drive.go): each in-flight cycle's machine
	// activity, load current, and voltage (rail 0's on a multi-rail
	// system), reused so a step never zeroes a fresh copy.
	acts [pdn.MaxBlock]cpu.Activity
	cur  [pdn.MaxBlock]float64
	volt [pdn.MaxBlock]float64

	// Rail-cycles whose voltages came from the PDN's modal recursion, and
	// how many of those were re-evaluated exactly (whole-run counters).
	modalCycles uint64
	exactEvals  uint64

	quietStreak uint64 // consecutive no-issue cycles (pessimistic ramp)
	rampLeft    int

	cycle  uint64
	minV   float64
	maxV   float64
	emerg  uint64
	hist   *stats.Histogram
	curTr  trace.Trace
	voltTr trace.Trace
	iMin   float64
	iMax   float64

	// Multi-rail state (see multirail.go). rails is nil on a single-rail
	// system, and every legacy path keys off that.
	graph    *pdn.Graph
	gsim     *pdn.GraphSimulator
	rails    []railState
	railOf   [power.NumScopes]int // delivery scope -> owning rail index
	scopeCur []float64            // per-cycle scratch: current by scope
	railCur  []float64            // block scratch: current by rail, cycle-major
	railVolt []float64            // block scratch: voltage by rail, cycle-major
	railEps  []float64            // block scratch: modal error bound by rail

	// dvs, when non-nil, scales the machine's current draw by the schedule's
	// operating point (set on both single- and multi-rail systems when the
	// spec carries a DVS section).
	dvs     *actuator.DVS
	dvsRail int // rail whose sensor drives the schedule; -1 = aggregate
}

// NewSystem builds the coupled system for a program. The PDN is calibrated
// so that the theoretical worst-case current waveform exactly reaches the
// emergency boundary at 100% target impedance, then scaled by
// ImpedancePct; controller thresholds are solved for the configured delay
// and actuator authority, with noise guard-banding applied.
func NewSystem(prog isa.Program, opts Options) (*System, error) {
	sp := opts.Spec.WithDefaults()
	c, err := cpu.New(sp.CPU, prog)
	if err != nil {
		return nil, err
	}
	pm := power.New(sp.Power, c.Config())
	if sp.PDN.MultiRail() {
		s := &System{
			opts:  opts,
			spec:  sp,
			CPU:   c,
			Power: pm,
			minV:  math.Inf(1),
			maxV:  math.Inf(-1),
			hist:  stats.NewHistogram(0.90, 1.10, 200),
		}
		s.stream = opts.Telemetry.Stream(opts.TelemetryName)
		return newMultiRailSystem(s, sp, opts)
	}
	iMin, iMax := sp.PDN.EnvelopeIMin, sp.PDN.EnvelopeIMax
	if iMin == 0 || iMax == 0 {
		// The probe memo keys on the as-given (pre-resolution) CPU/power
		// sections, so distinct sparse specs keep distinct entries even
		// when they resolve to the same configuration.
		mMin, mMax, err := measureEnvelope(opts.Spec.CPU, opts.Spec.Power)
		if err != nil {
			return nil, err
		}
		if iMin == 0 {
			iMin = mMin
		}
		if iMax == 0 {
			iMax = mMax
		}
	}

	// The voltage regulator's reference point: it holds the supply at
	// exactly nominal for the midpoint current, so workload swings produce
	// the symmetric over- and under-shoots of the paper's Figures 2 and 6
	// (an idle machine sits slightly above nominal, a saturated one
	// slightly below, and transients ring around both).
	pdnParams := sp.PDN.Params
	pdnParams.IFloor = 0.5 * (iMin + iMax)
	net, err := pdn.Calibrate(pdnParams, iMin, iMax, sp.PDN.ImpedancePct)
	if err != nil {
		return nil, err
	}

	noise := sp.Sensor.NoiseMV * 1e-3
	sen, err := sensor.New(sp.Sensor.DelayCycles, noise, sp.Seed.Resolve(0))
	if err != nil {
		return nil, err
	}

	s := &System{
		opts:   opts,
		spec:   sp,
		CPU:    c,
		Power:  pm,
		Net:    net,
		Sim:    net.NewSimulator(),
		Sensor: sen,
		minV:   math.Inf(1),
		maxV:   math.Inf(-1),
		hist:   stats.NewHistogram(0.90, 1.10, 200),
		iMin:   iMin,
		iMax:   iMax,
	}

	s.stream = opts.Telemetry.Stream(opts.TelemetryName)

	s.responder = opts.Responder
	if s.responder == nil {
		mech, err := sp.Mechanism()
		if err != nil {
			return nil, err
		}
		s.responder = mech
	}
	s.dvsRail = -1
	if d := sp.Actuator.DVS; d != nil {
		// Single-rail DVS: the schedule advances through Respond (one rail,
		// one sensed level), composed around whatever responder is in place.
		s.dvs = actuator.NewDVS(s.responder, d.Steps, d.TransitionCycles, d.HoldCycles, d.CurrentExponent)
		s.responder = s.dvs
	}
	if sp.Control.Enabled {
		// The counting wrapper feeds actuation tallies into the metrics
		// registry at the end of the run; one plain increment per cycle.
		s.counting = &actuator.Counting{R: s.responder}
		s.responder = s.counting

		floor, ceil := s.responder.Envelope(pm)
		solver := control.NewSolver(net)
		th, err := solver.Solve(control.Envelope{
			IMin: iMin, IMax: iMax,
			Floor: floor, Ceil: ceil,
			Settle: sp.Control.SettleCycles,
		}, sp.Sensor.DelayCycles)
		if err != nil {
			return nil, err
		}
		// Guard-band for sensor error (Section 4.5): raise Low and lower
		// High by the guard band (defaulting to the noise amplitude) so a
		// worst-case misreading still triggers in time.
		guard := sp.Sensor.GuardBandMV * 1e-3
		if th.Stable {
			lo, hi := th.Low+guard, th.High-guard
			if lo >= hi {
				th.Stable = false
			} else {
				th.Low, th.High, th.SafeWindow = lo, hi, hi-lo
			}
		}
		if !th.Stable {
			// No guaranteed thresholds exist (e.g. FU-only actuation with
			// large delay). Run with maximally conservative trip points so
			// the instability is observable, as in Figure 17.
			p := net.Params()
			th.Low = p.VNominal - 0.25*(p.VNominal-net.VMin())
			th.High = p.VNominal + 0.25*(net.VMax()-p.VNominal)
			th.SafeWindow = th.High - th.Low
		}
		s.thresholds = th
		if err := s.Sensor.SetThresholds(th.Low, th.High); err != nil {
			return nil, err
		}
	}
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
		// s.Sim (Release is idempotent).
		s.gsim.Release()
		s.gsim = nil
		s.Sim = nil
		return
	}
	if s.Sim != nil {
		s.Sim.Release()
		s.Sim = nil
	}
}

// Envelope returns the calibration current envelope.
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
	return s.stepBlock(1, true)
}

// machineStep advances the machine half of the loop — actuator gating into
// the core, core activity into the power model — and returns the cycle's
// activity, load current and completion flag. The PDN convolution and
// everything downstream of the voltage live in the driver's ingest and
// control halves.
//
//didt:hotpath
func (s *System) machineStep(act *cpu.Activity) (float64, bool) {
	s.CPU.SetGating(s.gating)
	done := s.CPU.StepInto(act)
	rep := s.Power.Step(act, s.phantom)
	if s.dvs != nil {
		return rep.Current * s.dvs.CurrentScale(), done
	}
	return rep.Current, done
}

// ingest records cycle c's voltage on a single-rail system: statistics,
// traces, and the sensor's delay line. It reads nothing the control half
// writes, so the driver may run it after later cycles' control halves.
//
//didt:hotpath
func (s *System) ingest(c uint64, current, v float64) {
	if c >= s.spec.Budget.WarmupCycles {
		if v < s.minV {
			s.minV = v
		}
		if v > s.maxV {
			s.maxV = v
		}
		if v < s.Net.VMin() || v > s.Net.VMax() {
			s.emerg++
		}
		s.hist.Add(v)
	}
	if s.opts.RecordTraces {
		s.curTr = append(s.curTr, current) //didt:allow hotpath -- trace recording is a debug mode; steady-state sweeps never enter this branch
		s.voltTr = append(s.voltTr, v)     //didt:allow hotpath -- trace recording is a debug mode; steady-state sweeps never enter this branch
	}
	if s.spec.Control.Enabled {
		s.Sensor.Push(v)
	}
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

// Run advances the loop until the program retires or MaxCycles elapse and
// returns the aggregated result.
//
// Every run computes its voltages in the block driver's one PDN half
// (settle, drive.go): the network's O(1) modal recursion, taking a
// sample's exact voltage wherever a decision could depend on its last
// bits, so results are identical to stepping cycle by cycle. Runs differ
// only in where the currents come from. A run that replays (see replays)
// takes its machine's whole current trace from the trace cache, stepping
// it there on a miss, and settles it block by block; every other run
// steps the machine up to pdn.MaxBlock cycles ahead of each PDN pass.
func (s *System) Run() (*Result, error) {
	if s.replays() {
		return s.replay()
	}
	s.runLoop()
	if err := s.CPU.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return s.finish(s.CPU.Stats(), s.Power.TotalEnergy()), nil
}

// replays reports whether Run replays a machine trace: a single-rail run
// whose Options.ProgKey names the program, in which nothing feeds the
// computed voltage back into the machine — the controller is off (no
// sensing, no actuation), the pessimistic ramp is off (its gating feeds
// the next machine cycle), no code-level responder is attached, and the
// telemetry stream is disabled (per-cycle emission is interleaved with
// stepping). An unkeyed run steps: its trace could never be reused, and
// stepping settles the same currents in the same blocks without buffering
// them. Trace-cache entries hold one current per cycle, so multi-rail
// runs always step.
func (s *System) replays() bool {
	return s.opts.ProgKey != "" &&
		s.rails == nil &&
		!s.spec.Control.Enabled &&
		s.spec.Control.PessimisticRamp == 0 &&
		s.opts.Responder == nil &&
		!s.stream.Enabled()
}

// finish aggregates the run's statistics into a Result and publishes the
// whole-run metrics. Every completion path — stepped and replayed —
// funnels through here.
func (s *System) finish(st cpu.Stats, energy float64) *Result {
	measured := uint64(0)
	if s.cycle > s.spec.Budget.WarmupCycles {
		measured = s.cycle - s.spec.Budget.WarmupCycles
	}
	r := &Result{
		Stats:        st,
		Cycles:       s.cycle,
		Energy:       energy,
		IMin:         s.iMin,
		IMax:         s.iMax,
		MinV:         s.minV,
		MaxV:         s.maxV,
		VNominal:     s.Net.Params().VNominal,
		Emergencies:  s.emerg,
		Hist:         s.hist,
		Thresholds:   s.thresholds,
		LowEvents:    s.policy.LowEvents,
		HighEvents:   s.policy.HighEvents,
		CurrentTrace: s.curTr,
		VoltageTrace: s.voltTr,
	}
	if measured > 0 {
		r.EmergencyFreq = float64(s.emerg) / float64(measured)
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
	if s.Sensor != nil {
		samples, low, high := s.Sensor.Trips()
		reg.Counter("sensor.samples_total").Add(int64(samples))
		reg.Counter("sensor.low_trips_total").Add(int64(low))
		reg.Counter("sensor.high_trips_total").Add(int64(high))
	}
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
