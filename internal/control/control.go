// Package control implements the paper's control layer: the threshold
// control policy (Section 4.1) and the offline threshold solver that
// replaces the authors' MATLAB/Simulink flow (Section 4.3, Figure 13).
//
// The solver works the way the paper describes: analyze the power supply
// system and processor model for worst cases (resonant square-wave drive
// between the processor's minimum and maximum current, sustained steps up
// and down), then — under a given sensor delay and actuator authority —
// find the voltage-low and voltage-high thresholds that guarantee the
// supply stays within the emergency band. Low is pushed as low as possible
// (fewest false alarms, least performance loss) and High as high as
// possible (least phantom-fire energy), exactly the trade-off of
// Section 4.3.
package control

import (
	"fmt"
	"math"

	"didt/internal/pdn"
	"didt/internal/sim"
	"didt/internal/telemetry"
)

// Envelope describes the current-domain authority of the plant and its
// actuator: the workload can swing anywhere in [IMin, IMax]; gating can
// force current down to Floor; phantom firing can force it up to Ceil.
// Settle is the number of cycles the current takes to reach the clamp
// after an actuation decision (actuator ramp), charged conservatively.
type Envelope struct {
	IMin, IMax  float64
	Floor, Ceil float64
	Settle      int
}

func (e Envelope) validate() error {
	if e.IMax <= e.IMin {
		return fmt.Errorf("control: IMax %g must exceed IMin %g", e.IMax, e.IMin)
	}
	if e.Floor > e.IMax || e.Ceil < e.IMin {
		return fmt.Errorf("control: actuator authority [%g,%g] outside workload range", e.Floor, e.Ceil)
	}
	if e.Settle < 0 {
		return fmt.Errorf("control: negative settle %d", e.Settle)
	}
	return nil
}

// Thresholds is the solver's product. SafeWindow = High - Low is the
// quantity Table 3 tracks as sensor delay grows. Stable is false when no
// threshold pair can bound the voltage — the paper's finding for FU-only
// actuation at controller delays of three or more cycles.
type Thresholds struct {
	Low, High  float64
	Stable     bool
	SafeWindow float64
}

// Solver finds thresholds for one PDN. Results are memoized in the
// process-wide solve cache, so distinct Solver instances over networks
// with equal parameters share their work.
type Solver struct {
	net *pdn.Network
}

// solveCacheKey is the full identity of one solve: the PDN parameters
// (every comparable field of pdn.Params, including IFloor and the
// truncation controls that shape the kernel), the actuation envelope, and
// the sensor delay.
type solveCacheKey struct {
	params pdn.Params
	env    Envelope
	delay  int
}

// solveCache memoizes threshold solving across Solver instances. Every
// NewSystem with control enabled used to run its own ~64-bisection solve
// (hundreds of excursion simulations) even when a sweep re-solved the
// identical (PDN, envelope, delay) point for every workload; the solve is
// a pure function of the key, so cached and fresh thresholds are
// bit-identical.
var solveCache = sim.NewCache[solveCacheKey, Thresholds](256)

func init() {
	solveCache.RegisterMetrics(telemetry.Default(), "cache.control_solve")
	sim.RegisterCache("control_solve", 256, solveCache)
}

// SolveCacheStats reports the shared threshold-solve cache's
// effectiveness.
func SolveCacheStats() sim.CacheStats { return solveCache.Stats() }

// ResetSolveCache empties the shared threshold-solve cache (benchmarks use
// it to measure cold-start cost).
func ResetSolveCache() { solveCache.Reset() }

// NewSolver builds a solver over the given network.
func NewSolver(net *pdn.Network) *Solver {
	return &Solver{net: net}
}

// Solve computes thresholds for the given envelope and sensor delay.
func (s *Solver) Solve(env Envelope, delay int) (Thresholds, error) {
	if err := env.validate(); err != nil {
		return Thresholds{}, err
	}
	if delay < 0 {
		return Thresholds{}, fmt.Errorf("control: negative delay %d", delay)
	}
	key := solveCacheKey{params: s.net.Params(), env: env, delay: delay}
	return solveCache.Get(key, func() (Thresholds, error) {
		return s.solve(env, delay), nil
	})
}

// solveEps is the solver's numerical slack: a voltage has to leave the
// emergency band by more than 0.1 mV before a probe calls it a violation.
const solveEps = 1e-4

func (s *Solver) solve(env Envelope, delay int) Thresholds {
	p := s.net.Params()
	vNom := p.VNominal
	vMin, vMax := s.net.VMin(), s.net.VMax()
	pr := s.newProbe(env, delay)
	defer pr.release()

	// solveLo bisects for the minimal Low threshold whose undershoot stays
	// legal given a fixed High; returns ok=false when even the most
	// conservative trigger (just under nominal) cannot stop the droop —
	// the actuator lacks downward authority.
	solveLo := func(hi float64) (float64, bool) {
		a, b := vMin, vNom-1e-4
		if low, _ := pr.violations(b, hi, true, false); low {
			return 0, false
		}
		for i := 0; i < 16; i++ {
			mid := 0.5 * (a + b)
			if low, _ := pr.violations(mid, hi, true, false); low {
				a = mid
			} else {
				b = mid
			}
		}
		return b, true
	}
	// solveHi bisects for the maximal High threshold whose overshoot stays
	// legal given a fixed Low.
	solveHi := func(lo float64) (float64, bool) {
		a, b := vNom+1e-4, vMax
		if _, high := pr.violations(lo, a, false, true); high {
			return 0, false
		}
		if _, high := pr.violations(lo, b, false, true); !high {
			return b, true // fully permissive High is already safe
		}
		for i := 0; i < 16; i++ {
			mid := 0.5 * (a + b)
			if _, high := pr.violations(lo, mid, false, true); high {
				b = mid
			} else {
				a = mid
			}
		}
		return a, true
	}

	// Start each search from the most permissive opposite threshold so the
	// two responses do not fight, then run one repair round for the weak
	// coupling (gating recovery can overshoot; phantom firing can droop).
	lo, ok := solveLo(vMax)
	if !ok {
		return Thresholds{Stable: false}
	}
	hi, ok := solveHi(lo)
	if !ok {
		return Thresholds{Stable: false}
	}
	for round := 0; round < 2; round++ {
		low, high := pr.violations(lo, hi, true, true)
		if !low && !high && hi > lo {
			return Thresholds{Low: lo, High: hi, Stable: true, SafeWindow: hi - lo}
		}
		if lo, ok = solveLo(hi); !ok {
			return Thresholds{Stable: false}
		}
		if hi, ok = solveHi(lo); !ok {
			return Thresholds{Stable: false}
		}
	}
	low, high := pr.violations(lo, hi, true, true)
	if low || high || hi <= lo {
		return Thresholds{Stable: false}
	}
	return Thresholds{Low: lo, High: hi, Stable: true, SafeWindow: hi - lo}
}

// excursions runs the controlled linear plant once against the worst-case
// input suite and returns the extreme voltages observed, plus the fraction
// of cycles the controller overrode the workload's demand — the proxy for
// its performance cost in the linear-domain studies.
func (s *Solver) excursions(lo, hi float64, env Envelope, delay int) (minV, maxV, intervene float64) {
	minV, maxV = math.Inf(1), math.Inf(-1)
	var intervened, total int
	for _, sc := range scenarios {
		r := s.runScenario(sc, lo, hi, env, delay)
		minV = math.Min(minV, r.minV)
		maxV = math.Max(maxV, r.maxV)
		intervened += r.intervened
		total += r.cycles
	}
	return minV, maxV, float64(intervened) / float64(total)
}

// scenarioResult summarizes one closed-loop scenario run.
type scenarioResult struct {
	minV, maxV float64
	intervened int
	cycles     int
}

type scenario int

const (
	scResonant scenario = iota
	scResonantShifted
	scStepUp
	scStepDownAfterHigh
	numScenarios
)

var scenarios = []scenario{scResonant, scResonantShifted, scStepUp, scStepDownAfterHigh}

// scenarioDemand is the adversarial demand stream for one worst-case
// scenario at one cycle: resonant square waves (two phases), a sustained
// step up, and a step down after a sustained high.
func scenarioDemand(sc scenario, c, cycles, period int, env Envelope) float64 {
	switch sc {
	case scResonant:
		if c%period < period/2 {
			return env.IMax
		}
		return env.IMin
	case scResonantShifted:
		if (c+period/2)%period < period/2 {
			return env.IMax
		}
		return env.IMin
	case scStepUp:
		return env.IMax
	case scStepDownAfterHigh:
		if c < cycles/2 {
			return env.IMax
		}
		return env.IMin
	}
	return env.IMin
}

// scenarioCtl is one replica of the threshold controller the solver
// simulates against: the sensed-level latch, the actuator settle counter,
// and the sensor delay pipeline. Shared by the exact scenario runner and
// the probe so both step the exact same state machine.
type scenarioCtl struct {
	state        int // 0 normal, -1 gating, +1 phantom
	sinceTrigger int
	prevI        float64
	vHist        []float64 // vHist[0] is the voltage from `delay` cycles ago
}

func newScenarioCtl(vNom float64, env Envelope, delay int) scenarioCtl {
	ctl := scenarioCtl{prevI: env.IMin, vHist: make([]float64, delay+1)}
	ctl.reset(vNom, env)
	return ctl
}

func (ctl *scenarioCtl) reset(vNom float64, env Envelope) {
	ctl.state = 0
	ctl.sinceTrigger = 0
	ctl.prevI = env.IMin
	for i := range ctl.vHist {
		ctl.vHist[i] = vNom
	}
}

// decide consumes this cycle's sensed voltage and demand and returns the
// current the plant actually draws: the clamp when the actuator has
// settled, the previous level while it is still ramping (worst case holds
// level), the demand when no threshold is latched.
func (ctl *scenarioCtl) decide(lo, hi, demand float64, env Envelope) float64 {
	sensed := ctl.vHist[0]
	switch {
	case sensed < lo:
		if ctl.state != -1 {
			ctl.sinceTrigger = 0
		}
		ctl.state = -1
	case sensed > hi:
		if ctl.state != 1 {
			ctl.sinceTrigger = 0
		}
		ctl.state = 1
	default:
		ctl.state = 0
	}

	var i float64
	switch ctl.state {
	case -1:
		if ctl.sinceTrigger >= env.Settle {
			i = env.Floor
		} else {
			i = ctl.prevI
		}
	case 1:
		if ctl.sinceTrigger >= env.Settle {
			i = env.Ceil
		} else {
			i = ctl.prevI
		}
	default:
		i = demand
	}
	ctl.sinceTrigger++
	ctl.prevI = i
	return i
}

// observe pushes this cycle's plant voltage into the sensor pipeline.
func (ctl *scenarioCtl) observe(v float64) {
	copy(ctl.vHist, ctl.vHist[1:])
	ctl.vHist[len(ctl.vHist)-1] = v
}

// runScenario simulates the threshold-controlled plant: an adversarial
// demand stream, a sensor with the given delay, and clamp-style actuation
// with the envelope's authority and settle time.
func (s *Solver) runScenario(sc scenario, lo, hi float64, env Envelope, delay int) scenarioResult {
	period := s.net.ResonantPeriodCycles()
	cycles := s.net.KernelLen() + 14*period
	sim := s.net.NewSimulator()
	defer sim.Release()
	p := s.net.Params()

	res := scenarioResult{minV: p.VNominal, maxV: p.VNominal}
	ctl := newScenarioCtl(p.VNominal, env, delay)
	for c := 0; c < cycles; c++ {
		i := ctl.decide(lo, hi, scenarioDemand(sc, c, cycles, period, env), env)
		if ctl.state != 0 {
			res.intervened++
		}
		res.cycles++
		v := sim.Step(i)
		res.minV = math.Min(res.minV, v)
		res.maxV = math.Max(res.maxV, v)
		ctl.observe(v)
	}
	return res
}

// probe owns the reusable machinery for one solve: one streaming
// simulator and one controller replica per worst-case scenario, reset
// between evaluations instead of reallocated — a solve evaluates it dozens
// of times.
//
// The simulators run the PDN's modal recursion (pdn.Simulator.StepModal),
// O(1) per cycle, and every voltage feeds only comparisons: the delayed
// reading against lo and hi, the sample against vMin-solveEps and
// vMax+solveEps. A sample farther than the recursion's bound eps from all
// four edges compares exactly as its exact value would, so it is used as
// is; only a sample within eps of an edge is replaced by its exact
// (dotRing-order) voltage. Verdicts, and so solved thresholds, are those
// of the exact simulator by construction.
type probe struct {
	env    Envelope
	period int
	cycles int
	vNom   float64
	vLow   float64 // vMin - solveEps
	vHigh  float64 // vMax + solveEps
	sims   []*pdn.Simulator
	ctls   []scenarioCtl
	in     [1]float64
	out    [1]float64

	modalCycles uint64 // samples stepped through the modal form
	exactEvals  uint64 // of those, samples re-evaluated exactly
}

func (s *Solver) newProbe(env Envelope, delay int) *probe {
	period := s.net.ResonantPeriodCycles()
	p := &probe{
		env:    env,
		period: period,
		cycles: s.net.KernelLen() + 14*period,
		vNom:   s.net.Params().VNominal,
		vLow:   s.net.VMin() - solveEps,
		vHigh:  s.net.VMax() + solveEps,
		sims:   make([]*pdn.Simulator, len(scenarios)),
		ctls:   make([]scenarioCtl, len(scenarios)),
	}
	for l := range p.ctls {
		p.sims[l] = s.net.NewSimulator()
		p.ctls[l] = newScenarioCtl(p.vNom, env, delay)
	}
	return p
}

// release returns the probe's simulator buffers to the network's pool and
// folds its modal counters into the process metrics.
func (p *probe) release() {
	for _, sim := range p.sims {
		sim.Release()
	}
	reg := telemetry.Default()
	reg.Counter("pdn.modal_cycles_total").Add(int64(p.modalCycles))
	reg.Counter("pdn.exact_evals_total").Add(int64(p.exactEvals))
}

// near reports whether v lies within eps of edge, where a comparison
// against edge could answer differently for the exact voltage.
func near(v, edge, eps float64) bool { return math.Abs(v-edge) <= eps }

// violations evaluates one threshold pair against the worst-case suite and
// reports whether any scenario drives the supply below vMin-solveEps
// (lowBad) or above vMax+solveEps (highBad) — exactly the comparisons
// excursions' extreme voltages feed, but computed across the four
// scenarios cycle by cycle and stopped the cycle every *needed* verdict has
// resolved to true. A needed verdict can only resolve false by surviving
// the whole horizon, so early exit never changes an answer; a verdict the
// caller did not ask for may be reported false even when a longer run
// would have tripped it.
//
//didt:hotpath
func (p *probe) violations(lo, hi float64, needLow, needHigh bool) (lowBad, highBad bool) {
	for l := range p.ctls {
		p.sims[l].Reset()
		p.ctls[l].reset(p.vNom, p.env)
	}
	for c := 0; c < p.cycles; c++ {
		for l, sim := range p.sims {
			demand := scenarioDemand(scenarios[l], c, p.cycles, p.period, p.env)
			p.in[0] = p.ctls[l].decide(lo, hi, demand, p.env)
			eps := sim.StepModal(p.in[:], p.out[:])
			v := p.out[0]
			if eps > 0 {
				p.modalCycles++
				if near(v, lo, eps) || near(v, hi, eps) || near(v, p.vLow, eps) || near(v, p.vHigh, eps) {
					v = sim.Exact(0)
					p.exactEvals++
				}
			}
			if v < p.vLow {
				lowBad = true
			}
			if v > p.vHigh {
				highBad = true
			}
			p.ctls[l].observe(v)
		}
		if (lowBad || !needLow) && (highBad || !needHigh) {
			return lowBad, highBad
		}
	}
	return lowBad, highBad
}

// Policy is the runtime threshold-control state machine used by the
// coupled system: it simply latches the most recent sensed level. It
// exists as a type so the core package can count actuations and so future
// policies (asymmetric mechanisms, Section 6) can slot in.
type Policy struct {
	LowEvents  uint64
	HighEvents uint64
	lowActive  bool
	highActive bool
}

// Update records a sensed level and reports whether gating (low) or
// phantom firing (high) should be active this cycle.
func (p *Policy) Update(low, high bool) (gate, phantom bool) {
	if low && !p.lowActive {
		p.LowEvents++
	}
	if high && !p.highActive {
		p.HighEvents++
	}
	p.lowActive, p.highActive = low, high
	return low, high
}
