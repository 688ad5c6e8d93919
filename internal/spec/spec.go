// Package spec defines the RunSpec: one typed, JSON-serializable,
// content-hashable description of a complete closed-loop run — PDN, CPU,
// power model, sensor, controller, actuator, workload, cycle budgets and
// seeds. It is the configuration spine every layer speaks: core.NewSystem
// consumes a resolved spec, experiments.Config derives per-run specs from
// its sweep shape, the CLIs translate flags into spec overrides, and didtd
// accepts full specs over HTTP. Configuration is data: anything a run needs
// is in the spec, anything in the spec is serializable, and equal resolved
// specs — by Key() — mean equal results.
//
// Specs layer: a sparse spec (zero values everywhere the paper's defaults
// should apply) resolves through WithDefaults into a fully-populated one,
// so callers override only what they study. Validate reports every problem
// at once, with did-you-mean hints for misspelled names; the same
// validation backs CLI exit-2 errors and the server's 400 responses.
package spec

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"didt/internal/actuator"
	"didt/internal/cpu"
	"didt/internal/isa"
	"didt/internal/pdn"
	"didt/internal/power"
	"didt/internal/sim"
	"didt/internal/workload"
)

// RunSpec describes one closed-loop run completely. The zero value is the
// paper's default run (Table 1 core, 3 GHz / 1.0 V / 50 MHz package at
// 200% target impedance, free-running stressmark) once resolved through
// WithDefaults.
type RunSpec struct {
	CPU      cpu.Config   `json:"cpu"`
	Power    power.Params `json:"power"`
	PDN      PDNSpec      `json:"pdn"`
	Sensor   SensorSpec   `json:"sensor"`
	Control  ControlSpec  `json:"control"`
	Actuator ActuatorSpec `json:"actuator"`
	Workload WorkloadSpec `json:"workload"`
	Budget   BudgetSpec   `json:"budget"`
	Seed     Seed         `json:"seed"`
}

// PDNSpec selects the power-delivery network and its calibration point.
type PDNSpec struct {
	// Params is the electrical model; zero fields take the paper's
	// Section 2.2 reference values. PeakZ is derived by calibration and
	// IFloor from the measured envelope — leave both zero.
	Params pdn.Params `json:"params"`
	// ImpedancePct scales the calibrated target impedance: 1.0 is the
	// 100% column of Table 2, 2.0 (the default) the 200% design point the
	// control studies use.
	ImpedancePct float64 `json:"impedance_pct"`
	// EnvelopeIMin/IMax override the measured current envelope (amperes)
	// used for calibration and threshold solving; zero means measure.
	EnvelopeIMin float64 `json:"envelope_i_min_a"`
	EnvelopeIMax float64 `json:"envelope_i_max_a"`
	// Rails, when present, splits delivery across named per-domain rails
	// (the multi-rail graph); empty keeps the single shared rail above.
	// Both fields are omitempty on purpose: a legacy spec's resolved JSON —
	// and therefore its Key() — must not change with their introduction.
	Rails []RailSpec `json:"rails,omitempty"`
	// Coupling lists cross-rail transient injection coefficients.
	Coupling []CouplingSpec `json:"coupling,omitempty"`
}

// SensorSpec configures the threshold voltage sensor (Section 4).
type SensorSpec struct {
	DelayCycles int     `json:"delay_cycles"` // sensing/controller delay; 0 is a valid (ideal) delay
	NoiseMV     float64 `json:"noise_mv"`     // additive white noise amplitude
	// GuardBandMV widens the solved thresholds against sensor error
	// (Section 4.5). Zero tracks NoiseMV, the paper's guard-banding rule.
	GuardBandMV float64 `json:"guard_band_mv"`
	// Rails restricts per-rail sensing on a multi-rail spec to the named
	// rails; empty senses every rail. Omitempty keeps legacy keys stable.
	Rails []string `json:"rails,omitempty"`
}

// ControlSpec enables and shapes the threshold controller (Sections 4-5).
type ControlSpec struct {
	Enabled bool `json:"enabled"`
	// SettleCycles is the actuator ramp charged by the threshold solver;
	// zero takes the paper's 2.
	SettleCycles int `json:"settle_cycles"`
	// FlushRecovery selects the Section 6 alternative recovery (flush and
	// refill instead of protect-and-resume).
	FlushRecovery bool `json:"flush_recovery"`
	// PessimisticRamp, when positive, restarts execution at half rate for
	// this many cycles after a quiet spell (Section 2.3's alternative to
	// the greedy policy).
	PessimisticRamp int `json:"pessimistic_ramp"`
}

// ActuatorSpec selects the actuation mechanism by name: "FU", "FU/DL1",
// "FU/DL1/IL1" or "ideal" gate and fire the same units, and a Section 6
// pairing "gate X, fire Y" of two of them gates X's units and fires Y's
// (e.g. "gate FU/DL1/IL1, fire FU"). Empty resolves to "ideal".
type ActuatorSpec struct {
	Mechanism string `json:"mechanism"`
	// DVS, when present, runs a dynamic voltage scaling schedule beside
	// the gate/phantom-fire mechanism: the schedule scales the chip's
	// current while the mechanism gates and fires. Nil — the legacy value
	// — keeps the key byte-identical to the pre-DVS spec.
	DVS *DVSSpec `json:"dvs,omitempty"`
}

// WorkloadSpec selects the program: a named synthetic SPEC2000 stand-in, the
// dI/dt stressmark, or a fully custom profile.
type WorkloadSpec struct {
	// Name is "stressmark", "custom", or a benchmark name from
	// workload.Names(). Empty resolves to "stressmark".
	Name string `json:"name"`
	// Iterations is the loop trip count; zero resolves to 3000, the
	// CLI/server default.
	Iterations int `json:"iterations"`
	// Stressmark customizes the stressmark's loop shape (Name must be
	// "stressmark"). Nil keeps the paper's tuning.
	Stressmark *workload.StressmarkParams `json:"stressmark,omitempty"`
	// Profile is a user-defined benchmark profile (Name must be
	// "custom").
	Profile *workload.Profile `json:"profile,omitempty"`
}

// BudgetSpec bounds the run.
type BudgetSpec struct {
	MaxCycles    uint64 `json:"max_cycles"`    // hard cycle cap; 0 resolves to 20M
	WarmupCycles uint64 `json:"warmup_cycles"` // excluded from voltage stats; 0 resolves to 1000
}

// Default returns the fully resolved default spec: the canonical
// description of the paper's baseline run. GET /v1/spec/default serves its
// JSON form, and internal/spec/testdata/default_spec.json pins it.
func Default() RunSpec { return RunSpec{}.WithDefaults() }

// WithDefaults resolves a sparse spec into a fully-populated one: every
// zero field that has a paper default takes it, section by section. This is
// the single defaulting layer — the per-package withDefaults logic that
// used to be duplicated across core.Options, cpu.Config, power.Params and
// pdn.Params is delegated to here (the subsystem packages export their
// field defaults; the spec layer owns when they apply). Idempotent.
func (s RunSpec) WithDefaults() RunSpec {
	s.CPU = s.CPU.WithDefaults()
	s.Power = s.Power.WithDefaults()
	s.PDN.Params = s.PDN.Params.WithDefaults()
	if s.PDN.ImpedancePct == 0 {
		s.PDN.ImpedancePct = 2.0
	}
	if s.Sensor.GuardBandMV == 0 {
		s.Sensor.GuardBandMV = s.Sensor.NoiseMV
	}
	if s.Control.SettleCycles == 0 {
		s.Control.SettleCycles = 2
	}
	if s.Actuator.Mechanism == "" {
		s.Actuator.Mechanism = actuator.Ideal.Name
	}
	if s.Workload.Name == "" {
		s.Workload.Name = "stressmark"
	}
	if s.Workload.Iterations == 0 {
		s.Workload.Iterations = 3000
	}
	if s.Budget.MaxCycles == 0 {
		s.Budget.MaxCycles = 20_000_000
	}
	if s.Budget.WarmupCycles == 0 {
		s.Budget.WarmupCycles = 1000
	}
	if !s.Seed.Explicit {
		s.Seed = NewSeed(0)
	}
	return s.withRailDefaults()
}

// Validate checks a resolved spec and returns every problem at once
// (errors.Join), so a caller fixing a spec sees the full list rather than
// one complaint per round trip. It never panics, however partial or
// inconsistent the spec.
func (s RunSpec) Validate() error {
	var errs []error
	if err := s.CPU.Validate(); err != nil {
		errs = append(errs, err)
	}
	p := s.PDN.Params
	if err := p.Validate(); err != nil {
		errs = append(errs, fmt.Errorf("spec: %w", err))
	}
	if p.Tolerance < 0 || p.Tolerance >= 1 {
		errs = append(errs, fmt.Errorf("spec: pdn tolerance %g outside [0, 1)", p.Tolerance))
	}
	if s.PDN.ImpedancePct < 0 {
		errs = append(errs, fmt.Errorf("spec: impedance_pct %g must be positive", s.PDN.ImpedancePct))
	}
	if s.PDN.EnvelopeIMin < 0 || s.PDN.EnvelopeIMax < 0 {
		errs = append(errs, errors.New("spec: envelope currents must be non-negative"))
	}
	if s.PDN.EnvelopeIMin > 0 && s.PDN.EnvelopeIMax > 0 && s.PDN.EnvelopeIMax <= s.PDN.EnvelopeIMin {
		errs = append(errs, fmt.Errorf("spec: envelope_i_max_a %g must exceed envelope_i_min_a %g",
			s.PDN.EnvelopeIMax, s.PDN.EnvelopeIMin))
	}
	if s.Sensor.DelayCycles < 0 {
		errs = append(errs, fmt.Errorf("spec: sensor delay_cycles %d negative", s.Sensor.DelayCycles))
	}
	if s.Sensor.NoiseMV < 0 {
		errs = append(errs, fmt.Errorf("spec: sensor noise_mv %g negative", s.Sensor.NoiseMV))
	}
	if s.Sensor.GuardBandMV < 0 {
		errs = append(errs, fmt.Errorf("spec: sensor guard_band_mv %g negative", s.Sensor.GuardBandMV))
	}
	if s.Control.SettleCycles < 0 {
		errs = append(errs, fmt.Errorf("spec: control settle_cycles %d negative", s.Control.SettleCycles))
	}
	if s.Control.PessimisticRamp < 0 {
		errs = append(errs, fmt.Errorf("spec: control pessimistic_ramp %d negative", s.Control.PessimisticRamp))
	}
	if m := s.Actuator.Mechanism; m != "" {
		if _, err := actuator.ByName(m); err != nil {
			// A pairing's hint names the half that is not a mechanism.
			bad := m
			if gate, fire, ok := actuator.Pair(m); ok {
				bad = fire
				if !slices.Contains(actuator.Names(), gate) {
					bad = gate
				}
			}
			errs = append(errs, UnknownName(fmt.Sprintf("spec: unknown mechanism %q", m), bad, actuator.Names()))
		}
	}
	errs = append(errs, s.validateRails()...)
	errs = append(errs, s.Workload.validate()...)
	if s.Budget.MaxCycles > 0 && s.Budget.WarmupCycles >= s.Budget.MaxCycles {
		errs = append(errs, fmt.Errorf("spec: warmup_cycles %d must be below max_cycles %d",
			s.Budget.WarmupCycles, s.Budget.MaxCycles))
	}
	return errors.Join(errs...)
}

func (w WorkloadSpec) validate() []error {
	var errs []error
	if w.Iterations < 0 {
		errs = append(errs, fmt.Errorf("spec: workload iterations %d negative", w.Iterations))
	}
	switch w.Name {
	case "stressmark":
		if w.Profile != nil {
			errs = append(errs, errors.New(`spec: workload profile requires name "custom"`))
		}
	case "custom":
		if w.Profile == nil {
			errs = append(errs, errors.New(`spec: workload "custom" requires a profile`))
		}
		if w.Stressmark != nil {
			errs = append(errs, errors.New(`spec: workload stressmark params require name "stressmark"`))
		}
	case "":
		// Unresolved; WithDefaults selects the stressmark.
	default:
		if w.Stressmark != nil {
			errs = append(errs, errors.New(`spec: workload stressmark params require name "stressmark"`))
		}
		if w.Profile != nil {
			errs = append(errs, errors.New(`spec: workload profile requires name "custom"`))
		}
		if err := ValidBenchmark(w.Name); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// ValidBenchmark checks one benchmark name against the workload registry,
// returning a did-you-mean error listing the valid names on failure. The
// experiments harness and the server share it for their 400-style
// rejections.
func ValidBenchmark(name string) error {
	for _, n := range workload.Names() {
		if n == name {
			return nil
		}
	}
	return UnknownName(fmt.Sprintf("unknown benchmark %q", name), name, workload.Names())
}

// UnknownName builds a "did you mean" error: the caller's message, the
// closest candidate (when one is a plausible typo), and the full valid
// list. Every name registry (benchmarks, mechanisms, experiment IDs) fails
// through this one shape, so CLI exit-2 errors and server 400s read alike.
func UnknownName(msg, name string, valid []string) error {
	if hint := Suggest(name, valid); hint != "" {
		return fmt.Errorf("%s (did you mean %q? valid: %s)", msg, hint, strings.Join(valid, ", "))
	}
	return fmt.Errorf("%s (valid: %s)", msg, strings.Join(valid, ", "))
}

// Resolve is WithDefaults followed by Validate: the one call an API
// boundary makes to turn a user-supplied sparse spec into a runnable one.
func (s RunSpec) Resolve() (RunSpec, error) {
	r := s.WithDefaults()
	if err := r.Validate(); err != nil {
		return RunSpec{}, err
	}
	return r, nil
}

// Key is the canonical content hash of the resolved spec: equal keys mean
// equal configuration means (by the determinism contract) equal results.
// Memo identity across the repository is built from the same fingerprint
// primitive over the spec's resolved sections — the PDN kernel cache hashes
// the calibrated PDN.Params, the workload caches hash the resolved
// program parameters, the envelope cache hashes the CPU and power sections
// — so Key-equal specs hit exactly the same cache entries. Pinned by
// testdata/spec_key.txt: an accidental change to this value silently
// invalidates every memo, so CI fails loudly instead.
func (s RunSpec) Key() string {
	return "rs1-" + sim.Fingerprint(s.WithDefaults())
}

// Mechanism resolves the actuation mechanism named by the spec.
func (s RunSpec) Mechanism() (actuator.Mechanism, error) {
	name := s.Actuator.Mechanism
	if name == "" {
		return actuator.Ideal, nil
	}
	return actuator.ByName(name)
}

// Program resolves the workload section to an executable program using the
// shared generation caches (deterministic: cached and fresh programs are
// identical for equal parameters). Call on a resolved spec.
func (s RunSpec) Program() (isa.Program, error) {
	w := s.Workload
	switch w.Name {
	case "stressmark", "":
		p := workload.StressmarkParams{Iterations: w.Iterations}
		if w.Stressmark != nil {
			p = *w.Stressmark
			if p.Iterations == 0 {
				p.Iterations = w.Iterations
			}
		}
		return workload.StressmarkCached(p), nil
	case "custom":
		if w.Profile == nil {
			return nil, errors.New(`spec: workload "custom" requires a profile`)
		}
		p := *w.Profile
		if p.Iterations == 0 {
			p.Iterations = w.Iterations
		}
		return workload.GenerateCached(p), nil
	default:
		p, err := workload.ProfileByName(w.Name)
		if err != nil {
			return nil, UnknownName(fmt.Sprintf("unknown benchmark %q", w.Name), w.Name, workload.Names())
		}
		p.Iterations = w.Iterations
		return workload.GenerateCached(p), nil
	}
}
