package spec

import (
	"errors"
	"fmt"

	"didt/internal/pdn"
	"didt/internal/power"
)

// Multi-rail PDN sections. A legacy spec leaves Rails and Coupling empty
// and resolves to the single-rail network exactly as before — both fields
// are omitempty, so a legacy spec's resolved JSON, and therefore its
// Key(), are byte-identical to what they were before rails existed (pinned
// by TestLegacySpecKeyUnchangedByRails and testdata/spec_key.txt).

// RailSpec describes one delivery domain of a multi-rail PDN.
type RailSpec struct {
	// Name identifies the rail in coupling entries, sensor bindings and
	// per-rail results.
	Name string `json:"name"`
	// Scopes lists the power delivery scopes (power.ScopeNames: "fu",
	// "dl1", "il1", "uncore") this rail feeds. Scopes no rail claims go to
	// the first rail; every rail must end up with at least one.
	Scopes []string `json:"scopes,omitempty"`
	// Params is the rail's electrical model. A zero value inherits the
	// shared PDN params; PeakZ is derived by per-rail calibration and
	// IFloor from the rail's share of the measured envelope.
	Params pdn.Params `json:"params"`
	// ImpedancePct scales this rail's calibrated target impedance; zero
	// inherits the shared PDN impedance_pct.
	ImpedancePct float64 `json:"impedance_pct,omitempty"`
}

// CouplingSpec injects fraction K of rail From's current transient into
// rail To's convolution input.
type CouplingSpec struct {
	From string  `json:"from"`
	To   string  `json:"to"`
	K    float64 `json:"k"`
}

// DVSSpec configures the dynamic voltage scaling responder: a descending
// schedule of relative voltage/frequency steps the actuator walks down on
// sustained voltage-low pressure and back up after a quiet spell.
type DVSSpec struct {
	// Steps are the available operating points as fractions of nominal,
	// descending from 1.0. Empty resolves to [1, 0.95, 0.9].
	Steps []float64 `json:"steps,omitempty"`
	// TransitionCycles is the latency of a voltage/frequency transition;
	// zero resolves to 10.
	TransitionCycles int `json:"transition_cycles,omitempty"`
	// HoldCycles is the quiet time required before stepping back up; zero
	// resolves to 60 (one resonant period).
	HoldCycles int `json:"hold_cycles,omitempty"`
	// CurrentExponent scales current draw with the operating point:
	// I' = I * step^CurrentExponent (P ~ V^2 f gives ~2 with I = P/V).
	// Zero resolves to 2.
	CurrentExponent float64 `json:"current_exponent,omitempty"`
	// Rail names the rail whose sensor drives the schedule on a
	// multi-rail spec; empty uses the aggregate (worst-rail) level.
	Rail string `json:"rail,omitempty"`
}

// MultiRail reports whether the spec selects the rail-graph path.
func (p PDNSpec) MultiRail() bool { return len(p.Rails) > 0 }

// RailNames returns the rail names in spec order.
func (p PDNSpec) RailNames() []string {
	names := make([]string, len(p.Rails))
	for i, r := range p.Rails {
		names[i] = r.Name
	}
	return names
}

// railIndex resolves a rail name to its spec-order index.
func (p PDNSpec) railIndex(name string) int {
	for i, r := range p.Rails {
		if r.Name == name {
			return i
		}
	}
	return -1
}

// RailScopeMasks resolves each rail's effective scope ownership: the
// scopes it names, plus — for the first rail — every scope no rail claims.
// Call on a validated spec; the error covers direct (unvalidated) users.
func (p PDNSpec) RailScopeMasks() ([]power.ScopeMask, error) {
	masks := make([]power.ScopeMask, len(p.Rails))
	var claimed power.ScopeMask
	for i, r := range p.Rails {
		for _, name := range r.Scopes {
			s, ok := power.ScopeByName(name)
			if !ok {
				return nil, UnknownName(
					fmt.Sprintf("spec: rail %q: unknown scope %q", r.Name, name),
					name, power.ScopeNames())
			}
			masks[i] |= s.Mask()
			claimed |= s.Mask()
		}
	}
	if len(masks) > 0 {
		masks[0] |= power.AllScopes &^ claimed
	}
	for i, m := range masks {
		if m == 0 {
			return nil, fmt.Errorf("spec: rail %q owns no scopes", p.Rails[i].Name)
		}
	}
	return masks, nil
}

// CouplingMatrix materializes the coupling entries as the NxN matrix
// (matrix[to][from]) pdn.NewGraph consumes. Call on a validated spec.
func (p PDNSpec) CouplingMatrix() ([][]float64, error) {
	if len(p.Coupling) == 0 {
		return nil, nil
	}
	n := len(p.Rails)
	matrix := make([][]float64, n)
	for i := range matrix {
		matrix[i] = make([]float64, n)
	}
	for _, c := range p.Coupling {
		from, to := p.railIndex(c.From), p.railIndex(c.To)
		if from < 0 || to < 0 {
			return nil, fmt.Errorf("spec: coupling references unknown rail %q -> %q", c.From, c.To)
		}
		matrix[to][from] = c.K
	}
	return matrix, nil
}

// withRailDefaults resolves the multi-rail sections of an already
// section-resolved spec: rail params inherit the shared PDN params, rail
// impedance inherits the shared impedance_pct, and a present DVS section
// takes its schedule defaults. No-op (and byte-preserving) on a legacy
// spec. Idempotent.
func (s RunSpec) withRailDefaults() RunSpec {
	if len(s.PDN.Rails) > 0 {
		// Copy before resolving: RunSpec has value semantics and the rails
		// slice must not alias the caller's spec.
		rails := make([]RailSpec, len(s.PDN.Rails))
		copy(rails, s.PDN.Rails)
		for i, r := range rails {
			if r.Params == (pdn.Params{}) {
				rails[i].Params = s.PDN.Params
			} else {
				rails[i].Params = r.Params.WithDefaults()
			}
			if r.ImpedancePct == 0 {
				rails[i].ImpedancePct = s.PDN.ImpedancePct
			}
		}
		s.PDN.Rails = rails
	}
	if d := s.Actuator.DVS; d != nil {
		dd := *d
		if len(dd.Steps) == 0 {
			dd.Steps = []float64{1, 0.95, 0.9}
		}
		if dd.TransitionCycles == 0 {
			dd.TransitionCycles = 10
		}
		if dd.HoldCycles == 0 {
			dd.HoldCycles = 60
		}
		if dd.CurrentExponent == 0 {
			dd.CurrentExponent = 2
		}
		s.Actuator.DVS = &dd
	}
	return s
}

// validateRails checks the multi-rail sections: rail naming, scope
// ownership, the coupling list, sensor and DVS rail bindings, the DVS
// schedule, and that envelope overrides meet at most one rail. Returns
// every problem found (the caller joins them with the rest of Validate's
// findings).
func (s RunSpec) validateRails() []error {
	var errs []error
	names := s.PDN.RailNames()
	seen := make(map[string]bool, len(names))
	for i, r := range s.PDN.Rails {
		if r.Name == "" {
			errs = append(errs, fmt.Errorf("spec: rail %d has no name", i))
			continue
		}
		if seen[r.Name] {
			errs = append(errs, fmt.Errorf("spec: duplicate rail name %q", r.Name))
		}
		seen[r.Name] = true
		if r.ImpedancePct < 0 {
			errs = append(errs, fmt.Errorf("spec: rail %q impedance_pct %g must be positive", r.Name, r.ImpedancePct))
		}
		rp := r.Params
		if rp.ClockHz < 0 || rp.ResonantHz < 0 || rp.DCResistance < 0 || rp.TruncRelTol < 0 || rp.MaxKernelLen < 0 {
			errs = append(errs, fmt.Errorf("spec: rail %q params must be non-negative", r.Name))
		}
	}
	if len(s.PDN.Rails) > 0 {
		if _, err := s.PDN.RailScopeMasks(); err != nil {
			errs = append(errs, err)
		}
		claimedBy := make(map[string]string)
		for _, r := range s.PDN.Rails {
			for _, sc := range r.Scopes {
				if prev, dup := claimedBy[sc]; dup {
					errs = append(errs, fmt.Errorf("spec: scope %q claimed by both rail %q and rail %q", sc, prev, r.Name))
					continue
				}
				claimedBy[sc] = r.Name
			}
		}
	}
	railRef := func(where, name string) {
		if len(s.PDN.Rails) == 0 {
			errs = append(errs, fmt.Errorf("spec: %s references rail %q but the pdn has no rails section", where, name))
			return
		}
		if s.PDN.railIndex(name) < 0 {
			errs = append(errs, UnknownName(
				fmt.Sprintf("spec: %s references unknown rail %q", where, name), name, names))
		}
	}
	pairs := make(map[[2]string]bool, len(s.PDN.Coupling))
	for _, c := range s.PDN.Coupling {
		railRef("coupling", c.From)
		railRef("coupling", c.To)
		if c.From != "" && c.From == c.To {
			errs = append(errs, fmt.Errorf("spec: rail %q couples to itself", c.From))
		}
		if c.K < 0 || c.K >= 1 {
			errs = append(errs, fmt.Errorf("spec: coupling %q -> %q coefficient %g outside [0, 1)", c.From, c.To, c.K))
		}
		key := [2]string{c.From, c.To}
		if pairs[key] {
			errs = append(errs, fmt.Errorf("spec: duplicate coupling entry %q -> %q", c.From, c.To))
		}
		pairs[key] = true
	}
	for _, name := range s.Sensor.Rails {
		railRef("sensor", name)
	}
	if d := s.Actuator.DVS; d != nil {
		if d.Rail != "" {
			railRef("actuator dvs", d.Rail)
		}
		if len(d.Steps) > 0 {
			if d.Steps[0] != 1 {
				errs = append(errs, fmt.Errorf("spec: dvs steps must start at 1.0 (got %g)", d.Steps[0]))
			}
			for i, st := range d.Steps {
				if st <= 0 || st > 1 {
					errs = append(errs, fmt.Errorf("spec: dvs step %d (%g) outside (0, 1]", i, st))
				}
				if i > 0 && st >= d.Steps[i-1] {
					errs = append(errs, fmt.Errorf("spec: dvs steps must descend (step %d: %g >= %g)", i, st, d.Steps[i-1]))
				}
			}
		}
		if d.TransitionCycles < 0 {
			errs = append(errs, fmt.Errorf("spec: dvs transition_cycles %d negative", d.TransitionCycles))
		}
		if d.HoldCycles < 0 {
			errs = append(errs, fmt.Errorf("spec: dvs hold_cycles %d negative", d.HoldCycles))
		}
		if d.CurrentExponent < 0 {
			errs = append(errs, fmt.Errorf("spec: dvs current_exponent %g negative", d.CurrentExponent))
		}
	}
	if len(s.PDN.Rails) == 1 && len(s.PDN.Coupling) > 0 {
		errs = append(errs, errors.New("spec: coupling requires at least two rails"))
	}
	if len(s.PDN.Rails) > 1 && (s.PDN.EnvelopeIMin != 0 || s.PDN.EnvelopeIMax != 0) {
		// Several rails each feed part of the chip, so their envelopes
		// come from the scoped probe; a chip-wide override has no rail to
		// apply to.
		errs = append(errs, errors.New("spec: envelope_i_min_a/envelope_i_max_a override the chip envelope and need a single rail; several rails measure theirs per scope"))
	}
	return errs
}
