package spec

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"didt/internal/pdn"
	"didt/internal/power"
)

func threeRailSpec() RunSpec {
	s := RunSpec{}
	s.PDN.Rails = []RailSpec{
		{Name: "core", Scopes: []string{"fu", "uncore"}},
		{Name: "mem", Scopes: []string{"dl1"}},
		{Name: "fetch", Scopes: []string{"il1"}},
	}
	s.PDN.Coupling = []CouplingSpec{
		{From: "core", To: "mem", K: 0.2},
		{From: "mem", To: "core", K: 0.2},
	}
	return s
}

// TestLegacySpecKeyUnchangedByRails is the refactor's pinned guarantee:
// introducing the rails, coupling, sensor-rails and DVS sections must not
// move a single byte of a legacy spec's resolved JSON, so its Key() — and
// every memo built from it — is exactly what it was before this change.
func TestLegacySpecKeyUnchangedByRails(t *testing.T) {
	resolved := Default()
	raw, err := json.Marshal(resolved)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"rails", "coupling", "dvs"} {
		if strings.Contains(string(raw), `"`+field+`"`) {
			t.Errorf("legacy resolved spec JSON leaks new field %q: %s", field, raw)
		}
	}
	// The sensor section gained a "rails" list too; covered by the first
	// loop iteration, but assert the section explicitly for clarity.
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(m["sensor"]), "rails") {
		t.Errorf("legacy sensor section leaks rails: %s", m["sensor"])
	}
}

func TestRailDefaultsInheritSharedPDN(t *testing.T) {
	s := threeRailSpec().WithDefaults()
	if !s.PDN.MultiRail() {
		t.Fatal("rails spec not multi-rail")
	}
	for _, r := range s.PDN.Rails {
		if r.Params != s.PDN.Params {
			t.Errorf("rail %q params %+v did not inherit shared %+v", r.Name, r.Params, s.PDN.Params)
		}
		if r.ImpedancePct != s.PDN.ImpedancePct {
			t.Errorf("rail %q impedance %g did not inherit shared %g", r.Name, r.ImpedancePct, s.PDN.ImpedancePct)
		}
	}
	// A rail with partial params resolves through pdn defaults instead.
	s2 := threeRailSpec()
	s2.PDN.Rails[1].Params = pdn.Params{ResonantHz: 80e6}
	s2 = s2.WithDefaults()
	if got := s2.PDN.Rails[1].Params.ResonantHz; got != 80e6 {
		t.Errorf("explicit resonance overwritten: %g", got)
	}
	if got := s2.PDN.Rails[1].Params.ClockHz; got != pdn.DefaultClockHz {
		t.Errorf("partial rail params not defaulted: clock %g", got)
	}
}

func TestRailDefaultsIdempotent(t *testing.T) {
	s := threeRailSpec()
	s.Actuator.DVS = &DVSSpec{Rail: "core"}
	once := s.WithDefaults()
	twice := once.WithDefaults()
	if !reflect.DeepEqual(once, twice) {
		t.Errorf("WithDefaults not idempotent:\nonce  %+v\ntwice %+v", once, twice)
	}
	if once.Key() != twice.Key() {
		t.Errorf("key drifts across resolutions: %s vs %s", once.Key(), twice.Key())
	}
}

func TestWithDefaultsDoesNotAliasCallerRails(t *testing.T) {
	s := threeRailSpec()
	_ = s.WithDefaults()
	if s.PDN.Rails[0].Params != (pdn.Params{}) {
		t.Error("WithDefaults mutated the caller's rail params")
	}
	if s.Actuator.DVS != nil {
		t.Error("unexpected DVS materialization")
	}
}

func TestDVSDefaults(t *testing.T) {
	s := RunSpec{}
	s.Actuator.DVS = &DVSSpec{}
	r := s.WithDefaults()
	d := r.Actuator.DVS
	if d == nil {
		t.Fatal("DVS section dropped")
	}
	if !reflect.DeepEqual(d.Steps, []float64{1, 0.95, 0.9}) {
		t.Errorf("default steps %v", d.Steps)
	}
	if d.TransitionCycles != 10 || d.HoldCycles != 60 || d.CurrentExponent != 2 {
		t.Errorf("default schedule %+v", d)
	}
	if err := r.Validate(); err != nil {
		t.Errorf("defaulted DVS spec invalid: %v", err)
	}
}

func TestRailScopeMasks(t *testing.T) {
	s := threeRailSpec().WithDefaults()
	masks, err := s.PDN.RailScopeMasks()
	if err != nil {
		t.Fatal(err)
	}
	want := []power.ScopeMask{
		power.ScopeFU.Mask() | power.ScopeUncore.Mask(),
		power.ScopeDL1.Mask(),
		power.ScopeIL1.Mask(),
	}
	if !reflect.DeepEqual(masks, want) {
		t.Errorf("masks %v, want %v", masks, want)
	}
	// Unclaimed scopes fall to the first rail.
	s2 := RunSpec{}
	s2.PDN.Rails = []RailSpec{{Name: "a"}, {Name: "b", Scopes: []string{"dl1"}}}
	masks, err = s2.PDN.RailScopeMasks()
	if err != nil {
		t.Fatal(err)
	}
	if masks[0] != power.AllScopes&^power.ScopeDL1.Mask() || masks[1] != power.ScopeDL1.Mask() {
		t.Errorf("unclaimed-scope masks %v", masks)
	}
}

func TestCouplingMatrix(t *testing.T) {
	s := threeRailSpec().WithDefaults()
	m, err := s.PDN.CouplingMatrix()
	if err != nil {
		t.Fatal(err)
	}
	// matrix[to][from]
	if m[1][0] != 0.2 || m[0][1] != 0.2 || m[2][0] != 0 {
		t.Errorf("coupling matrix %v", m)
	}
	legacy := RunSpec{}.WithDefaults()
	if lm, err := legacy.PDN.CouplingMatrix(); err != nil || lm != nil {
		t.Errorf("legacy coupling matrix %v, %v", lm, err)
	}
}

// TestRailsValidation covers the satellite checklist: duplicate rail
// names, self-coupling, out-of-range coefficients, and unknown rail
// references in actuator/sensor bindings, each with a did-you-mean hint
// where a registry exists, all collected errors.Join style.
func TestRailsValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*RunSpec)
		want string
	}{
		{"duplicate rail name", func(s *RunSpec) {
			s.PDN.Rails[1].Name = "core"
		}, `duplicate rail name "core"`},
		{"unnamed rail", func(s *RunSpec) {
			s.PDN.Rails[2].Name = ""
		}, "rail 2 has no name"},
		{"self coupling", func(s *RunSpec) {
			s.PDN.Coupling[0].To = "core"
		}, `rail "core" couples to itself`},
		{"coefficient too large", func(s *RunSpec) {
			s.PDN.Coupling[0].K = 1.0
		}, "outside [0, 1)"},
		{"negative coefficient", func(s *RunSpec) {
			s.PDN.Coupling[0].K = -0.1
		}, "outside [0, 1)"},
		{"duplicate coupling", func(s *RunSpec) {
			s.PDN.Coupling = append(s.PDN.Coupling, CouplingSpec{From: "core", To: "mem", K: 0.1})
		}, `duplicate coupling entry "core" -> "mem"`},
		{"unknown coupling rail", func(s *RunSpec) {
			s.PDN.Coupling[0].From = "coer"
		}, `did you mean "core"`},
		{"unknown sensor rail", func(s *RunSpec) {
			s.Sensor.Rails = []string{"memm"}
		}, `did you mean "mem"`},
		{"unknown dvs rail", func(s *RunSpec) {
			s.Actuator.DVS = &DVSSpec{Rail: "fethc"}
		}, `did you mean "fetch"`},
		{"unknown scope", func(s *RunSpec) {
			s.PDN.Rails[1].Scopes = []string{"dl2"}
		}, `did you mean "dl1"`},
		{"scope claimed twice", func(s *RunSpec) {
			s.PDN.Rails[2].Scopes = []string{"il1", "dl1"}
		}, `scope "dl1" claimed by both`},
		{"rail without scopes", func(s *RunSpec) {
			s.PDN.Rails[0].Scopes = []string{"fu", "uncore", "il1"}
			s.PDN.Rails[2].Scopes = nil
		}, `rail "fetch" owns no scopes`},
		{"sensor rails without rails section", func(s *RunSpec) {
			s.PDN.Rails = nil
			s.PDN.Coupling = nil
			s.Sensor.Rails = []string{"core"}
		}, "no rails section"},
		{"dvs steps not descending", func(s *RunSpec) {
			s.Actuator.DVS = &DVSSpec{Steps: []float64{1, 0.9, 0.95}}
		}, "must descend"},
		{"dvs steps not from 1", func(s *RunSpec) {
			s.Actuator.DVS = &DVSSpec{Steps: []float64{0.95, 0.9}}
		}, "must start at 1.0"},
		{"dvs step out of range", func(s *RunSpec) {
			s.Actuator.DVS = &DVSSpec{Steps: []float64{1, 0.5, -0.1}}
		}, "outside (0, 1]"},
		{"negative dvs latency", func(s *RunSpec) {
			s.Actuator.DVS = &DVSSpec{TransitionCycles: -1}
		}, "transition_cycles -1 negative"},
		{"coupling on single rail", func(s *RunSpec) {
			s.PDN.Rails = s.PDN.Rails[:1]
			s.PDN.Rails[0].Scopes = nil
			s.PDN.Coupling = []CouplingSpec{{From: "core", To: "core", K: 0.1}}
		}, "coupling requires at least two rails"},
		{"envelope override on several rails", func(s *RunSpec) {
			s.PDN.EnvelopeIMax = 48
		}, "need a single rail"},
	}
	for _, tc := range cases {
		s := threeRailSpec()
		tc.mut(&s)
		// Validate the sparse spec directly (validateRails does not depend
		// on resolution) so negative-latency cases aren't masked by
		// defaulting.
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
	// And the baseline multi-rail spec itself is valid, as is a one-rail
	// spec with envelope overrides (its rail feeds the whole chip).
	if _, err := threeRailSpec().Resolve(); err != nil {
		t.Errorf("baseline rails spec invalid: %v", err)
	}
	one := RunSpec{}
	one.PDN.Rails = []RailSpec{{Name: "chip"}}
	one.PDN.EnvelopeIMin, one.PDN.EnvelopeIMax = 12, 48
	if _, err := one.Resolve(); err != nil {
		t.Errorf("one-rail spec with envelope overrides invalid: %v", err)
	}
}

// TestRailsChangeKey: rails, coupling, sensor bindings and DVS are all
// part of the resolved content hash — specs differing only there must
// not collide in any memo.
func TestRailsChangeKey(t *testing.T) {
	base := RunSpec{}.Key()
	keys := map[string]string{"legacy": base}
	add := func(name string, s RunSpec) {
		k := s.Key()
		for prev, pk := range keys {
			if pk == k {
				t.Errorf("%s and %s share key %s", name, prev, k)
			}
		}
		keys[name] = k
	}
	add("rails", threeRailSpec())
	uncoupled := threeRailSpec()
	uncoupled.PDN.Coupling = nil
	add("uncoupled", uncoupled)
	dvs := threeRailSpec()
	dvs.Actuator.DVS = &DVSSpec{}
	add("dvs", dvs)
	sensed := threeRailSpec()
	sensed.Sensor.Rails = []string{"core"}
	add("sensor-rails", sensed)
}
