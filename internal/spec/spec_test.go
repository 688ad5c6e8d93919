package spec

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"didt/internal/cpu"
	"didt/internal/pdn"
	"didt/internal/power"
	"didt/internal/workload"
)

// TestDefaultSpecGolden pins the byte-exact JSON form of the resolved
// default spec. The same bytes are served by GET /v1/spec/default and
// printed by didtd -print-default-spec; ci.sh diffs the flag output against
// the golden so a silent default change fails loudly. Regenerate with:
//
//	go run ./cmd/didtd -print-default-spec > internal/spec/testdata/default_spec.json
func TestDefaultSpecGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/default_spec.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(Default()); err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Errorf("default spec JSON drifted from testdata/default_spec.json;\ngot:\n%s\nwant:\n%s",
			buf.String(), want)
	}
}

// TestSpecKeyPinned pins the default spec's content hash. Every memo key in
// the repository is built from the same fingerprint primitive, so an
// accidental change to the hashed representation would silently invalidate
// caches everywhere; this makes it a visible test failure instead.
func TestSpecKeyPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/spec_key.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := RunSpec{}.Key()
	if got != strings.TrimSpace(string(want)) {
		t.Errorf("RunSpec{}.Key() = %s, want pinned %s", got, strings.TrimSpace(string(want)))
	}
	if got != Default().Key() {
		t.Error("sparse and resolved default specs must share a key")
	}
}

func TestKeyIgnoresDefaultableZeros(t *testing.T) {
	var sparse RunSpec
	explicit := RunSpec{}
	explicit.PDN.ImpedancePct = 2.0
	explicit.Workload.Name = "stressmark"
	explicit.Workload.Iterations = 3000
	if sparse.Key() != explicit.Key() {
		t.Error("zero fields and their explicit defaults must hash identically")
	}
	changed := explicit
	changed.PDN.ImpedancePct = 3.0
	if changed.Key() == explicit.Key() {
		t.Error("distinct impedance must change the key")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := Default()
	s.Workload.Name = "gcc"
	s.Workload.Iterations = 1234
	s.Sensor.NoiseMV = 10
	s.Seed = NewSeed(42)
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back RunSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Errorf("round trip changed the spec:\n%+v\nvs\n%+v", s, back)
	}
	if s.Key() != back.Key() {
		t.Error("round trip changed the key")
	}
}

// TestDefaultsMatchSubsystems is the regression guard for collapsing the
// per-package defaulting into the spec layer: the resolved default spec
// must agree field-for-field with what each subsystem package resolves on
// its own, and with the core-level defaults the old core.Options applied.
func TestDefaultsMatchSubsystems(t *testing.T) {
	d := Default()
	if want := (cpu.Config{}).WithDefaults(); !reflect.DeepEqual(d.CPU, want) {
		t.Errorf("CPU defaults diverge from cpu.Config:\n%+v\nvs\n%+v", d.CPU, want)
	}
	if want := (power.Params{}).WithDefaults(); !reflect.DeepEqual(d.Power, want) {
		t.Errorf("power defaults diverge from power.Params:\n%+v\nvs\n%+v", d.Power, want)
	}
	if want := (pdn.Params{}).WithDefaults(); !reflect.DeepEqual(d.PDN.Params, want) {
		t.Errorf("PDN defaults diverge from pdn.Params:\n%+v\nvs\n%+v", d.PDN.Params, want)
	}
	// The run-level defaults the deleted core.Options.withDefaults applied.
	if d.PDN.ImpedancePct != 2.0 {
		t.Errorf("impedance default %g, want 2.0", d.PDN.ImpedancePct)
	}
	if d.Control.SettleCycles != 2 {
		t.Errorf("settle default %d, want 2", d.Control.SettleCycles)
	}
	if d.Actuator.Mechanism != "ideal" {
		t.Errorf("mechanism default %q, want ideal", d.Actuator.Mechanism)
	}
	if d.Workload.Name != "stressmark" || d.Workload.Iterations != 3000 {
		t.Errorf("workload default %q/%d, want stressmark/3000", d.Workload.Name, d.Workload.Iterations)
	}
	if d.Budget.MaxCycles != 20_000_000 || d.Budget.WarmupCycles != 1000 {
		t.Errorf("budget default %d/%d, want 20000000/1000", d.Budget.MaxCycles, d.Budget.WarmupCycles)
	}
	if !d.Seed.Explicit || d.Seed.Value != 0 {
		t.Errorf("seed default %+v, want explicit 0", d.Seed)
	}
	if got := d.WithDefaults(); !reflect.DeepEqual(d, got) {
		t.Error("WithDefaults is not idempotent")
	}
}

func TestValidateCollectsAllErrors(t *testing.T) {
	var s RunSpec
	s = s.WithDefaults()
	s.PDN.ImpedancePct = -1
	s.Sensor.DelayCycles = -2
	s.Actuator.Mechanism = "FU/DL2"
	s.Workload.Name = "gxc"
	s.CPU.LatFPDiv = 2000 // would wrap the core's completion calendar
	err := s.Validate()
	if err == nil {
		t.Fatal("want errors")
	}
	for _, frag := range []string{"impedance_pct", "delay_cycles", "FU/DL2", "gxc", "LatFPDiv 2000"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("combined error misses %q: %v", frag, err)
		}
	}
}

// TestValidateMechanismPairs: a Section 6 pairing validates, and a bad
// half draws the did-you-mean hint for that half.
func TestValidateMechanismPairs(t *testing.T) {
	s := RunSpec{}.WithDefaults()
	s.Actuator.Mechanism = "gate FU/DL1/IL1, fire FU"
	if err := s.Validate(); err != nil {
		t.Fatalf("pairing rejected: %v", err)
	}
	for name, hint := range map[string]string{
		"gate FU, fire FU/DL2":   `did you mean "FU/DL1"?`,
		"gate FU/DL2, fire FU":   `did you mean "FU/DL1"?`,
		"gate FU/DL1, fire idel": `did you mean "ideal"?`,
		"gate FU,fire FU":        "valid: FU, FU/DL1, FU/DL1/IL1, ideal",
	} {
		s.Actuator.Mechanism = name
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), hint) {
			t.Errorf("%q: error %v, want one containing %q", name, err, hint)
		}
	}
}

// TestValidateCalendarBound checks that a memory latency too long for the
// core's completion calendar fails spec validation, not the run.
func TestValidateCalendarBound(t *testing.T) {
	for lat, frag := range map[int]string{
		1000: "exceeds calendar capacity", // fits alone, not with the FP divide
		5000: "Mem.MemLat 5000",
		-1:   "Mem.MemLat -1",
	} {
		var s RunSpec
		s = s.WithDefaults()
		s.CPU.Mem.MemLat = lat
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("MemLat %d: want error containing %q, got %v", lat, frag, err)
		}
	}
}

func TestDidYouMean(t *testing.T) {
	err := ValidBenchmark("gxc")
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), `did you mean "gcc"`) {
		t.Errorf("no gcc hint: %v", err)
	}
	if err := ValidBenchmark("gcc"); err != nil {
		t.Errorf("gcc should be valid: %v", err)
	}
	err = UnknownName("unknown experiment \"fig41\"", "fig41", []string{"fig14", "fig15"})
	if !strings.Contains(err.Error(), `did you mean "fig14"`) {
		t.Errorf("no fig14 hint: %v", err)
	}
}

// TestValidateNeverPanics drives Validate and WithDefaults across a
// fuzz-style sweep of hostile partial specs — extreme numbers in every
// field, inconsistent workload sections — asserting only that they return
// instead of panicking. Mutations come from a fixed table × value pool, so
// the sweep is deterministic.
func TestValidateNeverPanics(t *testing.T) {
	nums := []float64{0, -1, 1, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	ints := []int{0, -1, 1, math.MaxInt32, math.MinInt32}
	muts := []func(*RunSpec, int){
		func(s *RunSpec, i int) { s.PDN.ImpedancePct = nums[i%len(nums)] },
		func(s *RunSpec, i int) { s.PDN.Params.Tolerance = nums[i%len(nums)] },
		func(s *RunSpec, i int) { s.PDN.Params.MaxKernelLen = ints[i%len(ints)] },
		func(s *RunSpec, i int) { s.PDN.EnvelopeIMin = nums[i%len(nums)] },
		func(s *RunSpec, i int) { s.PDN.EnvelopeIMax = nums[(i+1)%len(nums)] },
		func(s *RunSpec, i int) { s.Sensor.DelayCycles = ints[i%len(ints)] },
		func(s *RunSpec, i int) { s.Sensor.NoiseMV = nums[i%len(nums)] },
		func(s *RunSpec, i int) { s.Sensor.GuardBandMV = nums[(i+2)%len(nums)] },
		func(s *RunSpec, i int) { s.Control.SettleCycles = ints[i%len(ints)] },
		func(s *RunSpec, i int) { s.Control.PessimisticRamp = ints[(i+1)%len(ints)] },
		func(s *RunSpec, i int) { s.CPU.RUUSize = ints[i%len(ints)] },
		func(s *RunSpec, i int) { s.CPU.FetchWidth = ints[(i+3)%len(ints)] },
		func(s *RunSpec, i int) { s.Budget.MaxCycles = uint64(i * 1000) },
		func(s *RunSpec, i int) { s.Budget.WarmupCycles = uint64(i * 2000) },
		func(s *RunSpec, i int) {
			s.Actuator.Mechanism = []string{"", "ideal", "FU", "bogus", "\x00", strings.Repeat("x", 300)}[i%6]
		},
		func(s *RunSpec, i int) {
			s.Workload.Name = []string{"", "stressmark", "custom", "gcc", "nope", "\xff"}[i%6]
		},
		func(s *RunSpec, i int) { s.Workload.Iterations = ints[i%len(ints)] },
		func(s *RunSpec, i int) {
			s.Workload.Stressmark = &workload.StressmarkParams{Iterations: ints[i%len(ints)]}
		},
		func(s *RunSpec, i int) { s.Workload.Profile = &workload.Profile{Iterations: ints[i%len(ints)]} },
	}
	check := func(s RunSpec) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on spec %+v: %v", s, r)
			}
		}()
		_ = s.Validate()
		_ = s.WithDefaults().Validate()
		_, _ = s.Resolve()
	}
	for i, m := range muts {
		for j, n := range muts {
			for k := 0; k < 6; k++ {
				var s RunSpec
				m(&s, i+k)
				n(&s, j+k)
				check(s)
			}
		}
	}
}

func TestResolveRejectsInvalid(t *testing.T) {
	var s RunSpec
	s.Workload.Name = "not-a-benchmark"
	if _, err := s.Resolve(); err == nil {
		t.Error("Resolve accepted an unknown benchmark")
	}
	// A kernel cap past pdn.MaxKernelTaps would let one request size an
	// arbitrarily large impulse response (here ~7e7 taps, ~600 MB).
	var huge RunSpec
	if err := json.Unmarshal([]byte(`{"pdn":{"params":{"MaxKernelLen":1073741824,"ClockHz":1e13,"TruncRelTol":1e-300}}}`), &huge); err != nil {
		t.Fatal(err)
	}
	if _, err := huge.Resolve(); err == nil || !strings.Contains(err.Error(), "MaxKernelLen 1073741824 exceeds") {
		t.Errorf("Resolve of an unbounded pdn kernel: got %v, want the MaxKernelLen bound", err)
	}
	// A long resonant period, from a low ResonantHz or a high ClockHz,
	// would make every threshold solve step 14 periods per scenario; a
	// period that rounds to zero cycles divided by zero in the solver.
	for body, want := range map[string]string{
		`{"pdn":{"params":{"ResonantHz":1e10}},"control":{"enabled":true}}`: "spec: pdn: resonant period 0 cycles",
		`{"pdn":{"params":{"ResonantHz":1}},"control":{"enabled":true}}`:    "spec: pdn: resonant period 3e+09 cycles",
		`{"pdn":{"params":{"ClockHz":1e13}}}`:                               "spec: pdn: resonant period 200000 cycles",
		`{"pdn":{"rails":[{"name":"core","params":{"ResonantHz":1e5}}]}}`:   `rail "core": pdn: resonant period 30000 cycles`,
		`{"pdn":{"rails":[{"name":"core","params":{"ClockHz":1e13}}]}}`:     `rail "core": pdn: resonant period 200000 cycles`,
	} {
		var long RunSpec
		if err := json.Unmarshal([]byte(body), &long); err != nil {
			t.Fatal(err)
		}
		if _, err := long.Resolve(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Resolve(%s): got %v, want %q", body, err, want)
		}
	}
	var ok RunSpec
	ok.Workload.Name = "swim"
	r, err := ok.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := r.Program()
	if err != nil || len(prog) == 0 {
		t.Fatalf("Program: %v", err)
	}
}
