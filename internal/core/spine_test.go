package core

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"didt/internal/actuator"
	"didt/internal/isa"
	"didt/internal/spec"
)

var updateSpine = flag.Bool("update", false, "rewrite testdata/spine.golden and testdata/machine.golden")

type spineCase struct {
	name string
	prog isa.Program
	opts Options
}

// spineCases are the closed-loop configurations experiments_output.txt
// does not exercise: single-rail DVS, sensor noise, flush recovery, the
// pessimistic ramp, envelope overrides, recorded traces, a keyed
// open-loop replay, a Section 6 asymmetric mechanism (it replays the keyed
// open-loop run's trace until control first acts), and the coupled
// three-rail loop with DVS bound to one rail.
func spineCases() []spineCase {
	prog := alternator(2000)
	base := knobs{
		ImpedancePct: 3, MaxCycles: 15_001, WarmupCycles: 2_000,
		Control: true, Mechanism: actuator.FU.Name, Delay: 2, Seed: 7,
	}
	var cases []spineCase
	add := func(name string, o Options) { cases = append(cases, spineCase{name, prog, o}) }

	for _, delay := range []int{0, 3} {
		k := base
		k.Delay = delay
		o := k.options()
		o.Spec.Actuator.DVS = &spec.DVSSpec{TransitionCycles: 5, HoldCycles: 400}
		add(fmt.Sprintf("dvs delay=%d", delay), o)
	}

	noisy := base
	noisy.NoiseMV = 10
	noisy.Mechanism = actuator.Ideal.Name
	add("noise=10mV", noisy.options())

	flush := base
	flush.FlushRecovery = true
	add("flush recovery", flush.options())

	for _, ctl := range []bool{true, false} {
		k := base
		k.Control = ctl
		o := k.options()
		o.Spec.Control.PessimisticRamp = 6
		add(fmt.Sprintf("ramp control=%v", ctl), o)
	}

	for _, ctl := range []bool{true, false} {
		k := base
		k.Control = ctl
		k.Mechanism = actuator.Ideal.Name
		k.EnvelopeIMin, k.EnvelopeIMax = 12, 48
		add(fmt.Sprintf("envelope override control=%v", ctl), k.options())
	}

	traced := base.options()
	traced.RecordTraces = true
	add("record traces", traced)

	// Replays its machine trace, as every single-rail open-loop run does.
	open := base
	open.Control = false
	add("keyed open loop", open.options())

	asym := base
	asym.Mechanism = "gate FU, fire ideal"
	add("asymmetric responder", asym.options())

	rails := threeRailKnobs(base)
	rails.Spec.Actuator.DVS = &spec.DVSSpec{TransitionCycles: 5, HoldCycles: 400, Rail: "core"}
	add("3-rail coupled dvs=core", rails)
	return cases
}

// writeSpineResult renders every Result field bit-exactly (%v prints each
// float64 in its shortest round-tripping form) plus the sensors' trip
// counts; the histogram counts and traces go in as FNV-64a digests.
func writeSpineResult(w *bytes.Buffer, name string, r *Result, trips [][3]uint64) {
	fmt.Fprintf(w, "== %s\n", name)
	fmt.Fprintf(w, "stats %+v\n", r.Stats)
	fmt.Fprintf(w, "cycles %d energy %v avgpower %v\n", r.Cycles, r.Energy, r.AvgPower)
	fmt.Fprintf(w, "envelope %v %v vnominal %v\n", r.IMin, r.IMax, r.VNominal)
	fmt.Fprintf(w, "v %v %v emergencies %d freq %v\n", r.MinV, r.MaxV, r.Emergencies, r.EmergencyFreq)
	fmt.Fprintf(w, "thresholds %+v events %d %d\n", r.Thresholds, r.LowEvents, r.HighEvents)
	fmt.Fprintf(w, "dvs %d %d\n", r.DVSStepDowns, r.DVSStepUps)
	for _, rr := range r.Rails {
		fmt.Fprintf(w, "rail %+v\n", rr)
	}
	h := fnv.New64a()
	fmt.Fprint(h, r.Hist.Lo, r.Hist.Hi, r.Hist.Counts)
	fmt.Fprintf(w, "hist %016x\n", h.Sum64())
	h = fnv.New64a()
	for i := range r.CurrentTrace {
		fmt.Fprintf(h, "%x %x ", math.Float64bits(r.CurrentTrace[i]), math.Float64bits(r.VoltageTrace[i]))
	}
	fmt.Fprintf(w, "traces %d %016x\n", len(r.CurrentTrace), h.Sum64())
	fmt.Fprintf(w, "sensor trips %v\n", trips)
}

// TestSpineGolden pins the closed loop bit for bit on the configurations
// of spineCases. Regenerate with `go test ./internal/core -run
// TestSpineGolden -update` only after a deliberate change to the engine's
// results.
func TestSpineGolden(t *testing.T) {
	ResetTraceCache()
	var got bytes.Buffer
	for _, c := range spineCases() {
		sys, err := NewSystem(c.prog, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		writeSpineResult(&got, c.name, res, sensorTrips(sys))
		sys.Close()
	}
	path := filepath.Join("testdata", "spine.golden")
	if *updateSpine {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gl) != len(wl) {
		t.Fatalf("spine has %d lines, golden %d", len(gl), len(wl))
	}
	for i := range gl {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("run differs from golden:\n got %s\nwant %s", gl[i], wl[i])
		}
	}
}
