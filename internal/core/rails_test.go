package core

import (
	"math"
	"testing"

	"didt/internal/actuator"
	"didt/internal/spec"
)

// threeRailKnobs maps the shared knobs onto a three-domain spec: the core
// rail (functional units + uncore), a memory rail (DL1) and a fetch rail
// (IL1), with symmetric core<->mem coupling.
func threeRailKnobs(k knobs) Options {
	o := k.options()
	o.Spec.PDN.Rails = []spec.RailSpec{
		{Name: "core", Scopes: []string{"fu", "uncore"}},
		{Name: "mem", Scopes: []string{"dl1"}},
		{Name: "fetch", Scopes: []string{"il1"}},
	}
	o.Spec.PDN.Coupling = []spec.CouplingSpec{
		{From: "core", To: "mem", K: 0.2},
		{From: "mem", To: "core", K: 0.2},
	}
	return o
}

func TestMultiRailSystemRuns(t *testing.T) {
	sys, err := NewSystem(alternator(300), threeRailKnobs(knobs{MaxCycles: 100000, WarmupCycles: 10000}))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Instructions == 0 {
		t.Error("no instructions retired")
	}
	if len(res.Rails) != 3 {
		t.Fatalf("rail results %d, want 3", len(res.Rails))
	}
	var sum, max uint64
	for _, r := range res.Rails {
		if r.Name == "" || r.IMin <= 0 || r.IMax <= r.IMin {
			t.Errorf("rail %q envelope [%g, %g]", r.Name, r.IMin, r.IMax)
		}
		if r.MinV >= r.MaxV {
			t.Errorf("rail %q voltage range degenerate: [%g, %g]", r.Name, r.MinV, r.MaxV)
		}
		sum += r.Emergencies
		if r.Emergencies > max {
			max = r.Emergencies
		}
	}
	// The aggregate counts cycles where any rail is outside its band:
	// bounded below by the worst rail and above by the sum.
	if res.Emergencies < max || res.Emergencies > sum {
		t.Errorf("aggregate emergencies %d outside [max %d, sum %d]", res.Emergencies, max, sum)
	}
	// The per-rail envelopes partition the chip's.
	var iMinSum, iMaxSum float64
	for _, r := range res.Rails {
		iMinSum += r.IMin
		iMaxSum += r.IMax
	}
	if relErr(iMinSum, res.IMin) > 1e-9 {
		t.Errorf("rail iMin sum %g vs chip %g", iMinSum, res.IMin)
	}
	// Per-scope p98s need not sum to the whole-chip p98, but they bound it
	// from above (max of sum <= sum of maxes, and p98 tracks that closely).
	if iMaxSum < res.IMax {
		t.Errorf("rail iMax sum %g below chip p98 %g", iMaxSum, res.IMax)
	}
}

func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// TestOneRailGraphMatchesLegacySystem pins the spine's seam: a spec whose
// rails section holds one whole-chip rail builds the legacy spec's own
// 1-node graph, so its run equals the legacy run on every Result field
// but Rails — open and closed loop, measured and overridden envelopes (a
// rails spec once ignored pdn.envelope_i_min_a/max_a).
func TestOneRailGraphMatchesLegacySystem(t *testing.T) {
	for _, k := range []knobs{
		{ImpedancePct: 2, MaxCycles: 80000, WarmupCycles: 10000},
		{ImpedancePct: 3, MaxCycles: 30000, WarmupCycles: 5000,
			Control: true, Mechanism: actuator.FU.Name, Delay: 2, NoiseMV: 10, Seed: 7},
		{ImpedancePct: 2, MaxCycles: 30000, WarmupCycles: 5000,
			Control: true, Mechanism: actuator.Ideal.Name, Delay: 1, EnvelopeIMin: 12, EnvelopeIMax: 48},
	} {
		run := func(o Options) *Result {
			sys, err := NewSystem(alternator(300), o)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		lr := run(k.options())
		oneRail := k.options()
		oneRail.Spec.PDN.Rails = []spec.RailSpec{{Name: "chip"}}
		mr := run(oneRail)
		if lr.Rails != nil || len(mr.Rails) != 1 {
			t.Fatalf("%+v: %d legacy and %d one-rail rail results, want 0 and 1", k, len(lr.Rails), len(mr.Rails))
		}
		rail := mr.Rails[0]
		if rail.IMin != mr.IMin || rail.IMax != mr.IMax || rail.MinV != mr.MinV || rail.MaxV != mr.MaxV ||
			rail.Emergencies != mr.Emergencies || rail.Thresholds != mr.Thresholds {
			t.Errorf("%+v: the lone rail %+v disagrees with the aggregate", k, rail)
		}
		mr.Rails = nil
		if d := resultDiff(mr, lr); d != "" {
			t.Errorf("%+v: one-rail graph differs from the legacy system: %s", k, d)
		}
	}
}

// TestMultiRailStreamingMatchesOpenLoop: an uncontrolled multi-rail Run,
// which steps through the block driver on the rails' modal recursion,
// equals the exact cycle-by-cycle StepCycle loop on every Result field,
// mirroring the single-rail guarantee.
func TestMultiRailStreamingMatchesOpenLoop(t *testing.T) {
	k := knobs{ImpedancePct: 2, MaxCycles: 60000, WarmupCycles: 5000}
	fast, err := NewSystem(alternator(200), threeRailKnobs(k))
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	fr, err := fast.Run() // open loop: control off, no telemetry
	if err != nil {
		t.Fatal(err)
	}

	slow, err := NewSystem(alternator(200), threeRailKnobs(k))
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	for slow.cycle < slow.spec.Budget.MaxCycles {
		if st := slow.StepCycle(); st.Done {
			break
		}
	}
	if err := slow.CPU.Err(); err != nil {
		t.Fatal(err)
	}
	sr := slow.finish(slow.CPU.Stats(), slow.Power.TotalEnergy())

	if len(fr.Rails) != 3 {
		t.Fatalf("got %d rails, want 3", len(fr.Rails))
	}
	if d := resultDiff(fr, sr); d != "" {
		t.Errorf("stepped Run differs from the StepCycle loop: %s", d)
	}
}

func TestMultiRailControlSolvesPerRailThresholds(t *testing.T) {
	sys, err := NewSystem(alternator(400), threeRailKnobs(knobs{
		ImpedancePct: 2, MaxCycles: 120000, WarmupCycles: 10000,
		Control: true, Mechanism: actuator.Ideal.Name, Delay: 2,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rails {
		if r.Thresholds.Low >= r.Thresholds.High {
			t.Errorf("rail %q thresholds inverted: [%g, %g]", r.Name, r.Thresholds.Low, r.Thresholds.High)
		}
		vn := res.VNominal
		if r.Thresholds.Low >= vn || r.Thresholds.High <= vn {
			t.Errorf("rail %q thresholds [%g, %g] do not bracket nominal %g",
				r.Name, r.Thresholds.Low, r.Thresholds.High, vn)
		}
	}
	if res.Thresholds != res.Rails[0].Thresholds {
		t.Error("top-level thresholds are not rail 0's")
	}
}

// TestMultiRailDVSComposesWithGating: under sustained pressure the DVS
// schedule steps down while the cycle-scale mechanism keeps actuating —
// the two responders compose in one spec.
func TestMultiRailDVSComposesWithGating(t *testing.T) {
	o := threeRailKnobs(knobs{
		ImpedancePct: 3, MaxCycles: 200000, WarmupCycles: 10000,
		Control: true, Mechanism: actuator.FU.Name, Delay: 4,
	})
	o.Spec.Actuator.DVS = &spec.DVSSpec{
		Steps:            []float64{1, 0.95, 0.9},
		TransitionCycles: 5,
		HoldCycles:       400,
		Rail:             "core",
	}
	sys, err := NewSystem(alternator(1500), o)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.LowEvents == 0 {
		t.Skip("no voltage-low pressure at this configuration")
	}
	if res.DVSStepDowns == 0 {
		t.Error("sustained low pressure never stepped the DVS schedule down")
	}
}

func TestMultiRailDeterministic(t *testing.T) {
	run := func() *Result {
		o := threeRailKnobs(knobs{
			ImpedancePct: 2, MaxCycles: 60000, WarmupCycles: 5000,
			Control: true, Mechanism: actuator.Ideal.Name, Delay: 2, NoiseMV: 5, Seed: 42,
		})
		sys, err := NewSystem(alternator(300), o)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Emergencies != b.Emergencies || a.MinV != b.MinV || a.MaxV != b.MaxV {
		t.Errorf("runs differ: %d/%d cycles, %d/%d emerg", a.Cycles, b.Cycles, a.Emergencies, b.Emergencies)
	}
	for i := range a.Rails {
		if a.Rails[i] != b.Rails[i] {
			t.Errorf("rail %d differs:\n%+v\n%+v", i, a.Rails[i], b.Rails[i])
		}
	}
}

func TestMultiRailRejectsResponderOverride(t *testing.T) {
	o := threeRailKnobs(knobs{MaxCycles: 1000})
	o.Responder = actuator.Asymmetric{Low: actuator.FU, High: actuator.Ideal}
	if _, err := NewSystem(alternator(10), o); err == nil {
		t.Fatal("multi-rail spec accepted a code-level responder override")
	}
}

// TestSingleRailDVSInertWithoutControl: a DVS section on a legacy
// single-rail spec with control disabled never engages, and the run is
// bit-identical to the same spec without it.
func TestSingleRailDVSInertWithoutControl(t *testing.T) {
	k := knobs{ImpedancePct: 2, MaxCycles: 60000, WarmupCycles: 5000}
	base, err := NewSystem(alternator(200), k.options())
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	br, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}

	o := k.options()
	o.Spec.Actuator.DVS = &spec.DVSSpec{}
	dvs, err := NewSystem(alternator(200), o)
	if err != nil {
		t.Fatal(err)
	}
	defer dvs.Close()
	dr, err := dvs.Run()
	if err != nil {
		t.Fatal(err)
	}
	if br.MinV != dr.MinV || br.MaxV != dr.MaxV || br.Emergencies != dr.Emergencies || br.Cycles != dr.Cycles {
		t.Errorf("inert DVS changed the run: [%v %v %d] vs [%v %v %d]",
			br.MinV, br.MaxV, br.Emergencies, dr.MinV, dr.MaxV, dr.Emergencies)
	}
	if dr.DVSStepDowns != 0 || dr.DVSStepUps != 0 {
		t.Errorf("inert DVS stepped: %d down %d up", dr.DVSStepDowns, dr.DVSStepUps)
	}
}

// TestSingleRailDVSEngagesWithControl: on a legacy spec's one rail the
// schedule advances from the sensed level and shows up in the result
// counters.
func TestSingleRailDVSEngagesWithControl(t *testing.T) {
	o := knobs{
		ImpedancePct: 3, MaxCycles: 200000, WarmupCycles: 10000,
		Control: true, Mechanism: actuator.FU.Name, Delay: 4,
	}.options()
	o.Spec.Actuator.DVS = &spec.DVSSpec{TransitionCycles: 5, HoldCycles: 400}
	sys, err := NewSystem(alternator(1500), o)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.LowEvents == 0 {
		t.Skip("no voltage-low pressure at this configuration")
	}
	if res.DVSStepDowns == 0 {
		t.Error("controlled single-rail run with low pressure never stepped down")
	}
}
