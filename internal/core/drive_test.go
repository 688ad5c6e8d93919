package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"didt/internal/actuator"
	"didt/internal/isa"
	"didt/internal/pdn"
	"didt/internal/spec"
	"didt/internal/telemetry"
)

// The block driver's contract: Run — which advances up to pdn.MaxBlock
// cycles per PDN pass — produces exactly the Result of stepping the same
// system one cycle at a time. These tests compare every Result field with
// ==, plus the sensors' trip counts (which also pin the noise stream), so
// any drift in control ordering, noise-draw order or accumulation order
// fails them.

// stepwise runs sys to completion through StepCycle, one cycle per call.
func stepwise(t *testing.T, sys *System) *Result {
	t.Helper()
	for sys.cycle < sys.spec.Budget.MaxCycles {
		if sys.StepCycle().Done {
			break
		}
	}
	if err := sys.CPU.Err(); err != nil {
		t.Fatal(err)
	}
	return sys.finish(sys.CPU.Stats(), sys.Power.TotalEnergy())
}

// sensorTrips lists every sensor's (samples, low, high) counts.
func sensorTrips(sys *System) [][3]uint64 {
	var out [][3]uint64
	for i := range sys.rails {
		if sen := sys.rails[i].sensor; sen != nil {
			a, b, c := sen.Trips()
			out = append(out, [3]uint64{a, b, c})
		}
	}
	return out
}

// resultDiff names the first Result field on which got and want differ,
// or returns "" when they agree everywhere.
func resultDiff(got, want *Result) string {
	switch {
	case got.Stats != want.Stats:
		return fmt.Sprintf("Stats %+v vs %+v", got.Stats, want.Stats)
	case got.Cycles != want.Cycles:
		return fmt.Sprintf("Cycles %d vs %d", got.Cycles, want.Cycles)
	case got.Energy != want.Energy || got.AvgPower != want.AvgPower:
		return fmt.Sprintf("Energy/AvgPower %v/%v vs %v/%v", got.Energy, got.AvgPower, want.Energy, want.AvgPower)
	case got.IMin != want.IMin || got.IMax != want.IMax || got.VNominal != want.VNominal:
		return "envelope or VNominal"
	case got.MinV != want.MinV || got.MaxV != want.MaxV:
		return fmt.Sprintf("MinV/MaxV %v/%v vs %v/%v", got.MinV, got.MaxV, want.MinV, want.MaxV)
	case got.Emergencies != want.Emergencies || got.EmergencyFreq != want.EmergencyFreq:
		return fmt.Sprintf("Emergencies %d vs %d", got.Emergencies, want.Emergencies)
	case got.Thresholds != want.Thresholds:
		return fmt.Sprintf("Thresholds %+v vs %+v", got.Thresholds, want.Thresholds)
	case got.LowEvents != want.LowEvents || got.HighEvents != want.HighEvents:
		return fmt.Sprintf("Low/HighEvents %d/%d vs %d/%d", got.LowEvents, got.HighEvents, want.LowEvents, want.HighEvents)
	case got.DVSStepDowns != want.DVSStepDowns || got.DVSStepUps != want.DVSStepUps:
		return fmt.Sprintf("DVS steps %d/%d vs %d/%d", got.DVSStepDowns, got.DVSStepUps, want.DVSStepDowns, want.DVSStepUps)
	case len(got.Rails) != len(want.Rails):
		return fmt.Sprintf("%d rails vs %d", len(got.Rails), len(want.Rails))
	case len(got.Hist.Counts) != len(want.Hist.Counts):
		return "histogram shape"
	case len(got.CurrentTrace) != len(want.CurrentTrace) || len(got.VoltageTrace) != len(want.VoltageTrace):
		return "trace lengths"
	}
	for i := range got.Rails {
		if got.Rails[i] != want.Rails[i] {
			return fmt.Sprintf("rail %d: %+v vs %+v", i, got.Rails[i], want.Rails[i])
		}
	}
	for i := range got.Hist.Counts {
		if got.Hist.Counts[i] != want.Hist.Counts[i] {
			return fmt.Sprintf("histogram bin %d: %d vs %d", i, got.Hist.Counts[i], want.Hist.Counts[i])
		}
	}
	for i := range got.CurrentTrace {
		if got.CurrentTrace[i] != want.CurrentTrace[i] || got.VoltageTrace[i] != want.VoltageTrace[i] {
			return fmt.Sprintf("trace cycle %d", i)
		}
	}
	return ""
}

// checkRunMatchesStepwise builds two identical systems, runs one through
// Run and the other cycle by cycle, and compares the results and sensor
// trips. It returns the Run result and the block length Run used.
func checkRunMatchesStepwise(t *testing.T, name string, prog isa.Program, opts Options) (*Result, int) {
	t.Helper()
	res, blk := compareRunStepwise(t, name, prog, opts, nil)
	return res, blk.blockLen()
}

// compareRunStepwise is checkRunMatchesStepwise with a setup hook applied
// to both systems before they run; it returns the Run result and system.
func compareRunStepwise(t *testing.T, name string, prog isa.Program, opts Options, setup func(*System)) (*Result, *System) {
	t.Helper()
	blk, err := NewSystem(prog, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer blk.Close()
	ref, err := NewSystem(prog, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer ref.Close()
	if setup != nil {
		setup(blk)
		setup(ref)
	}
	b := blk.blockLen()
	got, err := blk.Run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := stepwise(t, ref)
	if d := resultDiff(got, want); d != "" {
		t.Errorf("%s (B=%d): Run differs from the stepwise loop: %s", name, b, d)
	}
	gt, wt := sensorTrips(blk), sensorTrips(ref)
	if fmt.Sprint(gt) != fmt.Sprint(wt) {
		t.Errorf("%s (B=%d): sensor trips %v vs %v", name, b, gt, wt)
	}
	return got, blk
}

// TestRunMatchesStepwiseAcrossDelays covers every sensor delay the paper
// studies on the single-rail and the coupled three-rail system, with an
// ideal and a 10 and 25 mV noisy sensor, and a budget that is not a
// multiple of any block length so the last block is cut short. Run takes
// its voltages from the PDN's modal recursion; the stepwise oracle is
// exact.
func TestRunMatchesStepwiseAcrossDelays(t *testing.T) {
	prog := alternator(2000)
	for delay := 0; delay <= 6; delay++ {
		for _, noise := range []float64{0, 10, 25} {
			k := knobs{
				ImpedancePct: 2.5, MaxCycles: 12_007, WarmupCycles: 2_000,
				Control: true, Mechanism: actuator.FU.Name, Delay: delay, NoiseMV: noise, Seed: 7,
			}
			name := fmt.Sprintf("single delay=%d noise=%g", delay, noise)
			res, b := checkRunMatchesStepwise(t, name, prog, k.options())
			if want := min(delay+1, pdn.MaxBlock); b != want {
				t.Errorf("%s: block length %d, want %d", name, b, want)
			}
			if delay == 2 && res.LowEvents+res.HighEvents == 0 {
				t.Errorf("%s: controller never acted; the comparison proves little", name)
			}
			k.ImpedancePct = 3
			checkRunMatchesStepwise(t, fmt.Sprintf("3-rail delay=%d noise=%g", delay, noise), prog, threeRailKnobs(k))
		}
	}
}

// TestRunMatchesStepwiseControlVariants covers flush recovery, a Section 6
// asymmetric mechanism on one rail and on three, the pessimistic ramp with
// and without a controller (the latter at the full block length), DVS on
// one rail and on three, and trace recording.
func TestRunMatchesStepwiseControlVariants(t *testing.T) {
	prog := alternator(2000)
	base := knobs{
		ImpedancePct: 2.5, MaxCycles: 15_001, WarmupCycles: 2_000,
		Control: true, Mechanism: actuator.FU.Name, Delay: 3, NoiseMV: 10, Seed: 3,
	}

	flush := base
	flush.FlushRecovery = true
	checkRunMatchesStepwise(t, "single flush", prog, flush.options())
	checkRunMatchesStepwise(t, "3-rail flush", prog, threeRailKnobs(flush))

	asym := base
	asym.Mechanism = "gate FU/DL1/IL1, fire FU"
	checkRunMatchesStepwise(t, "single asymmetric", prog, asym.options())
	checkRunMatchesStepwise(t, "3-rail asymmetric", prog, threeRailKnobs(asym))

	ramp := base.options()
	ramp.Spec.Control.PessimisticRamp = 6
	checkRunMatchesStepwise(t, "ramp with control", prog, ramp)

	rampOnly := base
	rampOnly.Control = false
	o := rampOnly.options()
	o.Spec.Control.PessimisticRamp = 6
	if _, b := checkRunMatchesStepwise(t, "ramp without control", prog, o); b != pdn.MaxBlock {
		t.Errorf("ramp without control: block length %d, want %d", b, pdn.MaxBlock)
	}
	o = threeRailKnobs(rampOnly)
	o.Spec.Control.PessimisticRamp = 6
	checkRunMatchesStepwise(t, "3-rail ramp without control", prog, o)

	dvs := knobs{
		ImpedancePct: 3, MaxCycles: 20_000, WarmupCycles: 2_000,
		Control: true, Mechanism: actuator.FU.Name, Delay: 4,
	}
	o = dvs.options()
	o.Spec.Actuator.DVS = &spec.DVSSpec{TransitionCycles: 5, HoldCycles: 400}
	single, _ := checkRunMatchesStepwise(t, "single DVS", prog, o)
	o = threeRailKnobs(dvs)
	o.Spec.Actuator.DVS = &spec.DVSSpec{Steps: []float64{1, 0.95, 0.9}, TransitionCycles: 10, HoldCycles: 120, Rail: "core"}
	multi, _ := checkRunMatchesStepwise(t, "3-rail DVS", prog, o)
	if single.DVSStepDowns+multi.DVSStepDowns == 0 {
		t.Error("no DVS schedule ever stepped; the DVS comparison proves little")
	}

	traced := base.options()
	traced.RecordTraces = true
	res, _ := checkRunMatchesStepwise(t, "single traces", prog, traced)
	if len(res.VoltageTrace) != int(res.Cycles) {
		t.Errorf("traced run recorded %d voltages for %d cycles", len(res.VoltageTrace), res.Cycles)
	}
	traced = threeRailKnobs(base)
	traced.RecordTraces = true
	checkRunMatchesStepwise(t, "3-rail traces", prog, traced)
}

// TestRunMatchesStepwiseRetiresMidBlock runs a program that retires well
// inside the budget, at each block length, and requires that retirement
// land mid-block for at least one of them — the driver must stop the
// machine, convolve the partial block and finish its last control half.
func TestRunMatchesStepwiseRetiresMidBlock(t *testing.T) {
	prog := alternator(60)
	midBlock := false
	for delay := 0; delay < pdn.MaxBlock; delay++ {
		k := knobs{
			ImpedancePct: 2.5, MaxCycles: 1_000_000, WarmupCycles: 500,
			Control: true, Mechanism: actuator.FU.Name, Delay: delay, NoiseMV: 10,
		}
		res, b := checkRunMatchesStepwise(t, fmt.Sprintf("retire delay=%d", delay), prog, k.options())
		if res.Cycles >= k.MaxCycles {
			t.Fatalf("delay %d: program did not retire within the budget", delay)
		}
		midBlock = midBlock || res.Cycles%uint64(b) != 0
		k.ImpedancePct = 3
		checkRunMatchesStepwise(t, fmt.Sprintf("3-rail retire delay=%d", delay), prog, threeRailKnobs(k))
	}
	if !midBlock {
		t.Error("retirement never fell mid-block; pick a different program length")
	}
}

// TestRunMatchesStepwiseOpenLoop covers runs with control off. Every
// single-rail run replays its machine trace from the trace cache, on a
// miss and then on hits, through the driver's PDN half; a multi-rail run
// steps. All must equal the exact stepwise loop on every Result field,
// with and without warmup, with traces recorded, over several trace
// chunks, and for programs that retire mid-block. The trace cache is
// keyed on the program's content: a caller-built program replays, and two
// programs that differ in one immediate take a trace each. The replay must
// also leave the cached currents untouched and publish its modal and exact
// counts.
func TestRunMatchesStepwiseOpenLoop(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	reg := telemetry.Default()
	modal0 := reg.Counter("pdn.modal_cycles_total").Value()
	exact0 := reg.Counter("pdn.exact_evals_total").Value()
	cache0 := TraceCacheStats()
	var modal, exact, replayModal, replayExact uint64
	check := func(name string, prog isa.Program, opts Options) *Result {
		t.Helper()
		res, sys := compareRunStepwise(t, name, prog, opts, nil)
		if want := !opts.Spec.PDN.MultiRail(); sys.replays() != want {
			t.Errorf("%s: replays() = %v, want %v", name, !want, want)
		}
		modal += sys.modalCycles
		exact += sys.exactEvals
		if sys.replays() {
			replayModal += sys.modalCycles
			replayExact += sys.exactEvals
		}
		return res
	}

	prog := alternator(2000)
	for _, warm := range []uint64{0, 3_000} {
		k := knobs{ImpedancePct: 2.5, MaxCycles: 12_007, WarmupCycles: warm}
		// Warmup gates statistics, not stepping, so both warmups share
		// one cached trace: one miss, then hits.
		first := check(fmt.Sprintf("single warmup=%d", warm), prog, k.options())
		sys, err := NewSystem(prog, k.options())
		if err != nil {
			t.Fatal(err)
		}
		mr, err := sys.machineTrace()
		sys.Close()
		if err != nil {
			t.Fatal(err)
		}
		cached := slices.Concat(mr.chunks...)
		second := check(fmt.Sprintf("single again warmup=%d", warm), prog, k.options())
		if d := resultDiff(second, first); d != "" {
			t.Errorf("warmup %d: cached replays differ: %s", warm, d)
		}
		if !slices.Equal(slices.Concat(mr.chunks...), cached) {
			t.Errorf("warmup %d: the replay wrote into the cached trace", warm)
		}

		traced := k.options()
		traced.RecordTraces = true
		res := check(fmt.Sprintf("traces warmup=%d", warm), prog, traced)
		if len(res.VoltageTrace) != int(res.Cycles) {
			t.Errorf("warmup %d: recorded %d voltages for %d cycles", warm, len(res.VoltageTrace), res.Cycles)
		}

		k.ImpedancePct = 3
		check(fmt.Sprintf("3-rail warmup=%d", warm), prog, threeRailKnobs(k))
		o := threeRailKnobs(k)
		o.RecordTraces = true
		check(fmt.Sprintf("3-rail traces warmup=%d", warm), prog, o)
	}

	// Three chunks, the last one cut short mid-block.
	k := knobs{ImpedancePct: 2.5, MaxCycles: 2*traceChunk + 4_003, WarmupCycles: 3_000}
	check("chunks", prog, k.options())

	// alternator(59) and alternator(60) have equal lengths and differ in
	// one immediate (the iteration count); each retires at its own cycle,
	// so a replay of the other's trace would fail its comparison.
	k = knobs{ImpedancePct: 2.5, MaxCycles: 1_000_000, WarmupCycles: 500}
	res := check("retire", alternator(59), k.options())
	if res.Cycles >= k.MaxCycles || res.Cycles%pdn.MaxBlock == 0 {
		t.Errorf("program retired at cycle %d; want mid-block, within the budget", res.Cycles)
	}
	if other := check("retire one iteration later", alternator(60), k.options()); other.Cycles == res.Cycles {
		t.Errorf("both programs retired at cycle %d; the comparison proves little", res.Cycles)
	}
	k.ImpedancePct = 3
	check("3-rail retire", alternator(59), threeRailKnobs(k))

	// alternator(2000): 2 warmups x (first, machineTrace, again, traces),
	// all on one trace; then one trace each for the chunked budget and
	// the two retiring programs.
	if st := TraceCacheStats(); st.Misses-cache0.Misses != 4 || st.Hits-cache0.Hits != 7 {
		t.Errorf("trace cache: %d misses and %d hits, want 4 and 7",
			st.Misses-cache0.Misses, st.Hits-cache0.Hits)
	}
	if replayModal == 0 || replayExact == 0 {
		t.Errorf("replays took %d modal and %d exact cycles; want both > 0", replayModal, replayExact)
	}
	if got := reg.Counter("pdn.modal_cycles_total").Value() - modal0; got != int64(modal) {
		t.Errorf("pdn.modal_cycles_total grew by %d, want %d", got, modal)
	}
	if got := reg.Counter("pdn.exact_evals_total").Value() - exact0; got != int64(exact) {
		t.Errorf("pdn.exact_evals_total grew by %d, want %d", got, exact)
	}
}

// TestTelemetryStreamRunsOneCycleBlocks: a live cycle stream interleaves
// each cycle's voltage with that cycle's control decision, so the driver
// steps one cycle per block — and the result still equals the blocked
// run without a stream.
func TestTelemetryStreamRunsOneCycleBlocks(t *testing.T) {
	k := knobs{
		ImpedancePct: 2.5, MaxCycles: 10_001, WarmupCycles: 1_000,
		Control: true, Mechanism: actuator.FU.Name, Delay: 4, NoiseMV: 10,
	}
	o := k.options()
	o.Telemetry = telemetry.NewTracer(1 << 10)
	o.TelemetryName = "drive"
	traced, b := checkRunMatchesStepwise(t, "telemetry", alternator(2000), o)
	if b != 1 {
		t.Errorf("telemetry stream: block length %d, want 1", b)
	}
	plain, b := checkRunMatchesStepwise(t, "no telemetry", alternator(2000), k.options())
	if b != pdn.MaxBlock {
		t.Errorf("no telemetry: block length %d, want %d", b, pdn.MaxBlock)
	}
	if d := resultDiff(traced, plain); d != "" {
		t.Errorf("telemetry changed the run: %s", d)
	}
}

// pinSensor sets rail 0's sensor thresholds to (lo, hi) and every other
// rail's to values the supply never reaches.
func pinSensor(sys *System, lo, hi float64) {
	for i := range sys.rails[1:] {
		if r := sys.rails[i+1].sensor; r != nil {
			_ = r.SetThresholds(0, 2)
		}
	}
	if err := sys.Sensor.SetThresholds(lo, hi); err != nil {
		panic(err)
	}
}

// TestRunMatchesStepwisePinnedThresholds puts a sensor threshold exactly
// on a voltage the exact oracle produced — the first one past 20 mV from
// nominal on an otherwise uncontrolled run, so the run up to that sample
// is unchanged by the pin — and one ulp either side. Whether the sensor
// trips on that sample depends on its last bit, so Run must ingest it
// exactly: results equal the stepwise oracle's, and Run re-evaluated
// samples exactly.
func TestRunMatchesStepwisePinnedThresholds(t *testing.T) {
	prog := alternator(2000)
	for _, delay := range []int{0, 2, 5} {
		for _, noise := range []float64{0, 10} {
			for _, rails := range []int{1, 3} {
				// The whole run is warmup: no statistic is kept, so the
				// sensor is the only consumer that can demand an exact
				// voltage.
				k := knobs{
					ImpedancePct: 2.5, MaxCycles: 12_007, WarmupCycles: 12_007,
					Control: true, Mechanism: actuator.FU.Name, Delay: delay, NoiseMV: noise, Seed: 7,
				}
				opts := k.options()
				if rails == 3 {
					k.ImpedancePct = 3
					opts = threeRailKnobs(k)
				}
				oracle, err := NewSystem(prog, opts)
				if err != nil {
					t.Fatal(err)
				}
				pinSensor(oracle, 0, 2)
				lo, hi := math.NaN(), math.NaN()
				vnom := oracle.Net.Params().VNominal
				for oracle.cycle < oracle.spec.Budget.MaxCycles {
					st := oracle.StepCycle()
					if math.IsNaN(lo) && st.Voltage < vnom-0.02 {
						lo = st.Voltage
					}
					if math.IsNaN(hi) && st.Voltage > vnom+0.02 {
						hi = st.Voltage
					}
					if st.Done {
						break
					}
				}
				oracle.Close()
				if math.IsNaN(lo) || math.IsNaN(hi) {
					t.Fatalf("delay %d: uncontrolled run never left +-20 mV (lo %v hi %v)", delay, lo, hi)
				}
				for _, pin := range []struct {
					name string
					edge float64
				}{{"lo", lo}, {"hi", hi}} {
					for _, th := range []float64{pin.edge, math.Nextafter(pin.edge, 0), math.Nextafter(pin.edge, 2)} {
						l, h := th, 2.0
						if pin.name == "hi" {
							l, h = 0, th
						}
						name := fmt.Sprintf("%d-rail delay=%d noise=%g %s=%v", rails, delay, noise, pin.name, th)
						_, sys := compareRunStepwise(t, name, prog, opts, func(s *System) { pinSensor(s, l, h) })
						if sys.exactEvals == 0 {
							t.Errorf("%s: no sample was evaluated exactly", name)
						}
					}
				}
			}
		}
	}
}

// replayCounters reads the whole-run replay counters.
func replayCounters() (runs, resumed, cycles int64) {
	reg := telemetry.Default()
	return reg.Counter("core.replayed_runs_total").Value(),
		reg.Counter("core.replay_resumed_total").Value(),
		reg.Counter("core.replay_cycles_total").Value()
}

// TestRunMatchesStepwiseControlledReplay covers controlled runs that
// replay the machine trace their open-loop twin cached: every Result
// field and the sensor trips must be == to the exact stepwise loop, and
// the replay counters must show that the run replayed — resuming the
// machine exactly at the first cycle the stepwise loop's control acted,
// or never when it never acts. The cases are classified by where that
// first action falls, and every class must occur: never, at cycle 0 and
// at cycle 1, mid-block at a delay of 2-6, on a block's last cycle, after
// half the run, under a 10 mV noisy sensor, with flush recovery, and in a
// run that retires mid-block after resuming, and under a Section 6
// asymmetric mechanism. A last case runs a never-acting controlled system
// on a cold cache: it steps, and leaves no trace behind.
func TestRunMatchesStepwiseControlledReplay(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	covered := map[string]bool{}
	check := func(name string, prog isa.Program, opts Options, setup func(*System)) {
		t.Helper()
		twinOpts := opts
		twinOpts.Spec.Control.Enabled = false
		twin, err := NewSystem(prog, twinOpts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := twin.Run(); err != nil {
			t.Fatalf("%s: twin: %v", name, err)
		}
		twin.Close()

		runs0, resumed0, cycles0 := replayCounters()
		blk, err := NewSystem(prog, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer blk.Close()
		ref, err := NewSystem(prog, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer ref.Close()
		if setup != nil {
			setup(blk)
			setup(ref)
		}
		got, err := blk.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The stepwise oracle, noting the first cycle its control acts.
		first, firstLow := int64(-1), false
		for ref.cycle < ref.spec.Budget.MaxCycles {
			st := ref.StepCycle()
			if first < 0 && ref.acted() {
				first, firstLow = int64(st.Cycle), ref.policy.LowEvents > 0
			}
			if st.Done {
				break
			}
		}
		want := ref.finish(ref.CPU.Stats(), ref.Power.TotalEnergy())
		b := int64(blk.blockLen())
		if d := resultDiff(got, want); d != "" {
			t.Errorf("%s (B=%d, first act %d): replay differs from the stepwise loop: %s", name, b, first, d)
		}
		if gt, wt := sensorTrips(blk), sensorTrips(ref); fmt.Sprint(gt) != fmt.Sprint(wt) {
			t.Errorf("%s: sensor trips %v vs %v", name, gt, wt)
		}

		runs, resumed, cycles := replayCounters()
		wantResumed, wantCycles := int64(0), int64(got.Cycles)
		if first >= 0 {
			wantResumed, wantCycles = 1, first+1
		}
		if runs-runs0 != 1 || resumed-resumed0 != wantResumed || cycles-cycles0 != wantCycles {
			t.Errorf("%s: replay counters grew by %d runs, %d resumed, %d cycles; want 1, %d, %d",
				name, runs-runs0, resumed-resumed0, cycles-cycles0, wantResumed, wantCycles)
		}

		switch {
		case first < 0:
			covered["never acts"] = true
			return
		case first <= 1:
			covered[fmt.Sprintf("acts at cycle %d", first)] = true
		}
		delay := int64(opts.Spec.Sensor.DelayCycles)
		if first%b != b-1 && delay >= 2 {
			covered["acts mid-block"] = true
		}
		if first%b == b-1 {
			covered["acts on a block's last cycle"] = true
		}
		if uint64(first) > got.Cycles/2 {
			covered["acts late"] = true
		}
		if opts.Spec.Sensor.NoiseMV == 10 {
			covered["noise 10 mV"] = true
		}
		if opts.Spec.Control.FlushRecovery && firstLow {
			covered["flush recovery"] = true
		}
		if got.Cycles < opts.Spec.Budget.MaxCycles && int64(got.Cycles)%b != 0 {
			covered["retires mid-block after resuming"] = true
		}
		if _, _, ok := actuator.Pair(opts.Spec.Actuator.Mechanism); ok {
			covered["asymmetric mechanism"] = true
		}
	}

	prog := alternator(2000)
	for _, pct := range []float64{1, 2, 2.5} {
		for delay := 0; delay <= 6; delay++ {
			for _, noise := range []float64{0, 10} {
				k := knobs{
					ImpedancePct: pct, MaxCycles: 12_007, WarmupCycles: 2_000,
					Control: true, Mechanism: actuator.FU.Name, Delay: delay, NoiseMV: noise, Seed: 7,
				}
				check(fmt.Sprintf("pct=%g delay=%d noise=%g", pct, delay, noise), prog, k.options(), nil)
				if pct > 1 && delay <= 3 {
					k.FlushRecovery = true
					check(fmt.Sprintf("flush pct=%g delay=%d noise=%g", pct, delay, noise), prog, k.options(), nil)
				}
			}
		}
	}
	// A low threshold above every voltage trips on the first sample the
	// sensor reads: cycle D.
	for _, delay := range []int{0, 1, 4} {
		k := knobs{
			ImpedancePct: 2, MaxCycles: 12_007, WarmupCycles: 2_000,
			Control: true, Mechanism: actuator.FU.Name, Delay: delay,
		}
		check(fmt.Sprintf("pinned delay=%d", delay), prog, k.options(), func(s *System) { pinSensor(s, 1.5, 2) })
	}
	for delay := 0; delay < pdn.MaxBlock; delay++ {
		k := knobs{
			ImpedancePct: 2.5, MaxCycles: 1_000_000, WarmupCycles: 500,
			Control: true, Mechanism: actuator.FU.Name, Delay: delay, NoiseMV: 10,
		}
		check(fmt.Sprintf("retire delay=%d", delay), alternator(60), k.options(), nil)
	}
	for _, mech := range []string{"gate FU/DL1/IL1, fire FU", "gate FU, fire ideal"} {
		k := knobs{
			ImpedancePct: 2.5, MaxCycles: 12_007, WarmupCycles: 2_000,
			Control: true, Mechanism: mech, Delay: 2, Seed: 7,
		}
		check(mech, prog, k.options(), nil)
	}
	for _, c := range []string{
		"never acts", "acts at cycle 0", "acts at cycle 1", "acts mid-block", "acts on a block's last cycle",
		"acts late", "noise 10 mV", "flush recovery", "retires mid-block after resuming", "asymmetric mechanism",
	} {
		if !covered[c] {
			t.Errorf("no case %s; the replay comparison misses it", c)
		}
	}

	// A cold cache: the run steps, and caches nothing.
	quiet := knobs{
		ImpedancePct: 1, MaxCycles: 12_007, WarmupCycles: 2_000,
		Control: true, Mechanism: actuator.FU.Name, Delay: 2, NoiseMV: 10, Seed: 7,
	}
	ResetTraceCache()
	runs0, _, _ := replayCounters()
	res, sys := compareRunStepwise(t, "cold", prog, quiet.options(), nil)
	if runs, _, _ := replayCounters(); sys.replayed || runs != runs0 {
		t.Error("cold: a run with no cached trace replayed")
	}
	if res.LowEvents+res.HighEvents != 0 {
		t.Fatal("cold: control acted; pick a quieter configuration")
	}
	if st := TraceCacheStats(); st.Entries != 0 {
		t.Errorf("cold: a controlled run left %d trace entries", st.Entries)
	}
}

// TestRunMatchesStepwiseTraceCap runs a program that retires early on a
// budget at the trace cap and one cycle past it, open loop and controlled
// (never acting). At the cap the open-loop run caches its trace and the
// controlled one replays it; past the cap neither replays nor leaves a
// trace — both step, with the same results.
func TestRunMatchesStepwiseTraceCap(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	prog := alternator(300)
	for _, budget := range []uint64{maxTraceCycles, maxTraceCycles + 1} {
		capped := budget <= maxTraceCycles
		k := knobs{ImpedancePct: 1, MaxCycles: budget, WarmupCycles: 2_000, Mechanism: actuator.FU.Name, Delay: 2}
		open, sys := compareRunStepwise(t, fmt.Sprintf("open budget=%d", budget), prog, k.options(), nil)
		if open.Cycles >= budget {
			t.Fatalf("budget %d: program did not retire early", budget)
		}
		if sys.replayed != capped {
			t.Errorf("budget %d: open loop replayed = %v, want %v", budget, sys.replayed, capped)
		}
		k.Control = true
		res, sys := compareRunStepwise(t, fmt.Sprintf("controlled budget=%d", budget), prog, k.options(), nil)
		if res.LowEvents+res.HighEvents != 0 {
			t.Fatalf("budget %d: control acted; pick a quieter configuration", budget)
		}
		if sys.replayed != capped {
			t.Errorf("budget %d: controlled run replayed = %v, want %v", budget, sys.replayed, capped)
		}
		want := 0
		if capped {
			want = 1
		}
		if got := TraceCacheStats().Entries; got != want {
			t.Errorf("budget %d: trace cache holds %d entries, want %d", budget, got, want)
		}
		ResetTraceCache()
	}
}
