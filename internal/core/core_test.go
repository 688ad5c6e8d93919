package core

import (
	"math"
	"testing"

	"didt/internal/actuator"
	"didt/internal/isa"
	"didt/internal/sim"
	"didt/internal/spec"
	"didt/internal/telemetry"
)

// knobs is the flat option shape these tests vary; options maps it onto a
// spec-backed Options value.
type knobs struct {
	ImpedancePct  float64
	MaxCycles     uint64
	WarmupCycles  uint64
	Control       bool
	Mechanism     string
	Delay         int
	NoiseMV       float64
	Seed          int64
	EnvelopeIMin  float64
	EnvelopeIMax  float64
	FlushRecovery bool
}

func (k knobs) options() Options {
	var s spec.RunSpec
	s.PDN.ImpedancePct = k.ImpedancePct
	s.PDN.EnvelopeIMin = k.EnvelopeIMin
	s.PDN.EnvelopeIMax = k.EnvelopeIMax
	s.Control.Enabled = k.Control
	s.Control.FlushRecovery = k.FlushRecovery
	s.Actuator.Mechanism = k.Mechanism
	s.Sensor.DelayCycles = k.Delay
	s.Sensor.NoiseMV = k.NoiseMV
	s.Budget.MaxCycles = k.MaxCycles
	s.Budget.WarmupCycles = k.WarmupCycles
	if k.Seed != 0 {
		s.Seed = spec.NewSeed(k.Seed)
	}
	return Options{Spec: s}
}

// alternator builds a current-swinging loop: a divide-stall phase feeding a
// dependent burst, a miniature stressmark for fast tests.
func alternator(iters int) isa.Program {
	b := isa.NewBuilder()
	b.LdI(4, 1<<16)
	b.LdI(9, int64(iters))
	b.FLdI(2, 1.0000001)
	b.FLdI(1, 1.5)
	b.FSt(1, 4, 0)
	b.Label("loop")
	b.FLd(1, 4, 0)
	b.FDiv(3, 1, 2)
	b.FDiv(3, 3, 2)
	b.FDiv(3, 3, 2)
	b.FSt(3, 4, 8)
	b.Ld(7, 4, 8)
	// Interleaved wide burst, everything dependent on r7/f3.
	for i := 0; i < 45; i++ {
		b.Add(uint8(10+i%16), 7, uint8(10+(i+5)%16))
		b.Xor(uint8(10+(i+1)%16), 7, uint8(10+(i+9)%16))
		if i < 40 {
			b.St(7, 4, int64(64+8*i))
		}
		if i < 32 {
			b.FAdd(uint8(10+i%8), 3, uint8(10+(i+3)%8))
		}
		if i%2 == 0 {
			b.FMul(uint8(18+i%4), 3, 2)
		}
	}
	b.FSt(3, 4, 0)
	b.AddI(9, 9, -1)
	b.BneZ(9, "loop")
	b.Halt()
	return b.MustBuild()
}

func TestSystemRunsAndReports(t *testing.T) {
	sys, err := NewSystem(alternator(300), knobs{MaxCycles: 100000}.options())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Instructions == 0 {
		t.Error("no instructions retired")
	}
	if res.Energy <= 0 || res.AvgPower <= 0 {
		t.Errorf("energy accounting: E=%g P=%g", res.Energy, res.AvgPower)
	}
	if res.MinV >= res.MaxV {
		t.Errorf("voltage range degenerate: [%g, %g]", res.MinV, res.MaxV)
	}
	if res.Hist.Total() == 0 {
		t.Error("voltage histogram empty")
	}
	if res.IMin <= 0 || res.IMax <= res.IMin {
		t.Errorf("bad envelope: [%g, %g]", res.IMin, res.IMax)
	}
}

func TestEnvelopeMeasurement(t *testing.T) {
	sys, err := NewSystem(alternator(50), knobs{MaxCycles: 50000}.options())
	if err != nil {
		t.Fatal(err)
	}
	iMin, iMax := sys.Envelope()
	// A ~60W-class machine: idle near 11A, sustained max 40-60A.
	if iMin < 5 || iMin > 20 {
		t.Errorf("iMin = %g out of expected range", iMin)
	}
	if iMax < 35 || iMax > 65 {
		t.Errorf("iMax = %g out of expected range", iMax)
	}
}

func TestEnvelopeOverride(t *testing.T) {
	sys, err := NewSystem(alternator(50), knobs{
		MaxCycles: 1000, EnvelopeIMin: 12, EnvelopeIMax: 48,
	}.options())
	if err != nil {
		t.Fatal(err)
	}
	iMin, iMax := sys.Envelope()
	if iMin != 12 || iMax != 48 {
		t.Errorf("override ignored: [%g, %g]", iMin, iMax)
	}
}

func TestRecordTraces(t *testing.T) {
	sys, err := NewSystem(alternator(100), func() Options {
		o := knobs{MaxCycles: 30000}.options()
		o.RecordTraces = true
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(res.CurrentTrace)) != res.Cycles || uint64(len(res.VoltageTrace)) != res.Cycles {
		t.Errorf("trace lengths %d/%d vs cycles %d", len(res.CurrentTrace), len(res.VoltageTrace), res.Cycles)
	}
}

func TestHigherImpedanceWidensSwings(t *testing.T) {
	dev := func(pct float64) float64 {
		sys, err := NewSystem(alternator(800), knobs{ImpedancePct: pct, MaxCycles: 100000, WarmupCycles: 20000}.options())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return math.Max(res.VNominal-res.MinV, res.MaxV-res.VNominal)
	}
	if d1, d3 := dev(1), dev(3); d3 <= d1 {
		t.Errorf("300%% dev %.1fmV should exceed 100%% dev %.1fmV", d3*1e3, d1*1e3)
	}
}

func TestControlEliminatesEmergencies(t *testing.T) {
	// The headline result: at an impedance where the uncontrolled machine
	// has emergencies, the controller removes them (ideal actuator, small
	// delay), at modest performance cost.
	base, err := NewSystem(alternator(1500), knobs{ImpedancePct: 3, MaxCycles: 250000, WarmupCycles: 20000}.options())
	if err != nil {
		t.Fatal(err)
	}
	resBase, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resBase.Emergencies == 0 {
		t.Skip("workload does not produce emergencies at 300% on this configuration")
	}

	ctl, err := NewSystem(alternator(1500), knobs{
		ImpedancePct: 3, MaxCycles: 400000, WarmupCycles: 20000,
		Control: true, Mechanism: actuator.Ideal.Name, Delay: 2,
	}.options())
	if err != nil {
		t.Fatal(err)
	}
	resCtl, err := ctl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !resCtl.Thresholds.Stable {
		t.Fatal("solver found no stable thresholds")
	}
	if resCtl.Emergencies != 0 {
		t.Errorf("controller left %d emergencies (minV=%.4f maxV=%.4f, thresholds %+v)",
			resCtl.Emergencies, resCtl.MinV, resCtl.MaxV, resCtl.Thresholds)
	}
	if resCtl.LowEvents == 0 {
		t.Error("controller never actuated — suspicious for a swinging workload")
	}
	slowdown := float64(resCtl.Cycles)/float64(resBase.Cycles) - 1
	if slowdown > 0.5 {
		t.Errorf("slowdown %.1f%% unreasonably large", slowdown*100)
	}
}

func TestControlPreservesArchitecturalResults(t *testing.T) {
	run := func(control bool) int64 {
		sys, err := NewSystem(alternator(200), knobs{
			ImpedancePct: 3, MaxCycles: 200000,
			Control: control, Delay: 1, Mechanism: actuator.FUDL1.Name,
		}.options())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		if !sys.CPU.Done() {
			t.Fatal("did not finish")
		}
		return sys.CPU.Arch().R[7]
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("control changed architectural state: %d vs %d", a, b)
	}
}

func TestSensorDelayDegradesStressmarkPerformance(t *testing.T) {
	cycles := func(delay int) uint64 {
		sys, err := NewSystem(alternator(800), knobs{
			ImpedancePct: 3, MaxCycles: 500000, Control: true, Delay: delay,
		}.options())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if c0, c5 := cycles(0), cycles(5); c5 < c0 {
		t.Errorf("delay 5 (%d cycles) should not beat delay 0 (%d)", c5, c0)
	}
}

func TestNoiseGuardBandNarrowsWindow(t *testing.T) {
	th := func(noise float64) float64 {
		sys, err := NewSystem(alternator(50), knobs{
			MaxCycles: 1000, Control: true, Delay: 1, NoiseMV: noise,
		}.options())
		if err != nil {
			t.Fatal(err)
		}
		tt := sys.Thresholds()
		if !tt.Stable {
			t.Fatalf("unstable at noise %.0fmV", noise)
		}
		return tt.SafeWindow
	}
	if w0, w15 := th(0), th(15); w15 >= w0 {
		t.Errorf("15mV noise window %.1fmV should be narrower than clean %.1fmV", w15*1e3, w0*1e3)
	}
}

func TestStepCycleReportsLevels(t *testing.T) {
	sys, err := NewSystem(alternator(200), knobs{
		ImpedancePct: 3, MaxCycles: 100000, Control: true, Delay: 1,
	}.options())
	if err != nil {
		t.Fatal(err)
	}
	sawGate := false
	for i := 0; i < 100000; i++ {
		st := sys.StepCycle()
		if st.Gating.FUs {
			sawGate = true
		}
		if st.Done {
			break
		}
	}
	if !sawGate {
		t.Error("no gating observed on a swinging workload at 300% impedance")
	}
}

// TestDeterministicRuns: two identical seeded runs, each started with
// every registered cache empty, agree on every Result field.
func TestDeterministicRuns(t *testing.T) {
	run := func() *Result {
		sim.ResetCaches()
		sys, err := NewSystem(alternator(300), knobs{
			ImpedancePct: 2, MaxCycles: 100000, Control: true, Delay: 2, NoiseMV: 10, Seed: 42,
		}.options())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if d := resultDiff(a, b); d != "" {
		t.Errorf("identical seeded runs diverged: %s", d)
	}
}

func TestFlushRecoveryStillProtects(t *testing.T) {
	// Section 6's alternative recovery: flushing on each gating episode
	// must preserve protection and architectural results, at some extra
	// performance cost relative to protect-and-resume.
	run := func(flush bool) (*Result, int64) {
		sys, err := NewSystem(alternator(800), knobs{
			ImpedancePct: 3, MaxCycles: 500000, WarmupCycles: 20000,
			Control: true, Delay: 2, FlushRecovery: flush,
		}.options())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !sys.CPU.Done() {
			t.Fatal("did not finish")
		}
		return res, sys.CPU.Arch().R[7]
	}
	resume, archA := run(false)
	flush, archB := run(true)
	if archA != archB {
		t.Errorf("recovery style changed architectural state: %d vs %d", archA, archB)
	}
	if flush.Emergencies > resume.Emergencies {
		t.Errorf("flush recovery lost protection: %d vs %d emergencies",
			flush.Emergencies, resume.Emergencies)
	}
	if flush.Cycles < resume.Cycles {
		t.Errorf("flush recovery should not be faster: %d vs %d cycles",
			flush.Cycles, resume.Cycles)
	}
}

func TestTelemetryEventsRecorded(t *testing.T) {
	tracer := telemetry.NewTracer(1 << 14)
	sys, err := NewSystem(alternator(400), func() Options {
		o := knobs{ImpedancePct: 3, MaxCycles: 200000, Control: true, Delay: 2}.options()
		o.Telemetry = tracer
		o.TelemetryName = "alt"
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	streams := tracer.Streams()
	if len(streams) != 1 || streams[0].Name() != "alt" {
		t.Fatalf("streams = %v", streams)
	}
	kinds := map[telemetry.Kind]int{}
	for _, e := range streams[0].Events() {
		kinds[e.Kind]++
	}
	if kinds[telemetry.KindVoltage] == 0 || kinds[telemetry.KindCurrent] == 0 {
		t.Fatalf("missing per-cycle samples: %v", kinds)
	}
	if kinds[telemetry.KindSensorLevel] == 0 {
		t.Fatalf("no sensor-level transitions recorded (run had %d gating episodes): %v",
			res.LowEvents, kinds)
	}
	if res.LowEvents > 0 && kinds[telemetry.KindGate] == 0 {
		t.Fatalf("run gated %d times but no gate events: %v", res.LowEvents, kinds)
	}
	if res.Emergencies > 0 && kinds[telemetry.KindEmergency] == 0 {
		t.Fatalf("run had %d emergencies but no emergency events: %v", res.Emergencies, kinds)
	}
	// Streams record at most one sample pair per cycle.
	if got := streams[0].Total(); got > 8*res.Cycles {
		t.Fatalf("suspicious event volume %d for %d cycles", got, res.Cycles)
	}
}

func TestTelemetryDisabledAndNil(t *testing.T) {
	run := func(tracer *telemetry.Tracer) *Result {
		sys, err := NewSystem(alternator(50), func() Options {
			o := knobs{MaxCycles: 50000}.options()
			o.Telemetry = tracer
			return o
		}())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil) // nil tracer: must not panic anywhere

	off := telemetry.NewTracer(0)
	off.SetEnabled(false)
	res := run(off)
	for _, s := range off.Streams() {
		if s.Total() != 0 {
			t.Fatalf("disabled tracer recorded %d events on %q", s.Total(), s.Name())
		}
	}
	if res.Cycles != base.Cycles || res.Stats.Instructions != base.Stats.Instructions {
		t.Fatalf("telemetry changed simulation: %d/%d cycles, %d/%d instructions",
			res.Cycles, base.Cycles, res.Stats.Instructions, base.Stats.Instructions)
	}
}

func TestRunPublishesMetrics(t *testing.T) {
	reg := telemetry.Default()
	before := reg.Snapshot().Counters
	sys, err := NewSystem(alternator(50), knobs{MaxCycles: 50000, Control: true, Delay: 2}.options())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot().Counters
	if after["core.runs_total"] != before["core.runs_total"]+1 {
		t.Fatalf("runs_total %d -> %d", before["core.runs_total"], after["core.runs_total"])
	}
	if got := after["core.cycles_total"] - before["core.cycles_total"]; got != int64(res.Cycles) {
		t.Fatalf("cycles_total grew by %d, run took %d cycles", got, res.Cycles)
	}
	if after["sensor.samples_total"] <= before["sensor.samples_total"] {
		t.Fatal("sensor samples not published")
	}
	if after["actuator.low_responses_total"]+after["actuator.high_responses_total"]+
		after["actuator.normal_responses_total"] <=
		before["actuator.low_responses_total"]+before["actuator.high_responses_total"]+
			before["actuator.normal_responses_total"] {
		t.Fatal("actuator responses not published")
	}
}

// TestActuatorResponseCounts pins the actuator.*_responses_total deltas of
// controlled runs: every controlled cycle counts once, by the level its
// control half sensed. The values were measured when a counting wrapper
// around the actuator tallied them.
func TestActuatorResponseCounts(t *testing.T) {
	reg := telemetry.Default()
	names := []string{"actuator.low_responses_total", "actuator.high_responses_total", "actuator.normal_responses_total"}
	for _, c := range []struct {
		mech string
		want [3]int64
	}{
		{actuator.FU.Name, [3]int64{1448, 1639, 11914}},
		{"gate FU/DL1/IL1, fire FU", [3]int64{1193, 0, 13808}},
	} {
		k := knobs{
			ImpedancePct: 3, MaxCycles: 15_001, WarmupCycles: 2_000,
			Control: true, Mechanism: c.mech, Delay: 2, Seed: 7,
		}
		before := reg.Snapshot().Counters
		sys, err := NewSystem(alternator(2000), k.options())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		sys.Close()
		after := reg.Snapshot().Counters
		var got [3]int64
		for i, n := range names {
			got[i] = after[n] - before[n]
		}
		if got != c.want {
			t.Errorf("%s: low/high/normal responses %v, want %v", c.mech, got, c.want)
		}
	}
}
