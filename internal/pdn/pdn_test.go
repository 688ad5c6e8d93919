package pdn

import (
	"math"
	"testing"
	"testing/quick"
)

func mustCalibrated(t *testing.T, pct float64) *Network {
	t.Helper()
	n, err := Calibrate(Params{IFloor: 10}, 10, 60, pct)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	return n
}

func TestNewRequiresPeakZ(t *testing.T) {
	if _, err := New(Params{}); err == nil {
		t.Fatal("want error for missing PeakZ")
	}
}

func TestDefaultsApplied(t *testing.T) {
	n, err := New(Params{PeakZ: 2e-3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p := n.Params()
	if p.ClockHz != DefaultClockHz || p.VNominal != DefaultVNominal || p.Tolerance != DefaultTolerance {
		t.Errorf("defaults not applied: %+v", p)
	}
	if n.ResonantPeriodCycles() != 60 {
		t.Errorf("resonant period = %d cycles, want 60 (3GHz/50MHz)", n.ResonantPeriodCycles())
	}
}

func TestQuiescentVoltageIsNominal(t *testing.T) {
	n := mustCalibrated(t, 1)
	sim := n.NewSimulator()
	for i := 0; i < 200; i++ {
		if v := sim.Step(n.Params().IFloor); math.Abs(v-1.0) > 1e-12 {
			t.Fatalf("cycle %d: quiescent V=%g, want 1.0", i, v)
		}
	}
}

func TestCalibrationTargetImpedanceRule(t *testing.T) {
	// Z_target = Tolerance*VNominal/(iMax-iMin), the de facto rule of
	// Section 2.1.
	n := mustCalibrated(t, 1)
	want := DefaultTolerance * DefaultVNominal / 50.0
	if got := n.Params().PeakZ; math.Abs(got-want)/want > 1e-9 {
		t.Errorf("PeakZ = %.4gmΩ, want %.4gmΩ", got*1e3, want*1e3)
	}
	// Meeting spec means the resonant worst case stays inside the band.
	dev := n.WorstCaseDeviation(10, 60)
	allow := DefaultTolerance * DefaultVNominal
	if dev > allow {
		t.Errorf("worst-case deviation %.4gmV exceeds band %.4gmV at 100%%", dev*1e3, allow*1e3)
	}
	// While the 200%% network lets the worst case break through.
	if dev2 := mustCalibrated(t, 2).WorstCaseDeviation(10, 60); dev2 <= allow {
		t.Errorf("at 200%% the worst case should exceed the band: %.4gmV", dev2*1e3)
	}
}

func TestHigherImpedanceWorseDeviation(t *testing.T) {
	prev := 0.0
	for _, pct := range []float64{1, 2, 3, 4} {
		dev := mustCalibrated(t, pct).WorstCaseDeviation(10, 60)
		if dev <= prev {
			t.Errorf("deviation not increasing with impedance: %g after %g", dev, prev)
		}
		prev = dev
	}
}

// TestNarrowVsWideSpike reproduces the Figure 3/4 contrast: a 5-cycle spike
// must not cross the emergency threshold while a sufficiently wide spike at
// 200% impedance must.
func TestNarrowVsWideSpike(t *testing.T) {
	n := mustCalibrated(t, 2)
	minV := func(width int) float64 {
		cur := make([]float64, 400)
		for i := range cur {
			cur[i] = 10
		}
		for i := 9; i < 9+width; i++ {
			cur[i] = 60
		}
		low := math.Inf(1)
		for _, v := range n.VoltageTrace(cur) {
			low = math.Min(low, v)
		}
		return low
	}
	if v := minV(5); v < n.VMin() {
		t.Errorf("5-cycle spike dips to %.4f, should stay above %.4f", v, n.VMin())
	}
	if v5, v30 := minV(5), minV(30); v30 >= v5 {
		t.Errorf("wider spike should dip lower: 5-cycle %.4f vs 30-cycle %.4f", v5, v30)
	}
	if v := minV(30); v >= n.VMin() {
		t.Errorf("30-cycle spike at 200%% impedance dips to %.4f, want emergency (< %.4f)", v, n.VMin())
	}
}

// TestResonantBuildup reproduces Figure 6: the second resonant pulse causes
// a deeper dip than the first.
func TestResonantBuildup(t *testing.T) {
	n := mustCalibrated(t, 2)
	period := n.ResonantPeriodCycles()
	cur := make([]float64, 4*period)
	for i := range cur {
		cur[i] = 10
		if i%period < period/2 {
			cur[i] = 60
		}
	}
	v := n.VoltageTrace(cur)
	min1 := math.Inf(1)
	for _, x := range v[:period] {
		min1 = math.Min(min1, x)
	}
	min2 := math.Inf(1)
	for _, x := range v[period : 2*period] {
		min2 = math.Min(min2, x)
	}
	if min2 >= min1 {
		t.Errorf("no resonant buildup: first dip %.4f, second dip %.4f", min1, min2)
	}
}

func TestOffResonanceWeakerThanResonance(t *testing.T) {
	n := mustCalibrated(t, 2)
	dev := func(period int) float64 {
		sim := n.NewSimulator()
		worst := 0.0
		for c := 0; c < n.KernelLen()+20*period; c++ {
			cur := 10.0
			if c%period < period/2 {
				cur = 60.0
			}
			v := sim.Step(cur)
			worst = math.Max(worst, math.Abs(v-1.0))
		}
		return worst
	}
	res := n.ResonantPeriodCycles()
	if on, off := dev(res), dev(res/4); off >= on {
		t.Errorf("off-resonance drive (period %d) dev %.4g >= resonant %.4g", res/4, off, on)
	}
	if on, off := dev(res), dev(res*4); off >= on {
		t.Errorf("slow drive (period %d) dev %.4g >= resonant %.4g", res*4, off, on)
	}
}

// TestVoltageTraceMatchesSimulator: a whole trace, shorter than the
// kernel or several kernels long, is == to stepping it cycle by cycle.
func TestVoltageTraceMatchesSimulator(t *testing.T) {
	n := mustCalibrated(t, 2)
	for _, length := range []int{300, 4 * n.KernelLen()} {
		cur := make([]float64, length)
		for i := range cur {
			cur[i] = 10 + 50*math.Abs(math.Sin(float64(i)/7))
		}
		want := n.VoltageTrace(cur)
		sim := n.NewSimulator()
		for i, c := range cur {
			if got := sim.Step(c); got != want[i] {
				t.Fatalf("len %d cycle %d: Step=%g VoltageTrace=%g", length, i, got, want[i])
			}
		}
		sim.Release()
	}
}

func TestResetRestoresQuiescence(t *testing.T) {
	n := mustCalibrated(t, 2)
	sim := n.NewSimulator()
	for i := 0; i < 100; i++ {
		sim.Step(60)
	}
	sim.Reset()
	if v := sim.Step(n.Params().IFloor); math.Abs(v-1.0) > 1e-12 {
		t.Errorf("after Reset, V=%g, want 1.0", v)
	}
}

func TestCalibrateRejectsBadEnvelope(t *testing.T) {
	if _, err := Calibrate(Params{}, 60, 10, 1); err == nil {
		t.Error("want error for iMax <= iMin")
	}
	if _, err := Calibrate(Params{}, 10, 60, 0); err == nil {
		t.Error("want error for zero impedancePct")
	}
}

// Property: superposition. The PDN is linear, so the response to the sum of
// two current deviations equals the sum of responses.
func TestPropertyLinearity(t *testing.T) {
	n := mustCalibrated(t, 2)
	f := func(seedA, seedB [16]uint8) bool {
		la := make([]float64, 64)
		lb := make([]float64, 64)
		for i := range la {
			la[i] = 10 + float64(seedA[i%16])/8
			lb[i] = 10 + float64(seedB[i%16])/8
		}
		sum := make([]float64, 64)
		for i := range sum {
			// deviations add; subtract one IFloor so the combined trace's
			// deviation is the sum of the two deviations.
			sum[i] = la[i] + lb[i] - 10
		}
		va, vb, vs := n.VoltageTrace(la), n.VoltageTrace(lb), n.VoltageTrace(sum)
		for i := range vs {
			dropA := 1.0 - va[i]
			dropB := 1.0 - vb[i]
			dropS := 1.0 - vs[i]
			if math.Abs(dropS-(dropA+dropB)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: time invariance. Delaying the input delays the output.
func TestPropertyTimeInvariance(t *testing.T) {
	n := mustCalibrated(t, 2)
	f := func(seed [8]uint8, shift uint8) bool {
		d := int(shift%20) + 1
		base := make([]float64, 120)
		for i := range base {
			base[i] = 10
		}
		for i, s := range seed {
			base[10+i] = 10 + float64(s)/4
		}
		shifted := make([]float64, 120+d)
		for i := range shifted {
			shifted[i] = 10
		}
		copy(shifted[d:], base)
		va := n.VoltageTrace(base)
		vb := n.VoltageTrace(shifted)
		for i := 0; i < len(va); i++ {
			if math.Abs(va[i]-vb[i+d]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestKernelTruncationAblation(t *testing.T) {
	// A much looser truncation must still give nearly the same worst case:
	// validates the default tolerance is conservative.
	tight, err := Calibrate(Params{IFloor: 10}, 10, 60, 2)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := New(Params{PeakZ: tight.Params().PeakZ, IFloor: 10, TruncRelTol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	a := tight.WorstCaseDeviation(10, 60)
	b := loose.WorstCaseDeviation(10, 60)
	if math.Abs(a-b)/a > 0.02 {
		t.Errorf("truncation sensitivity too high: tight %.4g loose %.4g", a, b)
	}
	if loose.KernelLen() >= tight.KernelLen() {
		t.Errorf("loose truncation should shorten kernel: %d vs %d", loose.KernelLen(), tight.KernelLen())
	}
}
