package pdn

import (
	"math"
	"math/rand"
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

func TestParamsValidate(t *testing.T) {
	for _, p := range []Params{{}, {MaxKernelLen: MaxKernelTaps}, {ClockHz: 1e13, TruncRelTol: 1e-300},
		{ClockHz: DefaultClockHz, ResonantHz: DefaultClockHz / MaxResonantPeriod}, {ClockHz: DefaultClockHz, ResonantHz: DefaultClockHz / 2}} {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v: %v", p, err)
		}
	}
	for _, p := range []Params{{MaxKernelLen: MaxKernelTaps + 1}, {MaxKernelLen: -1}, {ClockHz: -1}, {TruncRelTol: -1e-9},
		{ClockHz: DefaultClockHz, ResonantHz: 1}, {ClockHz: 1e13, ResonantHz: DefaultResonantHz}, {ClockHz: DefaultClockHz, ResonantHz: 1e10}} {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v: want error", p)
		}
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

// TestStepMatchesNaiveReference pins the shared dotRing walk against an
// inline naive convolution that tests for wrap at every tap, over more
// than two trips round the ring, so the walk starts at every ring position
// including slot 0 (where it wraps after the first tap). Step and Exact
// both take the walk; both must equal the naive sum.
func TestStepMatchesNaiveReference(t *testing.T) {
	n := mustCalibrated(t, 2)
	k := n.kernel
	sim := n.NewSimulator()
	naive := func() float64 {
		// Kernel tap i multiplies the sample written i cycles ago; the
		// newest sits just before pos.
		drop := 0.0
		for i := 0; i < len(k); i++ {
			idx := sim.pos - 1 - i
			if idx < 0 {
				idx += ringLen(len(k))
			}
			drop += k[i] * sim.hist[idx]
		}
		return n.params.VNominal - drop
	}
	rng := rand.New(rand.NewSource(11))
	for c := 0; c < 2*ringLen(len(k))+10; c++ {
		first := sim.pos
		got := sim.Step(10 + 50*rng.Float64())
		want := naive()
		if got != want {
			t.Fatalf("cycle %d (first slot %d): Step=%g naive=%g", c, first, got, want)
		}
		if ex := sim.Exact(0); ex != want {
			t.Fatalf("cycle %d (first slot %d): Exact=%g naive=%g", c, first, ex, want)
		}
	}
}

// TestConvolveVoltagesMatchesStreaming: random RLC parameters, kernel
// truncation lengths, and trace lengths around one and two kernel lengths
// must give exactly (==) the voltages of stepping a Simulator cycle by
// cycle, also when dst aliases current.
func TestConvolveVoltagesMatchesStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 8; trial++ {
		p := Params{
			ClockHz:      2e9 + 2e9*rng.Float64(),
			ResonantHz:   30e6 + 70e6*rng.Float64(),
			DCResistance: (0.3 + 0.5*rng.Float64()) * 1e-3,
			IFloor:       5 + 10*rng.Float64(),
			TruncRelTol:  []float64{1e-6, 1e-4, 1e-3}[trial%3],
			MaxKernelLen: []int{4096, 512, 128}[trial%3],
		}
		net, err := Calibrate(p, p.IFloor, p.IFloor+40+20*rng.Float64(), 1+3*rng.Float64())
		if err != nil {
			t.Fatalf("trial %d: Calibrate: %v", trial, err)
		}
		m := net.KernelLen()
		lengths := []int{1, m - 1, m, m + 1, 2*m - 1, 2 * m, 2*m + 1, 4*m + 37}
		for li, length := range lengths {
			if length < 1 {
				continue
			}
			cur := make([]float64, length)
			for i := range cur {
				cur[i] = p.IFloor + 50*rng.Float64()
			}
			ref := net.NewSimulator()
			want := make([]float64, length)
			for i, c := range cur {
				want[i] = ref.Step(c)
			}
			ref.Release()
			got := make([]float64, length)
			aliased := li == len(lengths)-1
			if aliased {
				got = cur
			}
			net.ConvolveVoltages(got, cur)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d m=%d len=%d aliased=%v cycle %d: ConvolveVoltages=%g Step=%g",
						trial, m, length, aliased, i, got[i], want[i])
				}
			}
		}
	}
}

// TestConvolveVoltagesMatchesLinsys pins the streaming convolution against
// the analytic step response: for a current step of height dI applied at
// cycle 0, the voltage drop at cycle c is dI * StepResponse((c+1)*dt)
// exactly (kernel tap k is the step-response increment over [k*dt,
// (k+1)*dt], so the taps telescope). Comparison stops at the kernel
// length, where truncation starts — within it, the only error is
// summation round-off.
func TestConvolveVoltagesMatchesLinsys(t *testing.T) {
	n := mustCalibrated(t, 2)
	p := n.Params()
	dI := 35.0
	length := n.KernelLen() + 200
	cur := make([]float64, length)
	for i := range cur {
		cur[i] = p.IFloor + dI
	}
	got := make([]float64, length)
	n.ConvolveVoltages(got, cur)
	dt := 1 / p.ClockHz
	worst := 0.0
	for c := 0; c < n.KernelLen(); c++ {
		want := p.VNominal - dI*n.System().Step(float64(c+1)*dt)
		if d := math.Abs(got[c] - want); d > worst {
			worst = d
		}
	}
	if worst > 1e-9 {
		t.Errorf("max |convolution-analytic| = %g over first %d cycles", worst, n.KernelLen())
	}
}

// TestBatchSimulatorBitIdentical drives every lane of a BatchSimulator
// with its own current trace and requires each lane's voltage sequence to
// be bit-identical (==, not approximately) to a solo Simulator run.
func TestBatchSimulatorBitIdentical(t *testing.T) {
	n := mustCalibrated(t, 2)
	rng := rand.New(rand.NewSource(13))
	for _, w := range []int{1, 3, 4, 8} {
		b := n.NewBatchSimulator(w)
		solo := make([]*Simulator, w)
		for l := range solo {
			solo[l] = n.NewSimulator()
		}
		currents := make([]float64, w)
		volts := make([]float64, w)
		for c := 0; c < 2*n.KernelLen()+17; c++ {
			for l := 0; l < w; l++ {
				currents[l] = 10 + 50*rng.Float64()
			}
			b.Step(currents, volts)
			for l := 0; l < w; l++ {
				if want := solo[l].Step(currents[l]); volts[l] != want {
					t.Fatalf("w=%d cycle %d lane %d: batch %v solo %v", w, c, l, volts[l], want)
				}
			}
		}
		for l := range solo {
			solo[l].Release()
		}
	}
}

func TestHotPathsZeroAlloc(t *testing.T) {
	n := mustCalibrated(t, 2)
	sim := n.NewSimulator()
	if a := testing.AllocsPerRun(100, func() { sim.Step(40); sim.Exact(0) }); a != 0 {
		t.Errorf("Simulator.Step/Exact allocate %v per run; want 0", a)
	}
	b := n.NewBatchSimulator(8)
	currents := make([]float64, 8)
	volts := make([]float64, 8)
	for i := range currents {
		currents[i] = 40
	}
	if a := testing.AllocsPerRun(100, func() { b.Step(currents, volts) }); a != 0 {
		t.Errorf("BatchSimulator.Step allocates %v per run; want 0", a)
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

func benchNet(b *testing.B) *Network {
	b.Helper()
	n, err := Calibrate(Params{IFloor: 10}, 10, 60, 2)
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkStep is the ci.sh allocation gate for the streaming convolver.
func BenchmarkStep(b *testing.B) {
	n := benchNet(b)
	sim := n.NewSimulator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step(40)
	}
}

// BenchmarkBatchStep reports the cost of stepping eight lanes; divide by 8
// when comparing against BenchmarkStep.
func BenchmarkBatchStep(b *testing.B) {
	n := benchNet(b)
	bs := n.NewBatchSimulator(8)
	currents := make([]float64, 8)
	volts := make([]float64, 8)
	for i := range currents {
		currents[i] = 40
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.Step(currents, volts)
	}
}
