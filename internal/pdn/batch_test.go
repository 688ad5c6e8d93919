package pdn

import (
	"math"
	"math/rand"
	"testing"
)

// TestPeekMatchesNaiveReference pins the shared dotRing walk against an
// inline naive convolution that tests for wrap at every tap, at several
// ring positions including pos == 0 (where Peek's history walk starts on
// the wrapped half). This is the regression test for deduplicating Peek's
// hand-copied ring walk with Step.
func TestPeekMatchesNaiveReference(t *testing.T) {
	n := mustCalibrated(t, 2)
	k := n.kernel
	sim := n.NewSimulator()
	naive := func(current float64) float64 {
		// Kernel tap 0 multiplies the candidate sample; tap i the sample
		// written i cycles ago.
		drop := k[0] * (current - n.params.IFloor)
		for i := 1; i < len(k); i++ {
			idx := sim.pos - i
			if idx < 0 {
				idx += ringLen(len(k))
			}
			drop += k[i] * sim.hist[idx]
		}
		return n.params.VNominal - drop
	}
	rng := rand.New(rand.NewSource(11))
	for c := 0; c < 2*len(k)+10; c++ {
		probe := 10 + 50*rng.Float64()
		want := naive(probe)
		if got := sim.Peek(probe); math.Abs(got-want) > 1e-12 {
			t.Fatalf("cycle %d (pos %d): Peek=%g naive=%g", c, sim.pos, probe, want)
		}
		if sim.pos == 0 {
			// Exercise the all-wrapped walk explicitly.
			if got := sim.Peek(probe); math.Abs(got-want) > 1e-12 {
				t.Fatalf("pos=0: Peek=%g naive=%g", got, want)
			}
		}
		sim.Step(10 + 50*rng.Float64())
	}
}

// TestConvolveVoltagesMatchesStreaming is the FFT-vs-streaming property
// sweep: random RLC parameters, kernel truncation lengths, and trace
// lengths straddling the overlap-save block boundary (shorter than one
// block, exactly one block, one off either side, many blocks) must agree
// with the streaming Simulator to <= 1e-9 V.
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
		step := net.fftk.BlockStep()
		m := net.KernelLen()
		for _, length := range []int{1, m - 1, m, m + 1, step - 1, step, step + 1, 2*step + 37} {
			if length < 1 {
				continue
			}
			cur := make([]float64, length)
			for i := range cur {
				cur[i] = p.IFloor + 50*rng.Float64()
			}
			got := make([]float64, length)
			net.ConvolveVoltages(got, cur)
			ref := net.NewSimulator()
			worst := 0.0
			for i, c := range cur {
				if d := math.Abs(got[i] - ref.Step(c)); d > worst {
					worst = d
				}
			}
			ref.Release()
			if worst > 1e-9 {
				t.Errorf("trial %d m=%d len=%d: max |FFT-streaming| = %g", trial, m, length, worst)
			}
		}
	}
}

// TestConvolveVoltagesMatchesLinsys pins the FFT path against the analytic
// step response: for a current step of height dI applied at cycle 0, the
// voltage drop at cycle c is dI * StepResponse((c+1)*dt) exactly (kernel
// tap k is the step-response increment over [k*dt, (k+1)*dt], so the taps
// telescope). Comparison stops at the kernel length, where truncation
// starts — within it, the only error is FFT round-off.
func TestConvolveVoltagesMatchesLinsys(t *testing.T) {
	n := mustCalibrated(t, 2)
	p := n.Params()
	dI := 35.0
	length := n.KernelLen() + 200 // > kernel, so the FFT path is taken
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
		t.Errorf("max |FFT-analytic| = %g over first %d cycles", worst, n.KernelLen())
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
		cycles := 2*n.KernelLen() + 17
		for c := 0; c < cycles; c++ {
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
		if b.Cycles() != cycles {
			t.Errorf("w=%d: Cycles()=%d want %d", w, b.Cycles(), cycles)
		}
		b.Reset()
		for l := range solo {
			solo[l].Release()
		}
		// After Reset, quiescent input must give nominal voltage.
		for l := 0; l < w; l++ {
			currents[l] = n.Params().IFloor
		}
		b.Step(currents, volts)
		for l := 0; l < w; l++ {
			if math.Abs(volts[l]-n.Params().VNominal) > 1e-12 {
				t.Errorf("after Reset lane %d: V=%g", l, volts[l])
			}
		}
	}
}

func TestHotPathsZeroAlloc(t *testing.T) {
	n := mustCalibrated(t, 2)
	sim := n.NewSimulator()
	if a := testing.AllocsPerRun(100, func() { sim.Step(40); sim.Peek(55) }); a != 0 {
		t.Errorf("Simulator.Step/Peek allocate %v per run; want 0", a)
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
	// Steady state of the FFT path (pool warmed by the first call).
	cur := make([]float64, 3*n.KernelLen())
	dst := make([]float64, len(cur))
	for i := range cur {
		cur[i] = 40
	}
	n.ConvolveVoltages(dst, cur)
	if a := testing.AllocsPerRun(10, func() { n.ConvolveVoltages(dst, cur) }); a > 1 {
		t.Errorf("warm ConvolveVoltages allocates %v per run; want <= 1 (pool interface box)", a)
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

// BenchmarkBatchStep reports per-lane-cycle cost of the SoA kernel; divide
// by 8 lanes when comparing against BenchmarkStep.
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

// BenchmarkVoltageTraceFFT measures the open-loop block convolver on a
// quick-sweep-sized trace (90k cycles); compare per cycle against
// BenchmarkStep for the FFT speedup.
func BenchmarkVoltageTraceFFT(b *testing.B) {
	n := benchNet(b)
	cur := make([]float64, 90000)
	for i := range cur {
		cur[i] = 10 + float64(i%50)
	}
	dst := make([]float64, len(cur))
	n.ConvolveVoltages(dst, cur) // warm the scratch pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.ConvolveVoltages(dst, cur)
	}
}

// BenchmarkBatchStep4 reports the cost of the solver-width specialization;
// divide by 4 lanes when comparing against BenchmarkStep.
func BenchmarkBatchStep4(b *testing.B) {
	n := benchNet(b)
	bs := n.NewBatchSimulator(4)
	currents := make([]float64, 4)
	volts := make([]float64, 4)
	for i := range currents {
		currents[i] = 40
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.Step(currents, volts)
	}
}
