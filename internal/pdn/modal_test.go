package pdn

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"didt/internal/sim"
)

// checkModal steps one simulator through StepModal in blocks of the given
// lengths and a reference through Step, and requires for every sample that
// the estimate lies within the rigorous bound eps/modalSafety of the exact
// voltage, that Exact and ExactBlock are == to Step, and that the two
// simulators stay in the same state. It returns the largest |f - v| seen.
func checkModal(t *testing.T, n *Network, currents []float64, blocks func(int) int) float64 {
	t.Helper()
	sim, ref := n.NewSimulator(), n.NewSimulator()
	defer sim.Release()
	defer ref.Release()
	var out, exact [MaxBlock]float64
	worst := 0.0
	for c := 0; c < len(currents); {
		b := min(blocks(c), len(currents)-c)
		in := currents[c : c+b]
		eps := sim.StepModal(in, out[:b])
		if n.modal == nil && eps != 0 {
			t.Fatalf("cycle %d: eps %g from a network without a modal form", c, eps)
		}
		copy(exact[:b], out[:b])
		sim.ExactBlock(exact[:b])
		for j, cur := range in {
			v := ref.Step(cur)
			if d := math.Abs(out[j] - v); d > eps/modalSafety {
				t.Fatalf("cycle %d: |f-v| = %g exceeds the bound %g (f=%v v=%v)", c+j, d, eps/modalSafety, out[j], v)
			} else if d > worst {
				worst = d
			}
			if e := sim.Exact(j); e != v {
				t.Fatalf("cycle %d: Exact %v != Step %v", c+j, e, v)
			}
			if exact[j] != v {
				t.Fatalf("cycle %d: ExactBlock %v != Step %v", c+j, exact[j], v)
			}
		}
		c += b
	}
	if sim.Cycles() != ref.Cycles() {
		t.Fatalf("cycles %d vs %d", sim.Cycles(), ref.Cycles())
	}
	return worst
}

func randomCurrents(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 10 + 50*rng.Float64()
	}
	return out
}

// TestStepModalWithinBound covers the paper's networks at every block
// length through several re-anchoring windows, and checks the estimate is
// not merely bounded but close: the bound is loose by design, the fit is
// not.
func TestStepModalWithinBound(t *testing.T) {
	for _, pct := range []float64{1, 2, 4} {
		n := mustCalibrated(t, pct)
		if n.modal == nil {
			t.Fatalf("%g%% network declined the modal form", pct)
		}
		rng := rand.New(rand.NewSource(int64(pct * 10)))
		cur := randomCurrents(rng, 3*n.KernelLen()+11)
		for b := 1; b <= MaxBlock; b++ {
			if worst := checkModal(t, n, cur, func(int) int { return b }); worst > 1e-12 {
				t.Errorf("%g%% B=%d: max |f-v| %g V", pct, b, worst)
			}
		}
		mixed := rand.New(rand.NewSource(5))
		checkModal(t, n, cur, func(int) int { return 1 + mixed.Intn(MaxBlock) })
	}
}

// TestStepModalAfterExactSteps interleaves exact steps with modal ones:
// each switch back to StepModal must re-anchor from the ring.
func TestStepModalAfterExactSteps(t *testing.T) {
	n := mustCalibrated(t, 2)
	rng := rand.New(rand.NewSource(9))
	sim, ref := n.NewSimulator(), n.NewSimulator()
	defer sim.Release()
	defer ref.Release()
	var out [1]float64
	for c := 0; c < 2*n.KernelLen(); c++ {
		cur := 10 + 50*rng.Float64()
		want := ref.Step(cur)
		if c%7 < 3 {
			if got := sim.Step(cur); got != want {
				t.Fatalf("cycle %d: Step %v != %v", c, got, want)
			}
			continue
		}
		eps := sim.StepModal([]float64{cur}, out[:])
		if d := math.Abs(out[0] - want); d > eps/modalSafety {
			t.Fatalf("cycle %d: |f-v| %g over bound %g", c, d, eps/modalSafety)
		}
	}
}

// TestModalDeclined pins the rule that keeps a network exact: a one-tap
// kernel has no pole pair to fit, and a resonance far below the clock
// (a pole pair a hair off the real axis, so the fit is ill-conditioned)
// fails the residual test. StepModal then returns exact values with eps 0.
func TestModalDeclined(t *testing.T) {
	for _, p := range []Params{
		{IFloor: 10, PeakZ: 2e-3, MaxKernelLen: 1},
		{IFloor: 10, PeakZ: 2e-3, ResonantHz: 1e4},
	} {
		n, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		if n.modal != nil {
			t.Fatalf("%+v took the modal form", p)
		}
		rng := rand.New(rand.NewSource(3))
		checkModal(t, n, randomCurrents(rng, 50), func(int) int { return 3 })
	}
}

func TestStepModalZeroAlloc(t *testing.T) {
	n := mustCalibrated(t, 2)
	sim := n.NewSimulator()
	in, out := make([]float64, MaxBlock), make([]float64, MaxBlock)
	if a := testing.AllocsPerRun(100, func() { sim.StepModal(in, out); sim.ExactBlock(out) }); a != 0 {
		t.Errorf("Simulator.StepModal allocates %v per run; want 0", a)
	}
	gs := coupledTestGraph(t).NewSimulator()
	gin, gout, eps := make([]float64, 3*MaxBlock), make([]float64, 3*MaxBlock), make([]float64, 3)
	if a := testing.AllocsPerRun(100, func() { gs.StepModal(gin, gout, eps); gs.ExactRail(1, gout) }); a != 0 {
		t.Errorf("GraphSimulator.StepModal allocates %v per run; want 0", a)
	}
}

// TestGraphStepModalMatchesStepBlock runs the coupled graph through
// StepModal and StepBlock: every estimate within its rail's bound, and
// ExactRail == StepBlock on every rail.
func TestGraphStepModalMatchesStepBlock(t *testing.T) {
	g := coupledTestGraph(t)
	const rails = 3
	rng := rand.New(rand.NewSource(12))
	for b := 1; b <= MaxBlock; b++ {
		mod, ref := g.NewSimulator(), g.NewSimulator()
		in, f, v, eps := make([]float64, b*rails), make([]float64, b*rails), make([]float64, b*rails), make([]float64, rails)
		for c := 0; c < 2*g.Rail(0).Net.KernelLen(); c += b {
			for i := range in {
				in[i] = 10 + 50*rng.Float64()
			}
			mod.StepModal(in, f, eps)
			ref.StepBlock(in, v)
			for k := range f {
				if d := math.Abs(f[k] - v[k]); d > eps[k%rails]/modalSafety {
					t.Fatalf("B=%d cycle %d: |f-v| %g over bound %g", b, c, d, eps[k%rails]/modalSafety)
				}
			}
			for i := 0; i < rails; i++ {
				mod.ExactRail(i, f)
			}
			for k := range f {
				if f[k] != v[k] {
					t.Fatalf("B=%d cycle %d: ExactRail %v != StepBlock %v", b, c, f[k], v[k])
				}
			}
		}
		mod.Release()
		ref.Release()
	}
}

// FuzzModalMatchesExact draws a network and a current trace and requires
// that New does not panic (its kernel cache contains a panic in sampling
// as a *sim.PanicError), and that either the network declines the modal
// form, or every estimate lies
// within eps/modalSafety of the exact voltage (and Exact is == to Step).
// The committed corpus runs with the unit tests; `go test -fuzz
// FuzzModalMatchesExact ./internal/pdn` explores further.
func FuzzModalMatchesExact(f *testing.F) {
	f.Add(50e6, 0.5e-3, 2e-3, 1e-6, uint16(0), uint8(1), []byte{0, 255, 0, 255, 17, 200})
	f.Add(80e6, 1e-3, 1.0011e-3, 1e-4, uint16(300), uint8(4), []byte{9, 9, 9, 250, 3})
	f.Add(20e6, 0.2e-3, 8e-3, 1e-9, uint16(64), uint8(2), []byte{128})
	f.Add(400e6, 0.5e-3, 0.6e-3, 0.5, uint16(3), uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, resHz, dcr, peakZ, relTol float64, maxLen uint16, block uint8, trace []byte) {
		p := Params{
			ResonantHz:   resHz,
			DCResistance: dcr,
			PeakZ:        peakZ,
			TruncRelTol:  relTol,
			MaxKernelLen: int(maxLen % 4096),
			IFloor:       30,
		}
		if !(resHz >= 1e3 && resHz <= 1.5e9) || !(dcr >= 1e-5 && dcr <= 1e-1) ||
			!(peakZ > dcr && peakZ <= 1) || !(relTol > 0 && relTol < 1) {
			t.Skip()
		}
		n, err := New(p)
		if pe := (*sim.PanicError)(nil); errors.As(err, &pe) {
			t.Fatalf("New panicked: %v\n%s", pe.Value, pe.Stack)
		}
		if err != nil {
			t.Skip()
		}
		if len(trace) == 0 {
			trace = []byte{0}
		}
		// Replay the trace as a piecewise-constant current (0-60 A) long
		// enough to cross a few re-anchoring windows.
		cycles := min(3*n.KernelLen()+len(trace), 6000)
		cur := make([]float64, cycles)
		var word [2]byte
		for i := range cur {
			word[0] = trace[i%len(trace)]
			word[1] = trace[(i/len(trace))%len(trace)]
			cur[i] = 60 * float64(binary.LittleEndian.Uint16(word[:])) / 65535
		}
		b := 1 + int(block)%MaxBlock
		checkModal(t, n, cur, func(int) int { return b })
	})
}

// BenchmarkStepModal is the modal block step at full width; set it
// against BenchmarkStepBlock. In the ci.sh allocation gate.
func BenchmarkStepModal(b *testing.B) {
	n := benchNet(b)
	sim := n.NewSimulator()
	in, out := make([]float64, MaxBlock), make([]float64, MaxBlock)
	for i := range in {
		in[i] = 40 + float64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.StepModal(in, out)
	}
}
