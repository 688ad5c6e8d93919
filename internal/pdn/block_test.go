package pdn

import (
	"math/rand"
	"testing"
)

// TestStepBlockMatchesStep drives one simulator block by block and a
// reference cycle by cycle with the same currents, for every block length,
// through several ring wraps, and requires every voltage to be == — the
// per-chain accumulation order is the whole bit-identity argument.
func TestStepBlockMatchesStep(t *testing.T) {
	n := mustCalibrated(t, 2)
	for b := 1; b <= MaxBlock; b++ {
		rng := rand.New(rand.NewSource(int64(20 + b)))
		blk, ref := n.NewSimulator(), n.NewSimulator()
		in, out := make([]float64, b), make([]float64, b)
		for c := 0; c < 3*ringLen(n.KernelLen())+7; c += b {
			for j := range in {
				in[j] = 10 + 50*rng.Float64()
			}
			blk.StepBlock(in, out)
			for j, cur := range in {
				if want := ref.Step(cur); out[j] != want {
					t.Fatalf("B=%d cycle %d: block %v != step %v", b, c+j, out[j], want)
				}
			}
		}
		if blk.Cycles() != ref.Cycles() {
			t.Fatalf("B=%d: cycles %d vs %d", b, blk.Cycles(), ref.Cycles())
		}
		blk.Release()
		ref.Release()
	}
}

// TestStepBlockMixedLengths varies the block length from call to call (the
// closed loop shortens its last block at a budget or retirement) and keeps
// the peek and step paths consistent with the reference.
func TestStepBlockMixedLengths(t *testing.T) {
	n := mustCalibrated(t, 2)
	rng := rand.New(rand.NewSource(31))
	blk, ref := n.NewSimulator(), n.NewSimulator()
	var in, out [MaxBlock]float64
	for c := 0; c < 2*ringLen(n.KernelLen()); {
		b := 1 + rng.Intn(MaxBlock)
		for j := 0; j < b; j++ {
			in[j] = 10 + 50*rng.Float64()
		}
		blk.StepBlock(in[:b], out[:b])
		for j := 0; j < b; j++ {
			if want := ref.Step(in[j]); out[j] != want {
				t.Fatalf("cycle %d (B=%d): block %v != step %v", c+j, b, out[j], want)
			}
		}
		c += b
		if probe := 10 + 50*rng.Float64(); blk.Peek(probe) != ref.Peek(probe) {
			t.Fatalf("cycle %d: Peek diverged", c)
		}
	}
}

func TestStepBlockRejectsLongBlock(t *testing.T) {
	n := mustCalibrated(t, 2)
	sim := n.NewSimulator()
	defer func() {
		if recover() == nil {
			t.Fatal("StepBlock accepted a block longer than MaxBlock")
		}
	}()
	in := make([]float64, MaxBlock+1)
	sim.StepBlock(in, in)
}

// TestGraphStepBlockMatchesStep runs a coupled 3-rail graph in blocks of
// every length against a cycle-by-cycle reference.
func TestGraphStepBlockMatchesStep(t *testing.T) {
	g := coupledTestGraph(t)
	const rails = 3
	for b := 1; b <= MaxBlock; b++ {
		rng := rand.New(rand.NewSource(int64(40 + b)))
		blk, ref := g.NewSimulator(), g.NewSimulator()
		in, out := make([]float64, b*rails), make([]float64, b*rails)
		want := make([]float64, rails)
		for c := 0; c < 2*ringLen(g.Rail(0).Net.KernelLen()); c += b {
			for i := range in {
				in[i] = 10 + 50*rng.Float64()
			}
			blk.StepBlock(in, out)
			for j := 0; j < b; j++ {
				ref.Step(in[j*rails:j*rails+rails], want)
				for i := 0; i < rails; i++ {
					if out[j*rails+i] != want[i] {
						t.Fatalf("B=%d cycle %d rail %d: block %v != step %v", b, c+j, i, out[j*rails+i], want[i])
					}
				}
			}
		}
		blk.Release()
		ref.Release()
	}
}

func TestStepBlockZeroAlloc(t *testing.T) {
	n := mustCalibrated(t, 2)
	sim := n.NewSimulator()
	in, out := make([]float64, MaxBlock), make([]float64, MaxBlock)
	if a := testing.AllocsPerRun(100, func() { sim.StepBlock(in, out) }); a != 0 {
		t.Errorf("Simulator.StepBlock allocates %v per run; want 0", a)
	}
	gs := coupledTestGraph(t).NewSimulator()
	gin, gout := make([]float64, 3*MaxBlock), make([]float64, 3*MaxBlock)
	if a := testing.AllocsPerRun(100, func() { gs.StepBlock(gin, gout) }); a != 0 {
		t.Errorf("GraphSimulator.StepBlock allocates %v per run; want 0", a)
	}
}

func coupledTestGraph(tb testing.TB) *Graph {
	tb.Helper()
	nets := make([]*Network, 3)
	for i, pct := range []float64{2, 3, 2.5} {
		n, err := Calibrate(Params{IFloor: 10}, 10, 60, pct)
		if err != nil {
			tb.Fatal(err)
		}
		nets[i] = n
	}
	g, err := NewGraph(
		[]Rail{{Name: "a", Net: nets[0]}, {Name: "b", Net: nets[1]}, {Name: "c", Net: nets[2]}},
		[][]float64{{0, 0.2, 0.1}, {0.2, 0, 0}, {0.1, 0, 0}},
	)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// BenchmarkStepBlock is the block kernel at full width; divide by MaxBlock
// for the per-cycle cost to set against BenchmarkStep. It is in the ci.sh
// allocation gate.
func BenchmarkStepBlock(b *testing.B) {
	n := benchNet(b)
	sim := n.NewSimulator()
	in, out := make([]float64, MaxBlock), make([]float64, MaxBlock)
	for i := range in {
		in[i] = 40
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.StepBlock(in, out)
	}
}

// BenchmarkGraphStepBlock is the coupled 3-rail graph stepped MaxBlock
// cycles per call; set it against BenchmarkGraphStep. In the ci.sh
// allocation gate.
func BenchmarkGraphStepBlock(b *testing.B) {
	gs := coupledTestGraph(b).NewSimulator()
	defer gs.Release()
	in, out := make([]float64, 3*MaxBlock), make([]float64, 3*MaxBlock)
	for i := range in {
		in[i] = 20 + float64(i%3)*10
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gs.StepBlock(in, out)
	}
}
