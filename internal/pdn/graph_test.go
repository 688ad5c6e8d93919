package pdn

import (
	"math"
	"testing"
)

func graphCurrent(i int) float64 {
	return 10 + 50*math.Abs(math.Sin(float64(i)/7))
}

// TestSingleRailGraphBitIdenticalStep: the 1-node graph's streaming path
// must produce the exact bits of a bare Simulator.
func TestSingleRailGraphBitIdenticalStep(t *testing.T) {
	n := mustCalibrated(t, 2)
	g, err := NewGraph([]Rail{{Name: "chip", Net: n}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gs := g.NewSimulator()
	ref := n.NewSimulator()
	cur := make([]float64, 1)
	volt := make([]float64, 1)
	for i := 0; i < 500; i++ {
		cur[0] = graphCurrent(i)
		gs.Step(cur, volt)
		if want := ref.Step(cur[0]); volt[0] != want {
			t.Fatalf("cycle %d: graph %v != network %v", i, volt[0], want)
		}
	}
	gs.Release()
	ref.Release()
}

// TestTwoRailZeroCouplingIndependent: with no coupling — nil matrix or an
// explicit all-zero matrix — a 2-rail graph is exactly two independent
// networks, on both the step and block paths.
func TestTwoRailZeroCouplingIndependent(t *testing.T) {
	a, err := Calibrate(Params{IFloor: 10}, 10, 60, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Calibrate(Params{IFloor: 5, ResonantHz: 80e6}, 5, 30, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	rails := []Rail{{Name: "core", Net: a}, {Name: "mem", Net: b}}
	for _, matrix := range [][][]float64{nil, {{0, 0}, {0, 0}}} {
		g, err := NewGraph(rails, matrix)
		if err != nil {
			t.Fatal(err)
		}
		if g.CouplingInto(0) != nil {
			t.Fatal("zero matrix must not mark the graph coupled")
		}
		gs := g.NewSimulator()
		ra := a.NewSimulator()
		rb := b.NewSimulator()
		cur := make([]float64, 2)
		volts := make([]float64, 2)
		traceA := make([]float64, 400)
		traceB := make([]float64, 400)
		both := make([]float64, 800) // cycle-major (a, b) pairs
		for i := 0; i < 400; i++ {
			cur[0] = graphCurrent(i)
			cur[1] = 5 + 20*math.Abs(math.Cos(float64(i)/11))
			traceA[i], traceB[i] = cur[0], cur[1]
			both[2*i], both[2*i+1] = cur[0], cur[1]
			gs.Step(cur, volts)
			if wa, wb := ra.Step(cur[0]), rb.Step(cur[1]); volts[0] != wa || volts[1] != wb {
				t.Fatalf("cycle %d: graph (%v,%v) != independent (%v,%v)", i, volts[0], volts[1], wa, wb)
			}
		}
		gs.Release()
		ra.Release()
		rb.Release()
		gs = g.NewSimulator()
		block := make([]float64, len(both))
		for i := 0; i < len(both); i += 2 * MaxBlock {
			j := min(i+2*MaxBlock, len(both))
			gs.StepBlock(both[i:j], block[i:j])
		}
		gs.Release()
		wa, wb := a.VoltageTrace(traceA), b.VoltageTrace(traceB)
		for i := range wa {
			if block[2*i] != wa[i] || block[2*i+1] != wb[i] {
				t.Fatalf("block cycle %d: graph (%v,%v) != independent (%v,%v)", i, block[2*i], block[2*i+1], wa[i], wb[i])
			}
		}
	}
}

// TestSymmetricCoupledStepAnalytic pins the coupled response against the
// closed-form linsys step response: two identical rails with symmetric
// coupling k, both stepping dI above the floor, each see an effective
// deviation (1+k)*dI, so V(t) = Vnom - (1+k)*dI*Step(t). The sampled
// kernel's prefix sum reproduces Step exactly (see linsys validate tests),
// so the tolerance here only covers float rounding in the coupling math.
func TestSymmetricCoupledStepAnalytic(t *testing.T) {
	p := Params{PeakZ: 2e-3, IFloor: 10}.WithDefaults()
	a, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	const k = 0.3
	const dI = 25.0
	g, err := NewGraph(
		[]Rail{{Name: "a", Net: a}, {Name: "b", Net: b}},
		[][]float64{{0, k}, {k, 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	gs := g.NewSimulator()
	defer gs.Release()
	sys := a.System()
	dt := 1 / p.ClockHz
	cur := []float64{p.IFloor + dI, p.IFloor + dI}
	volts := make([]float64, 2)
	for n := 0; n < 400; n++ {
		gs.Step(cur, volts)
		want := p.VNominal - (1+k)*dI*sys.Step(float64(n+1)*dt)
		for rail := 0; rail < 2; rail++ {
			if math.Abs(volts[rail]-want) > 1e-9 {
				t.Fatalf("cycle %d rail %d: V=%.12g, analytic %.12g", n, rail, volts[rail], want)
			}
		}
	}
}

// TestCoupledQuiescence: with every rail at its floor the injected
// transients vanish and all rails hold nominal.
func TestCoupledQuiescence(t *testing.T) {
	a := mustCalibrated(t, 2)
	b := mustCalibrated(t, 2)
	g, err := NewGraph(
		[]Rail{{Name: "a", Net: a}, {Name: "b", Net: b}},
		[][]float64{{0, 0.5}, {0.5, 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	gs := g.NewSimulator()
	defer gs.Release()
	cur := []float64{10, 10}
	volts := make([]float64, 2)
	for i := 0; i < 200; i++ {
		gs.Step(cur, volts)
		if math.Abs(volts[0]-1) > 1e-12 || math.Abs(volts[1]-1) > 1e-12 {
			t.Fatalf("cycle %d: quiescent V=(%g,%g), want 1.0", i, volts[0], volts[1])
		}
	}
}

func TestNewGraphValidation(t *testing.T) {
	n := mustCalibrated(t, 2)
	cases := []struct {
		name     string
		rails    []Rail
		coupling [][]float64
	}{
		{name: "no rails"},
		{name: "unnamed rail", rails: []Rail{{Net: n}}},
		{name: "duplicate name", rails: []Rail{{Name: "a", Net: n}, {Name: "a", Net: n}}},
		{name: "nil network", rails: []Rail{{Name: "a"}}},
		{name: "ragged matrix", rails: []Rail{{Name: "a", Net: n}}, coupling: [][]float64{{0, 0}}},
		{name: "self coupling", rails: []Rail{{Name: "a", Net: n}}, coupling: [][]float64{{0.1}}},
		{
			name:     "coefficient out of range",
			rails:    []Rail{{Name: "a", Net: n}, {Name: "b", Net: n}},
			coupling: [][]float64{{0, 1.0}, {0, 0}},
		},
		{
			name:     "negative coefficient",
			rails:    []Rail{{Name: "a", Net: n}, {Name: "b", Net: n}},
			coupling: [][]float64{{0, -0.1}, {0, 0}},
		},
	}
	for _, tc := range cases {
		if _, err := NewGraph(tc.rails, tc.coupling); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

// BenchmarkGraphStep covers the coupling inner loop under the CI -benchmem
// allocation gate: a coupled 3-rail step must stay allocation-free just
// like the single-rail Step.
func BenchmarkGraphStep(b *testing.B) {
	n1 := mustCalibratedB(b, 2)
	n2 := mustCalibratedB(b, 2)
	n3 := mustCalibratedB(b, 2)
	g, err := NewGraph(
		[]Rail{{Name: "a", Net: n1}, {Name: "b", Net: n2}, {Name: "c", Net: n3}},
		[][]float64{{0, 0.2, 0.1}, {0.2, 0, 0}, {0.1, 0, 0}},
	)
	if err != nil {
		b.Fatal(err)
	}
	gs := g.NewSimulator()
	defer gs.Release()
	cur := []float64{40, 20, 30}
	volts := make([]float64, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gs.Step(cur, volts)
	}
}

func mustCalibratedB(b *testing.B, pct float64) *Network {
	b.Helper()
	n, err := Calibrate(Params{IFloor: 10}, 10, 60, pct)
	if err != nil {
		b.Fatalf("Calibrate: %v", err)
	}
	return n
}
