package control

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"didt/internal/pdn"
)

var updateThresholds = flag.Bool("update", false, "rewrite testdata/thresholds.golden")

// goldenImpedances and goldenEnvelopes span the solver's regimes: a
// network that meets spec, cheap ones that need control, strong and weak
// actuators, instant and slow settling. With sensor delays 0-6 the grid
// has 175 points.
var goldenImpedances = []float64{1, 1.5, 2, 3, 4}

var goldenEnvelopes = []Envelope{
	{IMin: 10, IMax: 70, Floor: 8, Ceil: 45, Settle: 2},
	{IMin: 10, IMax: 70, Floor: 39.9, Ceil: 41, Settle: 2},
	{IMin: 20, IMax: 60, Floor: 15, Ceil: 65, Settle: 0},
	{IMin: 5, IMax: 80, Floor: 4, Ceil: 60, Settle: 1},
	{IMin: 10, IMax: 70, Floor: 8, Ceil: 45, Settle: 4},
}

// solveGrid cold-solves every grid point and renders one line per point
// with the bits of Low, High and SafeWindow.
func solveGrid(t *testing.T) []byte {
	t.Helper()
	ResetSolveCache()
	var buf bytes.Buffer
	for _, pct := range goldenImpedances {
		for ei, env := range goldenEnvelopes {
			net, err := pdn.Calibrate(pdn.Params{IFloor: 0.5 * (env.IMin + env.IMax)}, env.IMin, env.IMax, pct)
			if err != nil {
				t.Fatal(err)
			}
			s := NewSolver(net)
			for d := 0; d <= 6; d++ {
				th, err := s.Solve(env, d)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&buf, "pct=%g env=%d delay=%d low=%016x high=%016x stable=%t window=%016x\n",
					pct, ei, d, math.Float64bits(th.Low), math.Float64bits(th.High), th.Stable,
					math.Float64bits(th.SafeWindow))
			}
		}
	}
	return buf.Bytes()
}

// TestThresholdsGolden pins every solved threshold bit for bit against
// the committed grid. Regenerate with `go test ./internal/control -run
// TestThresholdsGolden -update` only after a deliberate change to the
// solver's semantics.
func TestThresholdsGolden(t *testing.T) {
	got := solveGrid(t)
	path := filepath.Join("testdata", "thresholds.golden")
	if *updateThresholds {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gl) != len(wl) {
		t.Fatalf("grid has %d lines, golden %d", len(gl), len(wl))
	}
	for i := range gl {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("solve differs from golden:\n got %s\nwant %s", gl[i], wl[i])
		}
	}
}

// exactTrace is runScenario with its voltages kept: the exact simulator
// (Step, dotRing order) driving one scenario's controller replica.
func (s *Solver) exactTrace(sc scenario, lo, hi float64, env Envelope, delay int) []float64 {
	period := s.net.ResonantPeriodCycles()
	cycles := s.net.KernelLen() + 14*period
	sim := s.net.NewSimulator()
	defer sim.Release()
	ctl := newScenarioCtl(s.net.Params().VNominal, env, delay)
	out := make([]float64, cycles)
	for c := range out {
		out[c] = sim.Step(ctl.decide(lo, hi, scenarioDemand(sc, c, cycles, period, env), env))
		ctl.observe(out[c])
	}
	return out
}

// firstCrossing returns the first voltage of tr beyond level in direction
// dir (-1 below, +1 above). Every earlier sample is on the other side, so
// a threshold placed exactly there leaves the trajectory before it
// unchanged.
func firstCrossing(t *testing.T, tr []float64, level float64, dir int) float64 {
	t.Helper()
	for _, v := range tr {
		if (dir < 0 && v < level) || (dir > 0 && v > level) {
			return v
		}
	}
	t.Fatalf("trace never crosses %g", level)
	return 0
}

// TestProbeEdgePlacement puts lo (then hi) exactly on a voltage the exact
// runner produces, and one ulp either side of it: the sample that decides
// whether the controller fires there is within eps of the threshold, so
// the probe must take its exact value. Verdicts must equal the exact
// runner's, and the probe must have evaluated samples exactly.
func TestProbeEdgePlacement(t *testing.T) {
	net := refNet(t, 2)
	s := NewSolver(net)
	env := refEnv()
	vNom := net.Params().VNominal
	never := [2]float64{0, 2} // thresholds the supply never reaches
	for _, delay := range []int{0, 3} {
		pr := s.newProbe(env, delay)
		tr := s.exactTrace(scResonant, never[0], never[1], env, delay)
		cases := []struct {
			name string
			edge float64
		}{
			{"lo", firstCrossing(t, tr, vNom-0.02, -1)},
			{"hi", firstCrossing(t, tr, vNom+0.02, +1)},
		}
		for _, tc := range cases {
			for _, th := range []float64{tc.edge, math.Nextafter(tc.edge, 0), math.Nextafter(tc.edge, 2)} {
				lo, hi := th, never[1]
				if tc.name == "hi" {
					lo, hi = never[0], th
				}
				minV, maxV := s.excursions(lo, hi, env, delay)
				wantLow, wantHigh := minV < net.VMin()-solveEps, maxV > net.VMax()+solveEps
				before := pr.exactEvals
				low, high := pr.violations(lo, hi, true, true)
				if low != wantLow || high != wantHigh {
					t.Errorf("delay %d %s=%v: probe (%t,%t), exact runner (%t,%t)", delay, tc.name, th, low, high, wantLow, wantHigh)
				}
				if pr.exactEvals == before {
					t.Errorf("delay %d %s=%v: a sample on the threshold was not evaluated exactly", delay, tc.name, th)
				}
			}
		}
		pr.release()
	}
}
