package control

import (
	"math"
	"testing"

	"didt/internal/pdn"
)

// reference envelope: 10-70A workload, strong actuator, regulator reference
// at the midpoint.
func refNet(t *testing.T, pct float64) *pdn.Network {
	t.Helper()
	n, err := pdn.Calibrate(pdn.Params{IFloor: 40}, 10, 70, pct)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func refEnv() Envelope {
	return Envelope{IMin: 10, IMax: 70, Floor: 8, Ceil: 45, Settle: 2}
}

func TestSolveValidation(t *testing.T) {
	s := NewSolver(refNet(t, 2))
	if _, err := s.Solve(Envelope{IMin: 70, IMax: 10}, 0); err == nil {
		t.Error("want error for inverted envelope")
	}
	if _, err := s.Solve(refEnv(), -1); err == nil {
		t.Error("want error for negative delay")
	}
	bad := refEnv()
	bad.Settle = -1
	if _, err := s.Solve(bad, 0); err == nil {
		t.Error("want error for negative settle")
	}
}

func TestThresholdsStableAcrossDelays(t *testing.T) {
	s := NewSolver(refNet(t, 2))
	for d := 0; d <= 6; d++ {
		th, err := s.Solve(refEnv(), d)
		if err != nil {
			t.Fatal(err)
		}
		if !th.Stable {
			t.Fatalf("delay %d: unstable with a strong actuator", d)
		}
		if th.Low >= th.High {
			t.Fatalf("delay %d: degenerate thresholds %+v", d, th)
		}
		if th.Low < 0.95 || th.High > 1.05 {
			t.Fatalf("delay %d: thresholds outside band %+v", d, th)
		}
	}
}

// TestTable3LowThresholdRisesWithDelay reproduces the paper's Table 3
// trend: slower sensing forces a more conservative (higher) low threshold.
func TestTable3LowThresholdRisesWithDelay(t *testing.T) {
	s := NewSolver(refNet(t, 2))
	prev := 0.0
	for d := 0; d <= 6; d++ {
		th, err := s.Solve(refEnv(), d)
		if err != nil || !th.Stable {
			t.Fatalf("delay %d: %v %+v", d, err, th)
		}
		if th.Low < prev {
			t.Errorf("delay %d: low threshold %.4f dropped below delay %d's %.4f", d, th.Low, d-1, prev)
		}
		prev = th.Low
	}
}

func TestSafeWindowShrinksOverall(t *testing.T) {
	s := NewSolver(refNet(t, 2))
	th0, _ := s.Solve(refEnv(), 0)
	th6, _ := s.Solve(refEnv(), 6)
	if th6.SafeWindow >= th0.SafeWindow {
		t.Errorf("window should shrink: delay0 %.1fmV delay6 %.1fmV",
			th0.SafeWindow*1e3, th6.SafeWindow*1e3)
	}
}

func TestWeakActuatorEventuallyUnstable(t *testing.T) {
	// An actuator with almost no downward authority (floor just below the
	// regulator reference) cannot arrest worst-case dips once sensing is
	// slow.
	s := NewSolver(refNet(t, 3))
	env := Envelope{IMin: 10, IMax: 70, Floor: 39.9, Ceil: 41, Settle: 2}
	unstableSeen := false
	for d := 0; d <= 8; d++ {
		th, err := s.Solve(env, d)
		if err != nil {
			t.Fatal(err)
		}
		if !th.Stable {
			unstableSeen = true
			break
		}
	}
	if !unstableSeen {
		t.Error("weak actuator never went unstable even at long delays and 300% impedance")
	}
}

func TestHigherImpedanceTightensThresholds(t *testing.T) {
	s200 := NewSolver(refNet(t, 2))
	s400 := NewSolver(refNet(t, 4))
	th200, _ := s200.Solve(refEnv(), 2)
	th400, _ := s400.Solve(refEnv(), 2)
	if !th200.Stable {
		t.Fatal("200% should be stable")
	}
	if th400.Stable && th400.Low <= th200.Low {
		t.Errorf("400%% impedance should demand a more conservative low threshold: %.4f vs %.4f",
			th400.Low, th200.Low)
	}
}

func TestSolveCacheReturnsSameValue(t *testing.T) {
	s := NewSolver(refNet(t, 2))
	a, _ := s.Solve(refEnv(), 3)
	b, _ := s.Solve(refEnv(), 3)
	if a != b {
		t.Error("cache returned different thresholds")
	}
}

// TestGuaranteeHolds verifies the solver's core promise: running the
// worst-case suite with the solved thresholds keeps voltage inside the
// band (with numerical slack).
func TestGuaranteeHolds(t *testing.T) {
	net := refNet(t, 2)
	s := NewSolver(net)
	for d := 0; d <= 6; d += 2 {
		th, _ := s.Solve(refEnv(), d)
		if !th.Stable {
			t.Fatalf("delay %d unstable", d)
		}
		minV, maxV := s.excursions(th.Low, th.High, refEnv(), d)
		if minV < net.VMin()-2e-4 {
			t.Errorf("delay %d: guaranteed minV %.4f below band %.4f", d, minV, net.VMin())
		}
		if maxV > net.VMax()+2e-4 {
			t.Errorf("delay %d: guaranteed maxV %.4f above band %.4f", d, maxV, net.VMax())
		}
	}
}

// TestUncontrolledWorstCaseViolates sanity-checks the premise: without any
// control, the worst case at 200% impedance leaves the band.
func TestUncontrolledWorstCaseViolates(t *testing.T) {
	net := refNet(t, 2)
	if dev := net.WorstCaseDeviation(10, 70); dev <= 0.05 {
		t.Fatalf("uncontrolled worst case %.1fmV should exceed 50mV", dev*1e3)
	}
}

func TestPolicyCountsDistinctEvents(t *testing.T) {
	var p Policy
	p.Update(true, false)
	p.Update(true, false) // same episode
	p.Update(false, false)
	p.Update(true, false) // second episode
	p.Update(false, true)
	if p.LowEvents != 2 || p.HighEvents != 1 {
		t.Errorf("events: low=%d high=%d", p.LowEvents, p.HighEvents)
	}
}

func TestThresholdsSymmetricAroundNominal(t *testing.T) {
	// With a midpoint reference the dynamics are symmetric, so Low and
	// High should sit roughly symmetric around nominal at delay 0.
	s := NewSolver(refNet(t, 2))
	th, _ := s.Solve(refEnv(), 0)
	lowGap := 1.0 - th.Low
	highGap := th.High - 1.0
	if math.Abs(lowGap-highGap) > 0.025 {
		t.Errorf("asymmetric thresholds at delay 0: -%.1fmV / +%.1fmV", lowGap*1e3, highGap*1e3)
	}
}

// TestProbeViolationsMatchExcursions pins the lockstep probe's contract:
// for any threshold pair, its violation booleans equal the comparisons the
// sequential excursions path would make, including at thresholds very near
// the band edges where one extra 1e-16 of drift would flip a bisection.
func TestProbeViolationsMatchExcursions(t *testing.T) {
	s := NewSolver(refNet(t, 2))
	env := refEnv()
	vNom := 1.0
	vMin, vMax := s.net.VMin(), s.net.VMax()
	for _, delay := range []int{0, 2, 5} {
		pr := s.newProbe(env, delay)
		for _, lo := range []float64{vMin, vMin + 0.01, 0.5 * (vMin + vNom), vNom - 1e-4} {
			for _, hi := range []float64{vNom + 1e-4, 0.5 * (vNom + vMax), vMax} {
				minV, maxV := s.excursions(lo, hi, env, delay)
				wantLow := minV < vMin-solveEps
				wantHigh := maxV > vMax+solveEps
				// Needed verdicts must match the sequential path exactly.
				if low, _ := pr.violations(lo, hi, true, false); low != wantLow {
					t.Errorf("delay %d lo %.6f hi %.6f: lowBad=%t want %t", delay, lo, hi, low, wantLow)
				}
				if _, high := pr.violations(lo, hi, false, true); high != wantHigh {
					t.Errorf("delay %d lo %.6f hi %.6f: highBad=%t want %t", delay, lo, hi, high, wantHigh)
				}
				// A dual-verdict probe that runs to the horizon (at most one
				// verdict trips) resolves both; when it exits early both are
				// true, which also matches.
				low, high := pr.violations(lo, hi, true, true)
				if low != wantLow || high != wantHigh {
					t.Errorf("delay %d lo %.6f hi %.6f: (%t,%t) want (%t,%t)", delay, lo, hi, low, high, wantLow, wantHigh)
				}
			}
		}
	}
}

// TestWeakActuatorMatchesSequentialSolve pins that the probe rewrite did
// not move any stability frontier: a weak actuator must go unstable at the
// same delay as before (Table 3's FU-only finding).
func TestWeakActuatorMatchesSequentialSolve(t *testing.T) {
	s := NewSolver(refNet(t, 2))
	weak := refEnv()
	weak.Floor = 35 // barely below the midpoint: little downward authority
	firstUnstable := -1
	for d := 0; d <= 8; d++ {
		th, err := s.Solve(weak, d)
		if err != nil {
			t.Fatal(err)
		}
		if !th.Stable {
			firstUnstable = d
			break
		}
	}
	if firstUnstable < 0 {
		t.Skip("weak envelope stayed stable over the probed delays")
	}
	// Re-derive stability at the frontier from the sequential path.
	for d := firstUnstable - 1; d <= firstUnstable; d++ {
		if d < 0 {
			continue
		}
		th, err := s.Solve(weak, d)
		if err != nil {
			t.Fatal(err)
		}
		vMin, vMax := s.net.VMin(), s.net.VMax()
		if th.Stable {
			minV, maxV := s.excursions(th.Low, th.High, weak, d)
			if minV < vMin-solveEps || maxV > vMax+solveEps {
				t.Errorf("delay %d: solved thresholds violate the band on the sequential path", d)
			}
		}
	}
}

// BenchmarkProbeViolations is one full-horizon evaluation of the solver's
// probe: four scenarios through the PDN's modal recursion with controller
// replicas. In the ci.sh allocation gate — the probe's cycle loop must
// not allocate.
func BenchmarkProbeViolations(b *testing.B) {
	n, err := pdn.Calibrate(pdn.Params{IFloor: 40}, 10, 70, 2)
	if err != nil {
		b.Fatal(err)
	}
	pr := NewSolver(n).newProbe(refEnv(), 2)
	defer pr.release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.violations(0.97, 1.03, true, true)
	}
}
