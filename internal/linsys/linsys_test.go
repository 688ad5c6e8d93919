package linsys

import (
	"math"
	"testing"
	"testing/quick"
)

// mustFromPeak builds the paper-reference system used across tests:
// R = 0.5 mΩ, f0 = 50 MHz, Zpeak = 2 mΩ.
func mustFromPeak(t *testing.T) *SecondOrder {
	t.Helper()
	s, err := FromPeak(0.5e-3, 50e6, 2e-3)
	if err != nil {
		t.Fatalf("FromPeak: %v", err)
	}
	return s
}

func TestNewRejectsBadParams(t *testing.T) {
	cases := []struct{ r, l, c float64 }{
		{0, 1e-9, 1e-6},
		{1e-3, 0, 1e-6},
		{1e-3, 1e-9, 0},
		{-1e-3, 1e-9, 1e-6},
	}
	for _, c := range cases {
		if _, err := New(c.r, c.l, c.c); err == nil {
			t.Errorf("New(%g,%g,%g): want error", c.r, c.l, c.c)
		}
	}
}

func TestNewRejectsOverdamped(t *testing.T) {
	// Large R relative to sqrt(L/C) gives real poles.
	if _, err := New(1.0, 1e-12, 1e-3); err == nil {
		t.Fatal("want overdamped rejection")
	}
}

func TestFromPeakHitsRequestedPeak(t *testing.T) {
	for _, zp := range []float64{0.8e-3, 1e-3, 2e-3, 5e-3, 20e-3} {
		s, err := FromPeak(0.5e-3, 50e6, zp)
		if err != nil {
			t.Fatalf("FromPeak(zp=%g): %v", zp, err)
		}
		got := s.PeakImpedance()
		if math.Abs(got-zp)/zp > 1e-6 {
			t.Errorf("zp=%g: peak=%g, want within 1e-6 relative", zp, got)
		}
	}
}

func TestFromPeakRejectsPeakBelowR(t *testing.T) {
	if _, err := FromPeak(1e-3, 50e6, 0.5e-3); err == nil {
		t.Fatal("want error for Zpeak < R")
	}
}

func TestDCImpedanceEqualsR(t *testing.T) {
	s := mustFromPeak(t)
	if got := s.Impedance(0); math.Abs(got-s.R) > 1e-12 {
		t.Errorf("Z(0) = %g, want R = %g", got, s.R)
	}
}

func TestResonantFrequency(t *testing.T) {
	s := mustFromPeak(t)
	if f := s.ResonantFreq(); math.Abs(f-50e6)/50e6 > 1e-9 {
		t.Errorf("f0 = %g, want 50 MHz", f)
	}
	// Peak should occur near (not exactly at, but within ~20% of) f0.
	fp := s.PeakFrequency()
	if fp < 30e6 || fp > 70e6 {
		t.Errorf("peak frequency %g far from resonance", fp)
	}
}

func TestImpedanceUnimodalNearResonance(t *testing.T) {
	s := mustFromPeak(t)
	peak := s.PeakImpedance()
	for _, f := range []float64{1e3, 1e6, 10e6, 50e6, 100e6, 1e9, 10e9} {
		if z := s.Impedance(f); z > peak*(1+1e-9) {
			t.Errorf("Z(%g) = %g exceeds reported peak %g", f, z, peak)
		}
	}
}

func TestImpulseMatchesDerivativeOfStep(t *testing.T) {
	s := mustFromPeak(t)
	dt := 1e-12
	for _, tm := range []float64{1e-9, 5e-9, 20e-9, 60e-9} {
		num := (s.Step(tm+dt) - s.Step(tm-dt)) / (2 * dt)
		anal := s.Impulse(tm)
		scale := math.Max(math.Abs(anal), 1/s.C*1e-6)
		if math.Abs(num-anal)/scale > 1e-3 {
			t.Errorf("t=%g: dStep/dt=%g impulse=%g", tm, num, anal)
		}
	}
}

func TestStepSettlesToR(t *testing.T) {
	s := mustFromPeak(t)
	tSettle := -math.Log(1e-9) / s.Alpha() // transients decayed to 1e-9
	if got := s.Step(tSettle); math.Abs(got-s.R)/s.R > 1e-6 {
		t.Errorf("Step(inf) = %g, want R = %g", got, s.R)
	}
}

func TestStepOvershoots(t *testing.T) {
	// Underdamped systems must overshoot their final value.
	s := mustFromPeak(t)
	peak := 0.0
	for k := 0; k < 600; k++ {
		peak = max(peak, s.Step(float64(k)/3e9))
	}
	if peak <= s.R*1.05 {
		t.Errorf("step peak %g shows no overshoot above R=%g", peak, s.R)
	}
}

func TestImpulseAtNegativeTimeIsZero(t *testing.T) {
	s := mustFromPeak(t)
	if s.Impulse(-1e-9) != 0 {
		t.Error("h(t<0) must be 0 (causality)")
	}
	if s.Step(-1e-9) != 0 {
		t.Error("step(t<0) must be 0")
	}
}

func TestSampleImpulseTruncation(t *testing.T) {
	s := mustFromPeak(t)
	dt := 1 / 3e9
	k := s.SampleImpulse(dt, 1e-6, 0)
	if len(k) == 0 {
		t.Fatal("empty kernel")
	}
	// Envelope at the cut must be below tolerance.
	tEnd := float64(len(k)) * dt
	if math.Exp(-s.Alpha()*tEnd) > 1e-6 {
		t.Errorf("kernel of %d samples truncated too early", len(k))
	}
	// Cap must be respected.
	if capped := s.SampleImpulse(dt, 1e-12, 100); len(capped) > 100 {
		t.Errorf("maxLen ignored: len=%d", len(capped))
	}
}

func TestSampledKernelSumApproximatesR(t *testing.T) {
	// sum h[k]*dt ~= integral h = Z(0) = R.
	s := mustFromPeak(t)
	k := s.SampleImpulse(1/3e9, 1e-9, 0)
	sum := 0.0
	for _, v := range k {
		sum += v
	}
	if math.Abs(sum-s.R)/s.R > 0.02 {
		t.Errorf("kernel sum %g, want ~R=%g", sum, s.R)
	}
}

func TestQAndDampingRelationship(t *testing.T) {
	s := mustFromPeak(t)
	// zeta = 1/(2Q) for this parameterization.
	if got, want := s.DampingRatio(), 1/(2*s.Q()); math.Abs(got-want) > 1e-9 {
		t.Errorf("zeta=%g want 1/(2Q)=%g", got, want)
	}
	if s.DampingRatio() >= 1 {
		t.Error("system must be underdamped")
	}
}

func TestHigherPeakMeansHigherQ(t *testing.T) {
	prev := 0.0
	for _, zp := range []float64{1e-3, 2e-3, 4e-3, 8e-3} {
		s, err := FromPeak(0.5e-3, 50e6, zp)
		if err != nil {
			t.Fatalf("FromPeak: %v", err)
		}
		if q := s.Q(); q <= prev {
			t.Errorf("Q not increasing with Zpeak: %g after %g", q, prev)
		} else {
			prev = q
		}
	}
}

func TestPropertyImpedancePositive(t *testing.T) {
	s := mustFromPeak(t)
	f := func(exp float64) bool {
		// frequencies spanning 1 Hz .. 100 GHz
		freq := math.Pow(10, math.Mod(math.Abs(exp), 11))
		return s.Impedance(freq) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyStepMonotoneEnvelopeDecay(t *testing.T) {
	// |Step(t) - R| must decay below any epsilon after the corresponding
	// settling time.
	s := mustFromPeak(t)
	f := func(u uint8) bool {
		frac := math.Pow(10, -1-float64(u%8)) // 1e-1 .. 1e-8
		tS := -math.Log(frac) / s.Alpha()     // transients decayed to frac
		dev := math.Abs(s.Step(tS*1.5) - s.R)
		env := (1 / s.C) / s.Alpha() // loose bound on transient scale
		return dev <= frac*env
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringContainsKeyNumbers(t *testing.T) {
	s := mustFromPeak(t)
	str := s.String()
	if str == "" {
		t.Fatal("empty String()")
	}
}
