// Package linsys implements the second-order linear-system mathematics that
// underlie the paper's power-delivery-network model.
//
// The PDN seen from the die is modeled as a parallel resonance between the
// package inductance L (with series resistance R) and the decoupling
// capacitance C:
//
//	Z(s) = (R + sL) / (s^2 LC + s RC + 1)
//
// This transfer function maps load current to supply-voltage droop. It has
// DC value Z(0) = R, a resonant peak near w0 = 1/sqrt(LC), and — in every
// practically interesting configuration — a complex (underdamped) pole pair
//
//	s = -alpha +- j*wd,  alpha = R/(2L),  wd = sqrt(1/(LC) - alpha^2).
//
// All responses are available in closed form; no numerical ODE integration
// is required. The package mirrors the MATLAB model of Section 2.2 of the
// paper.
package linsys

import (
	"errors"
	"fmt"
	"math"
)

// SecondOrder is an underdamped second-order PDN transfer function
// Z(s) = (R + sL)/(s^2 LC + s RC + 1), constructed from circuit parameters.
// The zero value is not usable; build one with New or FromPeak.
type SecondOrder struct {
	R float64 // series (DC) resistance, ohms
	L float64 // package inductance, henries
	C float64 // decoupling capacitance, farads

	alpha float64 // damping rate R/(2L), 1/s
	wd    float64 // damped natural frequency, rad/s
	w0    float64 // undamped natural frequency 1/sqrt(LC), rad/s
}

// New builds a second-order system from explicit R, L, C values.
// It returns an error unless the parameters are positive and the system is
// underdamped (complex poles), which is the regime the paper analyzes.
func New(r, l, c float64) (*SecondOrder, error) {
	if r <= 0 || l <= 0 || c <= 0 {
		return nil, fmt.Errorf("linsys: parameters must be positive (R=%g L=%g C=%g)", r, l, c)
	}
	s := &SecondOrder{R: r, L: l, C: c}
	s.w0 = 1 / math.Sqrt(l*c)
	s.alpha = r / (2 * l)
	d := s.w0*s.w0 - s.alpha*s.alpha
	if d <= 0 {
		return nil, errors.New("linsys: system is not underdamped; the paper's PDN model requires complex poles")
	}
	s.wd = math.Sqrt(d)
	return s, nil
}

// FromPeak builds a system from the quantities the paper reports: DC
// resistance r (ohms), resonant frequency f0 (hertz), and peak impedance
// zPeak (ohms, the "target impedance" when the network meets spec).
//
// Internally it solves for the quality factor Q such that the exact peak of
// |Z(jw)| equals zPeak, then sets L = Q*r/w0 and C = 1/(w0^2 L).
func FromPeak(r, f0, zPeak float64) (*SecondOrder, error) {
	if r <= 0 || f0 <= 0 {
		return nil, fmt.Errorf("linsys: r and f0 must be positive (r=%g f0=%g)", r, f0)
	}
	if zPeak <= r {
		return nil, fmt.Errorf("linsys: peak impedance %g must exceed DC resistance %g", zPeak, r)
	}
	w0 := 2 * math.Pi * f0
	// |Z| at its maximum is a monotonically increasing function of Q for
	// fixed r, w0. Bisect Q in a generous bracket.
	lo, hi := 0.5000001, 1e4 // Q <= 0.5 is not underdamped
	f := func(q float64) float64 {
		l := q * r / w0
		c := 1 / (w0 * w0 * l)
		s, err := New(r, l, c)
		if err != nil {
			return -zPeak // treat as too small
		}
		return s.PeakImpedance() - zPeak
	}
	if f(hi) < 0 {
		return nil, fmt.Errorf("linsys: peak impedance %g unreachable with r=%g", zPeak, r)
	}
	if f(lo) > 0 {
		return nil, fmt.Errorf("linsys: peak impedance %g requires overdamped system (r=%g)", zPeak, r)
	}
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if f(mid) > 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	q := 0.5 * (lo + hi)
	l := q * r / w0
	c := 1 / (w0 * w0 * l)
	return New(r, l, c)
}

// Q returns the quality factor w0*L/R.
func (s *SecondOrder) Q() float64 { return s.w0 * s.L / s.R }

// DampingRatio returns zeta = alpha/w0. Underdamped systems have zeta < 1.
func (s *SecondOrder) DampingRatio() float64 { return s.alpha / s.w0 }

// ResonantFreq returns the undamped natural frequency in hertz.
func (s *SecondOrder) ResonantFreq() float64 { return s.w0 / (2 * math.Pi) }

// Alpha returns the exponential decay rate of transients in 1/s.
func (s *SecondOrder) Alpha() float64 { return s.alpha }

// DampedRate returns the damped natural frequency wd in rad/s: the poles
// are -Alpha() +- j*DampedRate().
func (s *SecondOrder) DampedRate() float64 { return s.wd }

// DCResistance returns Z(0) = R.
func (s *SecondOrder) DCResistance() float64 { return s.R }

// Impedance returns |Z(j*2*pi*f)| in ohms at frequency f hertz.
func (s *SecondOrder) Impedance(f float64) float64 {
	w := 2 * math.Pi * f
	num := complex(s.R, w*s.L)
	den := complex(1-w*w*s.L*s.C, w*s.R*s.C)
	return cmplxAbs(num) / cmplxAbs(den)
}

func cmplxAbs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }

// PeakImpedance returns max over frequency of |Z(jw)|, found by golden-
// section search around the resonance (the curve is unimodal there).
func (s *SecondOrder) PeakImpedance() float64 {
	f0 := s.ResonantFreq()
	lo, hi := f0/10, f0*10
	gr := (math.Sqrt(5) - 1) / 2
	a, b := lo, hi
	c := b - gr*(b-a)
	d := a + gr*(b-a)
	for i := 0; i < 200; i++ {
		if s.Impedance(c) > s.Impedance(d) {
			b = d
		} else {
			a = c
		}
		c = b - gr*(b-a)
		d = a + gr*(b-a)
	}
	return s.Impedance(0.5 * (a + b))
}

// PeakFrequency returns the frequency (hertz) at which |Z| is maximal.
func (s *SecondOrder) PeakFrequency() float64 {
	f0 := s.ResonantFreq()
	lo, hi := f0/10, f0*10
	gr := (math.Sqrt(5) - 1) / 2
	a, b := lo, hi
	c := b - gr*(b-a)
	d := a + gr*(b-a)
	for i := 0; i < 200; i++ {
		if s.Impedance(c) > s.Impedance(d) {
			b = d
		} else {
			a = c
		}
		c = b - gr*(b-a)
		d = a + gr*(b-a)
	}
	return 0.5 * (a + b)
}

// Impulse returns h(t), the voltage-droop impulse response (ohms/second;
// convolving with current in amperes over seconds yields volts):
//
//	h(t) = (1/C) e^{-alpha t} (cos wd t + (alpha/wd) sin wd t),  t >= 0.
func (s *SecondOrder) Impulse(t float64) float64 {
	if t < 0 {
		return 0
	}
	e := math.Exp(-s.alpha * t)
	return (1 / s.C) * e * (math.Cos(s.wd*t) + (s.alpha/s.wd)*math.Sin(s.wd*t))
}

// Step returns the step response integral(0..t) h(tau) dtau: the voltage
// droop (volts) at time t after a unit (1 A) current step. It settles to
// Z(0) = R as t -> infinity.
func (s *SecondOrder) Step(t float64) float64 {
	if t <= 0 {
		return 0
	}
	// integral of e^{-a tau}(cos w tau + (a/w) sin w tau) dtau from 0 to t:
	// standard closed forms.
	a, w := s.alpha, s.wd
	den := a*a + w*w
	e := math.Exp(-a * t)
	// int e^{-a tau} cos(w tau) = [e^{-a tau}(-a cos + w sin)]/den, eval 0..t
	ic := (e*(-a*math.Cos(w*t)+w*math.Sin(w*t)) + a) / den
	// int e^{-a tau} sin(w tau) = [e^{-a tau}(-a sin - w cos)]/den, eval 0..t
	is := (e*(-a*math.Sin(w*t)-w*math.Cos(w*t)) + w) / den
	return (1 / s.C) * (ic + (a/w)*is)
}

// SampleImpulse returns the discrete convolution kernel for sample interval
// dt (seconds). Tap k is the exact integral of the impulse response over
// [k*dt, (k+1)*dt) — i.e. Step((k+1)dt) - Step(k*dt) — which makes the
// discrete convolution sum_k h[k] i[n-k] *exact* for inputs that are
// piecewise constant over each cycle (which per-cycle current traces are).
// Sampling stops when the response envelope e^{-alpha t} falls below relTol
// of its t=0 value, or at maxLen samples, whichever is first. maxLen <= 0
// means no cap.
func (s *SecondOrder) SampleImpulse(dt, relTol float64, maxLen int) []float64 {
	if dt <= 0 {
		return nil
	}
	var out []float64
	for k := 0; ; k++ {
		t := float64(k) * dt
		if k > 0 && math.Exp(-s.alpha*t) < relTol {
			break
		}
		if maxLen > 0 && k >= maxLen {
			break
		}
		out = append(out, s.Step(t+dt)-s.Step(t))
	}
	return out
}

// String summarizes the system for diagnostics.
func (s *SecondOrder) String() string {
	return fmt.Sprintf("2nd-order PDN{R=%.3gmΩ f0=%.3gMHz Zpeak=%.3gmΩ Q=%.3g ζ=%.3g}",
		s.R*1e3, s.ResonantFreq()/1e6, s.PeakImpedance()*1e3, s.Q(), s.DampingRatio())
}
