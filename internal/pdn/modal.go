// Modal stepping: the PDN is one pole pair, so its truncated kernel is one
// damped complex exponential and the convolution is a first-order complex
// recursion.
//
// Every tap is Step((i+1)dt) - Step(i*dt), and the step response of the
// second-order system is const + e^{-alpha t}(A cos wd*t + B sin wd*t), so
//
//	k[i] = Re(c * p^i),  p = e^{(-alpha + j*wd)dt},  0 <= i < L,
//
// and the drop sum_{i<L} k[i]*x[n-i] is Re(c*s[n]) with
//
//	s[n] = p*s[n-1] + x[n] - p^L*x[n-L].
//
// That is O(1) per cycle instead of O(L). It is not bit-identical to the
// exact dot product, so StepModal returns, with every block, a bound eps on
// |f - v| between its estimate f and the exact voltage v that Step would
// produce. Consumers compare voltages against edges (thresholds, band
// limits, histogram bins, the running min/max); a comparison that gives the
// same answer at f-eps and at f+eps gives it at v, and only a sample within
// eps of an edge needs Exact — the dotRing-order value, == to Step.
//
// eps is derived, not tuned (DESIGN.md §5 has the derivation): the fit
// residual against the recursion's own impulse response, the rounding of
// the exact L-tap dot product, and the rounding the recursion accumulates,
// all per ampere of the run's running max |I - IFloor|, times modalSafety.
// The recursion is re-anchored from the history ring every L cycles, so
// its rounding never accumulates past one window.

package pdn

import (
	"math"

	"didt/internal/linsys"
)

const (
	// modalSafety multiplies the rounding-error bound into the eps StepModal
	// reports. It absorbs the rounding of the consumers' own comparisons
	// (f±eps, f+noise) and any slack in the constants of the derivation.
	modalSafety = 1e3
	// modalRelTol is the largest fit residual, relative to sum |k|, for
	// which a network takes the modal form. A network that fails it — a
	// near-critically-damped one, whose fit is ill-conditioned — stays on
	// the exact dot product everywhere.
	modalRelTol = 1e-9
	// unitRound is the float64 unit roundoff.
	unitRound = 0x1p-53
)

// modalForm is a network's fitted pole pair and the per-block error bound
// of its recursion. Immutable; shared through the kernel cache.
type modalForm struct {
	cr, ci    float64 // c: k[i] = Re(c * p^i)
	pr, pi    float64 // p: the pole pair sampled at the clock
	pLr, pLi  float64 // p^L, the factor that retires a sample after L cycles
	epsPerAmp float64 // eps per ampere of running max deviation (safety included)
	epsAbs    float64 // eps of the final VNominal subtraction (safety included)
}

// fitModal fits the modal form of kernel k, sampled from sys at interval
// dt, and returns nil when the network has none: fewer than two taps, a
// pole pair on the real axis, or a fit residual above modalRelTol.
func fitModal(sys *linsys.SecondOrder, k []float64, dt, vnom float64) *modalForm {
	L := len(k)
	if L < 2 {
		return nil
	}
	mag := math.Exp(-sys.Alpha() * dt)
	th := sys.DampedRate() * dt
	pr, pi := mag*math.Cos(th), mag*math.Sin(th)
	if pi == 0 {
		return nil
	}
	// Re(c) = k[0]; Re(c*p) = cr*pr - ci*pi = k[1].
	cr := k[0]
	ci := (cr*pr - k[1]) / pi
	// p^L by the same repeated product the recursion's impulse response
	// forms, so an impulse leaves the window exactly.
	pLr, pLi := 1.0, 0.0
	for i := 0; i < L; i++ {
		pLr, pLi = pr*pLr-pi*pLi, pr*pLi+pi*pLr
	}

	// Run the recursion on a unit impulse for two windows: taps below L
	// against the kernel, the tail against zero. g is sum |p^i| over one
	// window, the gain from the running max deviation to |s|.
	var residual, sumK, g float64
	sr, si := 0.0, 0.0
	for i := 0; i < 2*L; i++ {
		x, old := 0.0, 0.0
		if i == 0 {
			x = 1
		}
		if i == L {
			old = 1
		}
		sr, si = pr*sr-pi*si+x-pLr*old, pr*si+pi*sr-pLi*old
		kh := cr*sr - ci*si
		if i < L {
			residual += math.Abs(k[i] - kh)
			sumK += math.Abs(k[i])
			g += math.Hypot(sr, si)
		} else {
			residual += math.Abs(kh)
		}
	}
	if !(residual <= modalRelTol*sumK) {
		return nil
	}

	u := unitRound
	fl := float64(L)
	absC := math.Hypot(cr, ci)
	// Steps whose rounding can still reach an output: at most one window of
	// re-anchoring Horner steps plus one window of recursion, each damped by
	// |p| per cycle.
	w := 2 * fl
	if m := math.Hypot(pr, pi); m < 1 {
		w = math.Min(w, 1/(1-m))
	}
	gammaL := fl * u / (1 - fl*u)
	perAmp := residual + // fit, measured on the recursion's own impulse response
		absC*3*u*fl*g + // the float powers of p behind that measurement
		absC*3*u*fl*math.Hypot(pLr, pLi)*w + // p^L formed by repeated product
		absC*8*u*(g+2)*w + // per-step recursion rounding, |s| <= g*X
		absC*3*u*g + // Re(c*s)
		gammaL*sumK + // the exact dot product's own rounding
		2*u*sumK // VNominal - drop, on both sides
	perAmp *= 1.01
	abs := 2 * u * math.Abs(vnom) * 1.01
	return &modalForm{
		cr: cr, ci: ci, pr: pr, pi: pi, pLr: pLr, pLi: pLi,
		epsPerAmp: modalSafety * perAmp,
		epsAbs:    modalSafety * abs,
	}
}

// StepModal advances len(currents) consecutive cycles (1 to MaxBlock), like
// StepBlock, but writes the modal estimate of each cycle's voltage into
// volts and returns eps, a bound with |volts[j] - v[j]| <= eps for the exact
// voltage v[j] that StepBlock would have produced. Exact and ExactBlock
// recover v for this block until the next step. On a network without a
// modal form it is StepBlock and returns 0. Zero allocations.
//
//didt:hotpath
func (s *Simulator) StepModal(currents, volts []float64) float64 {
	m := s.net.modal
	if m == nil {
		s.StepBlock(currents, volts)
		return 0
	}
	if len(currents) > MaxBlock {
		panic(errBlockTooLong)
	}
	L := len(s.net.kernel)
	ring := len(s.hist) - (MaxBlock - 1)
	ifloor := s.net.params.IFloor
	vnom := s.net.params.VNominal
	s.blkFirst, s.blkLen = s.pos, len(currents)
	pos, sr, si, xmax := s.pos, s.sr, s.si, s.xmax
	for j, c := range currents {
		x := c - ifloor
		// The sample leaving the window. Its slot is next written
		// MaxBlock-1 cycles from now, so reading it first is safe.
		oldIdx := pos - L
		if oldIdx < 0 {
			oldIdx += ring
		}
		old := s.hist[oldIdx]
		s.put(pos, x)
		if ax := math.Abs(x); ax > xmax {
			xmax = ax
		}
		s.since++
		if s.since >= L {
			sr, si, xmax = s.anchor(pos, xmax)
		} else {
			sr, si = m.pr*sr-m.pi*si+x-m.pLr*old, m.pr*si+m.pi*sr-m.pLi*old
		}
		volts[j] = vnom - (m.cr*sr - m.ci*si)
		pos++
		if pos == ring {
			pos = 0
		}
	}
	s.pos, s.sr, s.si, s.xmax = pos, sr, si, xmax
	s.n += len(currents)
	return m.epsPerAmp*xmax + m.epsAbs
}

// anchor recomputes the mode sum from the ring — sum_{i<L} p^i x[n-i] by
// Horner's rule, oldest sample first — for the window whose newest sample
// is in slot newest, and folds the window's largest deviation into xmax.
//
//didt:hotpath
func (s *Simulator) anchor(newest int, xmax float64) (sr, si, xm float64) {
	m := s.net.modal
	L := len(s.net.kernel)
	ring := len(s.hist) - (MaxBlock - 1)
	idx := newest - (L - 1)
	if idx < 0 {
		idx += ring
	}
	for i := 0; i < L; i++ {
		x := s.hist[idx]
		if ax := math.Abs(x); ax > xmax {
			xmax = ax
		}
		sr, si = m.pr*sr-m.pi*si+x, m.pr*si+m.pi*sr
		idx++
		if idx == ring {
			idx = 0
		}
	}
	s.since = 0
	return sr, si, xmax
}

// Exact returns the exact voltage of sample j of the last block — the
// dotRing-order sum, == to what Step would have returned for that cycle.
//
//didt:hotpath
func (s *Simulator) Exact(j int) float64 {
	ring := len(s.hist) - (MaxBlock - 1)
	idx := s.blkFirst + j
	if idx >= ring {
		idx -= ring
	}
	return s.net.params.VNominal - dotRing(s.net.kernel, s.hist[:ring], idx)
}

// ExactBlock overwrites volts[:n], n the last block's length, with the
// block's exact voltages in one pass of the block kernel: == to StepBlock.
//
//didt:hotpath
func (s *Simulator) ExactBlock(volts []float64) {
	out := volts[:s.blkLen]
	ring := len(s.hist) - (MaxBlock - 1)
	dotChains(s.net.kernel, s.hist, ring, s.blkFirst, out)
	vnom := s.net.params.VNominal
	for j, drop := range out {
		out[j] = vnom - drop
	}
}
