// Block stepping: B consecutive outputs of one rail in one pass over the
// kernel. A single output is one chain of kernel-length dependent adds, so
// it runs at the floating-point add latency; B outputs are B independent
// chains over the same taps and history window, which the core overlaps —
// up to the point where the multiply and add units, not the latency, are
// the limit. Four chains reach that point on scalar code without fused
// multiply-add, which is why MaxBlock is four.
//
// Each chain accumulates k[i]*h[n+j-i] in ascending i, exactly the order
// of dotRing, so every output of a block is bit-identical (==) to stepping
// the same currents one cycle at a time.

package pdn

import "errors"

// MaxBlock is the most consecutive cycles one StepBlock call computes.
const MaxBlock = 4

var errBlockTooLong = errors.New("pdn: StepBlock block longer than MaxBlock")

// ringLen is the history ring length for a kernel of the given taps: the
// kernel plus MaxBlock-1 slots of slack, so writing a whole block never
// overwrites the oldest tap of the block's first output.
func ringLen(taps int) int { return taps + MaxBlock - 1 }

// mirroredLen is the allocated history length: the ring plus a mirror of
// its first MaxBlock-1 slots, so the MaxBlock-sample window starting at
// any ring slot is contiguous.
func mirroredLen(taps int) int { return ringLen(taps) + MaxBlock - 1 }

// put writes deviation x into ring slot p and, for the first MaxBlock-1
// slots, into the slot's mirror past the end of the ring.
//
//didt:hotpath
func (s *Simulator) put(p int, x float64) {
	s.hist[p] = x
	if p < MaxBlock-1 {
		s.hist[p+len(s.hist)-(MaxBlock-1)] = x
	}
}

// StepBlock advances len(currents) consecutive CPU cycles — 1 to MaxBlock —
// in one pass over the kernel: currents[j] is cycle j's load current and
// volts[j] receives its supply voltage (volts must be at least as long).
// The result is bit-identical to calling Step on each current in turn.
// Zero allocations.
//
//didt:hotpath
func (s *Simulator) StepBlock(currents, volts []float64) {
	if len(currents) > MaxBlock {
		panic(errBlockTooLong)
	}
	ring := len(s.hist) - (MaxBlock - 1)
	ifloor := s.net.params.IFloor
	first := s.pos
	s.blkFirst, s.blkLen = first, len(currents)
	// The modal sum does not follow exact steps; the next StepModal
	// re-anchors it from the ring.
	s.since = len(s.net.kernel)
	p := s.pos
	for _, c := range currents {
		s.put(p, c-ifloor)
		p++
		if p == ring {
			p = 0
		}
	}
	s.pos = p
	s.n += len(currents)
	out := volts[:len(currents)]
	dotChains(s.net.kernel, s.hist, ring, first, out)
	vnom := s.net.params.VNominal
	for j, drop := range out {
		out[j] = vnom - drop
	}
}

// dotChains writes into out[j] the convolution sum of the output whose
// newest sample sits in ring slot first+j, for every j < len(out) <=
// MaxBlock. h is the mirrored history; ring its ring length.
//
//didt:hotpath
func dotChains(k, h []float64, ring, first int, out []float64) {
	switch len(out) {
	case 0:
	case 1:
		out[0] = dotRing(0, k, h[:ring], 0, first)
	case 2:
		out[0], out[1] = dot2(k, h, ring, first)
	case 3:
		out[0], out[1], out[2] = dot3(k, h, ring, first)
	default:
		out[0], out[1], out[2], out[3] = dot4(k, h, ring, first)
	}
}

// dot2, dot3 and dot4 are dotRing for two, three and four chains whose
// windows start at ring slot idx: the same two-half backward walk, with
// the chains' accumulators in registers and each tap's samples read from
// one contiguous window of the mirrored history.
//
//didt:hotpath
func dot2(k, h []float64, ring, idx int) (a0, a1 float64) {
	i := 0
	for ; idx >= 0 && i < len(k); idx-- {
		ki := k[i]
		w := h[idx : idx+2 : idx+2]
		a0 += ki * w[0]
		a1 += ki * w[1]
		i++
	}
	for idx = ring - 1; i < len(k); idx-- {
		ki := k[i]
		w := h[idx : idx+2 : idx+2]
		a0 += ki * w[0]
		a1 += ki * w[1]
		i++
	}
	return a0, a1
}

//didt:hotpath
func dot3(k, h []float64, ring, idx int) (a0, a1, a2 float64) {
	i := 0
	for ; idx >= 0 && i < len(k); idx-- {
		ki := k[i]
		w := h[idx : idx+3 : idx+3]
		a0 += ki * w[0]
		a1 += ki * w[1]
		a2 += ki * w[2]
		i++
	}
	for idx = ring - 1; i < len(k); idx-- {
		ki := k[i]
		w := h[idx : idx+3 : idx+3]
		a0 += ki * w[0]
		a1 += ki * w[1]
		a2 += ki * w[2]
		i++
	}
	return a0, a1, a2
}

//didt:hotpath
func dot4(k, h []float64, ring, idx int) (a0, a1, a2, a3 float64) {
	i := 0
	for ; idx >= 0 && i < len(k); idx-- {
		ki := k[i]
		w := h[idx : idx+4 : idx+4]
		a0 += ki * w[0]
		a1 += ki * w[1]
		a2 += ki * w[2]
		a3 += ki * w[3]
		i++
	}
	for idx = ring - 1; i < len(k); idx-- {
		ki := k[i]
		w := h[idx : idx+4 : idx+4]
		a0 += ki * w[0]
		a1 += ki * w[1]
		a2 += ki * w[2]
		a3 += ki * w[3]
		i++
	}
	return a0, a1, a2, a3
}
