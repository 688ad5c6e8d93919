// Package fft implements the radix-2 fast Fourier transform and the
// overlap-save block convolver built on it. It exists for one job: turning
// the O(cycles x taps) open-loop PDN convolution into
// O(cycles log taps) when the whole current trace is known up front
// (Network.ConvolveVoltages). No simulation or experiment uses it: the
// engine and Network.VoltageTrace step the exact streaming kernels in
// internal/pdn, so it serves the benchmark harness's FFT layer row.
//
// Everything here is stdlib-only and allocation-free on the hot path: a
// Plan precomputes twiddle factors and the bit-reversal permutation for
// one power-of-two size, a Kernel freezes one impulse response's spectrum
// (immutable, safe to share across goroutines), and a Scratch carries the
// per-goroutine work buffers.
//
// Accuracy: double-precision FFT round-off is a few ULPs per butterfly
// stage, so block-convolved outputs differ from the streaming convolver in
// the last bits only. The property tests in this package and in
// internal/pdn pin the agreement to <= 1e-9 absolute error against both
// the streaming path and the analytic internal/linsys responses.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// Plan holds the precomputed tables for transforms of one power-of-two
// size n: the bit-reversal permutation and the twiddle factors
// e^{-2*pi*i*k/n} for k in [0, n/2). A Plan is immutable after
// construction and safe for concurrent use.
type Plan struct {
	n        int
	rev      []int32
	wre, wim []float64
}

// NewPlan builds transform tables for size n, which must be a power of two
// >= 2.
func NewPlan(n int) (*Plan, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: size %d is not a power of two >= 2", n)
	}
	p := &Plan{n: n, rev: make([]int32, n), wre: make([]float64, n/2), wim: make([]float64, n/2)}
	shift := 32 - uint(bits.TrailingZeros(uint(n)))
	for i := range p.rev {
		p.rev[i] = int32(bits.Reverse32(uint32(i)) >> shift)
	}
	for k := range p.wre {
		// Exact-angle evaluation per index keeps twiddles accurate to one
		// ULP; recurrence-based generation would accumulate error across
		// the table.
		theta := -2 * math.Pi * float64(k) / float64(n)
		p.wre[k] = math.Cos(theta)
		p.wim[k] = math.Sin(theta)
	}
	return p, nil
}

// N reports the transform size.
func (p *Plan) N() int { return p.n }

// Forward computes the in-place forward DFT of the complex sequence
// (re, im), both of which must have length N. Zero allocations.
//
//didt:hotpath
func (p *Plan) Forward(re, im []float64) {
	n := p.n
	_ = re[n-1]
	_ = im[n-1]
	for i, j := range p.rev {
		if int32(i) < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				wr := p.wre[k*step]
				wi := p.wim[k*step]
				i1 := start + k
				i2 := i1 + half
				tr := re[i2]*wr - im[i2]*wi
				ti := re[i2]*wi + im[i2]*wr
				re[i2] = re[i1] - tr
				im[i2] = im[i1] - ti
				re[i1] += tr
				im[i1] += ti
			}
		}
	}
}

// Inverse computes the in-place inverse DFT of (re, im), scaled by 1/N.
// It uses the conjugation identity IDFT(x) = swap(DFT(swap(x)))/N, so one
// twiddle table serves both directions. Zero allocations.
//
//didt:hotpath
func (p *Plan) Inverse(re, im []float64) {
	p.Forward(im, re)
	inv := 1 / float64(p.n)
	for i := range re {
		re[i] *= inv
		im[i] *= inv
	}
}

// Kernel is one impulse response frozen for overlap-save convolution: the
// plan for the chosen FFT size plus the kernel's precomputed spectrum.
// Immutable after construction and safe to share across goroutines; the
// mutable per-call state lives in Scratch.
type Kernel struct {
	plan *Plan
	m    int // kernel taps
	step int // fresh input samples consumed per block: N - m + 1
	hre  []float64
	him  []float64
}

// NewKernel freezes the impulse response h for block convolution. fftSize
// selects the transform size (power of two, > len(h)); fftSize <= 0 picks
// the smallest power of two >= 8*len(h), which keeps the per-sample cost
// near its minimum (the cost curve is flat between 4x and 16x).
func NewKernel(h []float64, fftSize int) (*Kernel, error) {
	m := len(h)
	if m == 0 {
		return nil, fmt.Errorf("fft: empty kernel")
	}
	if fftSize <= 0 {
		fftSize = 2
		for fftSize < 8*m {
			fftSize <<= 1
		}
	}
	if fftSize <= m {
		return nil, fmt.Errorf("fft: size %d must exceed kernel length %d", fftSize, m)
	}
	plan, err := NewPlan(fftSize)
	if err != nil {
		return nil, err
	}
	k := &Kernel{
		plan: plan,
		m:    m,
		step: fftSize - m + 1,
		hre:  make([]float64, fftSize),
		him:  make([]float64, fftSize),
	}
	copy(k.hre, h)
	plan.Forward(k.hre, k.him)
	return k, nil
}

// M reports the kernel length in taps.
func (k *Kernel) M() int { return k.m }

// BlockStep reports the number of fresh input samples each FFT block
// consumes (N - M + 1); the property tests sweep trace lengths around this
// boundary.
func (k *Kernel) BlockStep() int { return k.step }

// Scratch is the mutable work area for one goroutine's convolutions.
type Scratch struct {
	re, im []float64
}

// NewScratch allocates a work area sized for this kernel's plan.
func (k *Kernel) NewScratch() *Scratch {
	return &Scratch{re: make([]float64, k.plan.n), im: make([]float64, k.plan.n)}
}

// Convolve computes the causal linear convolution
//
//	dst[i] = sum_{j=0}^{m-1} h[j] * x[i-j]   (x[t] = 0 for t < 0)
//
// for i in [0, len(x)) by overlap-save blocks, writing into dst, which
// must have length >= len(x) and must not alias x. s must come from
// k.NewScratch (one per goroutine). Zero allocations.
//
//didt:hotpath
func (k *Kernel) Convolve(dst, x []float64, s *Scratch) {
	n := k.plan.n
	re, im := s.re, s.im
	for s0 := 0; s0 < len(x); s0 += k.step {
		// Load the block: m-1 samples of history then the fresh samples,
		// zero-padded outside the trace.
		base := s0 - (k.m - 1)
		for i := 0; i < n; i++ {
			t := base + i
			if t >= 0 && t < len(x) {
				re[i] = x[t]
			} else {
				re[i] = 0
			}
			im[i] = 0
		}
		k.plan.Forward(re, im)
		for i := 0; i < n; i++ {
			ar, ai := re[i], im[i]
			br, bi := k.hre[i], k.him[i]
			re[i] = ar*br - ai*bi
			im[i] = ar*bi + ai*br
		}
		k.plan.Inverse(re, im)
		// Outputs m-1..n-1 of the circular convolution are the valid
		// linear-convolution samples y[s0 .. s0+step-1].
		limit := k.step
		if rem := len(x) - s0; rem < limit {
			limit = rem
		}
		for j := 0; j < limit; j++ {
			dst[s0+j] = re[k.m-1+j]
		}
	}
}
