// Package pdn models the processor power-delivery network and computes the
// supply voltage seen by the die from a per-cycle current trace.
//
// The network itself is the second-order linear system of package linsys,
// configured the way the paper configures it (Section 2.2): DC resistance
// 0.5 mΩ, resonant frequency 50 MHz, nominal supply 1.0 V, 3 GHz CPU clock
// (so the resonant period is 60 CPU cycles). The supply voltage is
//
//	V[n] = Vnom - sum_k h[k] * (I[n-k] - Ifloor)
//
// where h is the sampled impulse response and Ifloor is the current level
// at which the voltage regulator holds the supply at exactly Vnom (the
// paper assumes the regulator nulls the drop at minimum processor power).
//
// Network is immutable after construction; Simulator carries the mutable
// convolution state so that one Network can serve many concurrent runs.
package pdn

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"didt/internal/linsys"
	"didt/internal/sim"
	"didt/internal/telemetry"
)

// Paper-reference constants (Section 2.2 and Table 1).
const (
	DefaultClockHz      = 3e9    // 3 GHz CPU clock
	DefaultResonantHz   = 50e6   // package resonance
	DefaultDCResistance = 0.5e-3 // 0.5 mOhm
	DefaultVNominal     = 1.0    // volts
	DefaultTolerance    = 0.05   // +-5% emergency band
)

// Params describes a power delivery network plus the electrical environment
// it serves.
type Params struct {
	ClockHz      float64 // CPU clock; sets the convolution sample interval
	ResonantHz   float64 // PDN resonant frequency
	DCResistance float64 // ohms
	PeakZ        float64 // peak (target-relative) impedance, ohms
	VNominal     float64 // nominal supply voltage
	Tolerance    float64 // allowed fractional deviation (0.05 = +-5%)
	IFloor       float64 // amperes at which regulator holds exactly VNominal

	// TruncRelTol controls impulse-response truncation: sampling stops when
	// the response envelope decays below this fraction of its initial
	// value. Zero selects 1e-6.
	TruncRelTol float64
	// MaxKernelLen caps the sampled kernel length. Zero selects 4096.
	MaxKernelLen int
}

// MaxKernelTaps is the largest MaxKernelLen Validate accepts: every tap is
// one float64 of kernel plus one of each simulator's history ring, so the
// bound keeps a spec from sizing an arbitrarily large allocation.
const MaxKernelTaps = 1 << 16

// MaxResonantPeriod is the longest resonant period, in CPU cycles, that
// Validate accepts (68 times the paper's 60): a threshold solve steps
// each worst-case scenario for 14 periods, so the bound keeps a spec from
// making one solve arbitrarily long.
const MaxResonantPeriod = 4096

// Validate checks the fields a caller may leave at zero for a default:
// none may be negative, MaxKernelLen may not exceed MaxKernelTaps, and
// when ClockHz and ResonantHz are both set the resonant period must lie
// in [2, MaxResonantPeriod] cycles — a shorter one is past the clock's
// Nyquist limit, and the solver's square waves have no half period.
func (p Params) Validate() error {
	if p.ClockHz < 0 || p.ResonantHz < 0 || p.DCResistance < 0 || p.TruncRelTol < 0 || p.MaxKernelLen < 0 {
		return errors.New("pdn: params must be non-negative")
	}
	if p.MaxKernelLen > MaxKernelTaps {
		return fmt.Errorf("pdn: MaxKernelLen %d exceeds %d", p.MaxKernelLen, MaxKernelTaps)
	}
	if p.ClockHz > 0 && p.ResonantHz > 0 {
		if period := math.Round(p.ClockHz / p.ResonantHz); period < 2 || period > MaxResonantPeriod {
			return fmt.Errorf("pdn: resonant period %g cycles (ClockHz %g / ResonantHz %g) outside [2, %d]",
				period, p.ClockHz, p.ResonantHz, MaxResonantPeriod)
		}
	}
	return nil
}

// WithDefaults fills zero fields from the paper-reference constants. The
// spec layer resolves the PDN section of a RunSpec through this; New and
// Calibrate apply it again idempotently for direct users.
func (p Params) WithDefaults() Params {
	if p.ClockHz == 0 {
		p.ClockHz = DefaultClockHz
	}
	if p.ResonantHz == 0 {
		p.ResonantHz = DefaultResonantHz
	}
	if p.DCResistance == 0 {
		p.DCResistance = DefaultDCResistance
	}
	if p.VNominal == 0 {
		p.VNominal = DefaultVNominal
	}
	if p.Tolerance == 0 {
		p.Tolerance = DefaultTolerance
	}
	if p.TruncRelTol == 0 {
		p.TruncRelTol = 1e-6
	}
	if p.MaxKernelLen == 0 {
		p.MaxKernelLen = 4096
	}
	return p
}

// Network is an immutable, sampled PDN ready for voltage simulation.
type Network struct {
	params Params
	sys    *linsys.SecondOrder
	kernel []float64  // impulse response sampled at the CPU clock, scaled by dt
	modal  *modalForm // nil when the network has no modal form (modal.go)

	simPool sync.Pool // recycled Simulator history buffers ([]float64)
}

// sampled pairs the derived artifacts a Network shares with every other
// Network built from the same parameters: the analytic system, the sampled
// impulse-response kernel and the kernel's modal form. All are immutable
// after construction.
type sampled struct {
	sys    *linsys.SecondOrder
	kernel []float64
	modal  *modalForm
}

// kernelCache memoizes kernel sampling across Networks. A sweep
// recalibrates the same handful of (envelope, impedance) points hundreds
// of times, and re-deriving and re-sampling the 4096-tap kernel each run
// dominated Network construction. The key is the fingerprint of the
// resolved (calibrated) Params — the same sub-hash that section
// contributes to spec.RunSpec.Key — and sampling is a pure function of the
// params, so cached and fresh kernels are bit-identical.
var kernelCache = sim.Register("pdn_kernel", sim.NewCache[string, sampled](512))

// ResetKernelCache empties the shared impulse-response cache (benchmarks
// use it to measure cold-start cost).
func ResetKernelCache() { kernelCache.Reset() }

// KernelCacheStats reports the shared impulse-response cache's
// effectiveness (hits, misses, evictions, residency).
func KernelCacheStats() sim.CacheStats { return kernelCache.Stats() }

// New constructs a Network. Zero-valued Params fields take the paper's
// defaults; PeakZ must be positive (use Calibrate to derive it from a
// current envelope).
func New(p Params) (*Network, error) {
	p = p.WithDefaults()
	if p.PeakZ <= 0 {
		return nil, fmt.Errorf("pdn: PeakZ must be positive (got %g); use Calibrate", p.PeakZ)
	}
	sk, err := kernelCache.Get(sim.Fingerprint(p), func() (sampled, error) {
		sys, err := linsys.FromPeak(p.DCResistance, p.ResonantHz, p.PeakZ)
		if err != nil {
			return sampled{}, fmt.Errorf("pdn: %w", err)
		}
		kernel := sys.SampleImpulse(1/p.ClockHz, p.TruncRelTol, p.MaxKernelLen)
		if len(kernel) == 0 {
			return sampled{}, fmt.Errorf("pdn: empty impulse-response kernel")
		}
		modal := fitModal(sys, kernel, 1/p.ClockHz, p.VNominal)
		return sampled{sys: sys, kernel: kernel, modal: modal}, nil
	})
	if err != nil {
		return nil, err
	}
	telemetry.Default().Counter("pdn.networks_built_total").Inc()
	return &Network{params: p, sys: sk.sys, kernel: sk.kernel, modal: sk.modal}, nil
}

// Calibrate sets the network's peak impedance from the de facto target-
// impedance rule the paper describes in Section 2.1: the target impedance
// is the value that keeps the voltage within its allowed range for the
// maximum current swing,
//
//	Z_target = (Tolerance * VNominal) / (iMax - iMin).
//
// impedancePct then scales it: 1.0 reproduces the 100% column of Table 2
// (the network meets spec), 2.0 the cheaper 200% network, and so on.
// Note the resonant worst case stays comfortably inside the band at 100%
// (the square wave's fundamental carries 4/pi of half the swing), which is
// why Table 2's leftmost column has zero emergencies by definition while
// the 200% network is where the stressmark begins to break through.
func Calibrate(p Params, iMin, iMax, impedancePct float64) (*Network, error) {
	p = p.WithDefaults()
	if iMax <= iMin {
		return nil, fmt.Errorf("pdn: iMax (%g) must exceed iMin (%g)", iMax, iMin)
	}
	if impedancePct <= 0 {
		return nil, fmt.Errorf("pdn: impedancePct must be positive (got %g)", impedancePct)
	}
	zTarget := p.Tolerance * p.VNominal / (iMax - iMin)
	p.PeakZ = zTarget * impedancePct
	telemetry.Default().Counter("pdn.calibrations_total").Inc()
	if p.PeakZ <= p.DCResistance {
		return nil, fmt.Errorf("pdn: target impedance %.3gmΩ does not exceed DC resistance %.3gmΩ; reduce DCResistance or the current envelope", p.PeakZ*1e3, p.DCResistance*1e3)
	}
	return New(p)
}

// Params returns the parameters the network was built with (PeakZ reflects
// any calibration).
func (n *Network) Params() Params { return n.params }

// System exposes the underlying second-order model.
func (n *Network) System() *linsys.SecondOrder { return n.sys }

// KernelLen reports the truncated impulse-response length in cycles.
func (n *Network) KernelLen() int { return len(n.kernel) }

// ResonantPeriodCycles returns the resonant period expressed in CPU cycles,
// rounded to the nearest integer (60 for the paper's defaults).
func (n *Network) ResonantPeriodCycles() int {
	return int(math.Round(n.params.ClockHz / n.params.ResonantHz))
}

// VMin and VMax return the emergency boundaries.
func (n *Network) VMin() float64 { return n.params.VNominal * (1 - n.params.Tolerance) }
func (n *Network) VMax() float64 { return n.params.VNominal * (1 + n.params.Tolerance) }

// VoltageTrace returns the per-cycle supply voltage for an entire current
// trace (amperes per cycle), starting quiescent; see ConvolveVoltages.
func (n *Network) VoltageTrace(current []float64) []float64 {
	out := make([]float64, len(current))
	n.ConvolveVoltages(out, current)
	return out
}

// ConvolveVoltages writes the supply voltage for an entire current trace
// into dst, which must have length >= len(current). It steps a fresh,
// quiescent Simulator MaxBlock cycles at a time, so every sample is == to
// calling Step on each current in turn. StepBlock stores a block's
// currents in its history before it writes any voltage, so dst may alias
// current.
func (n *Network) ConvolveVoltages(dst, current []float64) {
	s := n.NewSimulator()
	for i := 0; i < len(current); i += MaxBlock {
		j := min(i+MaxBlock, len(current))
		s.StepBlock(current[i:j], dst[i:j])
	}
	s.Release()
}

// WorstCaseDeviation drives the network with a sustained square wave
// between iMin and iMax at the resonant period and returns the maximum
// absolute deviation from nominal once the waveform has built up (it
// simulates long enough for transients to saturate).
func (n *Network) WorstCaseDeviation(iMin, iMax float64) float64 {
	period := n.ResonantPeriodCycles()
	if period < 2 {
		period = 2
	}
	cycles := len(n.kernel) + 20*period
	sim := n.NewSimulator()
	worst := 0.0
	for c := 0; c < cycles; c++ {
		cur := iMin
		if c%period < period/2 {
			cur = iMax
		}
		v := sim.Step(cur)
		if d := math.Abs(v - n.params.VNominal); d > worst {
			worst = d
		}
	}
	return worst
}

// Simulator carries the mutable streaming-convolution state for one run.
// It is not safe for concurrent use; create one per goroutine.
//
// The history is a mirrored ring (see block.go): slot t mod ringLen holds
// the deviation written at cycle t, the ring carries MaxBlock-1 slots of
// slack beyond the kernel length so a block of new samples never
// overwrites a tap an earlier output of the same block still reads, and
// its first MaxBlock-1 slots are repeated past the end so every block's
// window of consecutive samples is one contiguous slice.
//
// Beside the ring it carries the modal recursion's state (modal.go): the
// mode sum, the running max |I - IFloor| that scales its error bound, and
// the cycles since the sum was last re-anchored from the ring.
type Simulator struct {
	net  *Network
	hist []float64 // mirrored ring of past current deviations (I - IFloor)
	pos  int       // slot of the next sample
	n    int       // cycles processed

	sr, si   float64 // modal sum s = sum_{i<L} p^i x[n-i]
	xmax     float64 // running max |I - IFloor|
	since    int     // cycles since s was anchored; >= kernel length forces a re-anchor
	blkFirst int     // ring slot of the last block's first sample
	blkLen   int     // length of the last block
}

// NewSimulator creates a fresh streaming voltage simulator whose history is
// all at IFloor (quiescent, V = VNominal). History buffers are recycled
// across runs via the network's pool; call Release when done with a
// simulator to return its buffer.
func (n *Network) NewSimulator() *Simulator {
	// A quiescent ring's mode sum is exactly zero, so a fresh simulator
	// starts anchored.
	size := mirroredLen(len(n.kernel))
	if h, ok := n.simPool.Get().([]float64); ok && len(h) == size {
		for i := range h {
			h[i] = 0
		}
		return &Simulator{net: n, hist: h}
	}
	return &Simulator{net: n, hist: make([]float64, size)}
}

// Release returns the simulator's history buffer to the network's pool.
// The simulator must not be used afterwards.
func (s *Simulator) Release() {
	if s.hist == nil {
		return
	}
	s.net.simPool.Put(s.hist)
	s.hist = nil
}

// Step advances one CPU cycle with the given load current (amperes) and
// returns the supply voltage at this cycle. It is StepBlock with a block
// of one: the same kernel, so a run stepped cycle by cycle and one stepped
// in blocks produce the same bits.
//
//didt:hotpath
func (s *Simulator) Step(current float64) float64 {
	in := [1]float64{current}
	var out [1]float64
	s.StepBlock(in[:], out[:])
	return out[0]
}

// dotRing returns the convolution sum of the kernel k against the ring
// buffer h walked backwards from idx (the slot holding the newest sample),
// wrapping once at the start. The walk is split into its two contiguous
// halves instead of testing for wrap every tap; the summation order —
// ascending kernel index, i.e. newest sample first — is the bit-exactness
// contract Step, StepBlock and Exact all share.
//
//didt:hotpath
func dotRing(k, h []float64, idx int) float64 {
	acc, i := 0.0, 0
	for ; idx >= 0 && i < len(k); idx-- {
		acc += k[i] * h[idx]
		i++
	}
	for idx = len(h) - 1; i < len(k); idx-- {
		acc += k[i] * h[idx]
		i++
	}
	return acc
}

// Cycles reports how many cycles have been simulated.
func (s *Simulator) Cycles() int { return s.n }

// BatchSimulator advances w independent runs on the same Network, one
// Simulator per lane, so every lane's voltage sequence is bit-identical to
// running that lane alone. Not safe for concurrent use.
type BatchSimulator struct {
	lanes []*Simulator
}

// NewBatchSimulator creates w lanes (at least one), all starting quiescent
// (history at IFloor, V = VNominal).
func (n *Network) NewBatchSimulator(w int) *BatchSimulator {
	lanes := make([]*Simulator, max(w, 1))
	for l := range lanes {
		lanes[l] = n.NewSimulator()
	}
	return &BatchSimulator{lanes: lanes}
}

// Step advances all lanes one CPU cycle: currents[l] is lane l's load
// current and volts[l] receives its supply voltage. Both slices must be at
// least as long as the lane count. Zero allocations.
//
//didt:hotpath
func (b *BatchSimulator) Step(currents, volts []float64) {
	for l, s := range b.lanes {
		volts[l] = s.Step(currents[l])
	}
}

// Reset returns the simulator to the quiescent state.
func (s *Simulator) Reset() {
	for i := range s.hist {
		s.hist[i] = 0
	}
	s.pos = 0
	s.n = 0
	s.sr, s.si, s.xmax, s.since = 0, 0, 0, 0
}
