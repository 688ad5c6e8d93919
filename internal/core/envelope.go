package core

import (
	"sort"

	"didt/internal/cpu"
	"didt/internal/isa"
	"didt/internal/power"
	"didt/internal/sim"
)

// envelope is a measured current envelope in amperes. The per-scope
// breakdown (same probe, same window, same percentile) feeds scoped-rail
// calibration; whole-chip iMin/iMax are computed exactly as they always
// were, so whole-chip rails see bit-identical envelopes.
type envelope struct {
	iMin, iMax float64
	scopeMin   [power.NumScopes]float64
	scopeMax   [power.NumScopes]float64
}

// envelopeKey identifies one envelope measurement by the fingerprints of
// the as-given CPU and power sections — the same sub-hashes those sections
// contribute to spec.RunSpec.Key. Keying on the pre-resolution sections
// (rather than their resolved forms) preserves the cache's historical
// entry structure: sparse and explicit spellings of the same configuration
// stay distinct entries, exactly as they did when the raw structs were the
// key.
type envelopeKey struct {
	cpu   string
	power string
}

// envelopeCache memoizes the saturation-probe measurement: every NewSystem
// without an explicit envelope runs the same ~28k-cycle probe, and a sweep
// builds hundreds of systems from the same configuration. The probe is
// deterministic in its inputs, so cached and fresh envelopes are
// identical.
var envelopeCache = sim.Register("core_envelope", sim.NewCache[envelopeKey, envelope](256))

// EnvelopeCacheStats reports the saturation-probe envelope cache's
// effectiveness.
func EnvelopeCacheStats() sim.CacheStats { return envelopeCache.Stats() }

// ResetEnvelopeCache empties the shared envelope cache (benchmarks use it
// to measure cold-start cost).
func ResetEnvelopeCache() { envelopeCache.Reset() }

// probeEnvelope determines the processor's current envelope the way the
// paper's Figure 13 flow does ("examine the processor power model to find
// minimum and maximum power values"): the minimum is the all-idle
// conditional-clock-gated floor, and the maximum is measured by running a
// saturating probe loop through the cycle simulator and power model and
// taking a high percentile of its per-cycle current. A sum-of-unit-peaks
// maximum would be unreachable — the 8-wide issue stage cannot light every
// unit at once — and calibrating the target impedance against an
// unreachable envelope would make every real workload look artificially
// tame (and every threshold artificially loose). The same probe also
// yields the per-delivery-scope envelopes scoped rails are calibrated
// against.
func probeEnvelope(cfg cpu.Config, pp power.Params) (envelope, error) {
	key := envelopeKey{cpu: sim.Fingerprint(cfg), power: sim.Fingerprint(pp)}
	return envelopeCache.Get(key, func() (envelope, error) {
		return measureEnvelopeUncached(cfg, pp)
	})
}

func measureEnvelopeUncached(cfg cpu.Config, pp power.Params) (envelope, error) {
	probe := saturationProbe()
	c, err := cpu.New(cfg, probe)
	if err != nil {
		return envelope{}, err
	}
	pm := power.New(pp, c.Config())
	// The probe's code footprint must first stream in from cold memory
	// (~300 cycles per line), so the measurement window sits well past the
	// warm-up transient.
	const (
		warmup = 20000
		window = 8000
	)
	samples := make([]float64, 0, window)
	var scopeSamples [power.NumScopes][]float64
	for sc := range scopeSamples {
		scopeSamples[sc] = make([]float64, 0, window)
	}
	scopeCur := make([]float64, power.NumScopes)
	var act cpu.Activity
	var rep power.CycleReport
	for i := 0; i < warmup+window; i++ {
		done := c.StepInto(&act)
		pm.StepInto(&act, power.Phantom{}, &rep)
		if i >= warmup {
			samples = append(samples, rep.Current)
			pm.ScopeCurrents(&rep, scopeCur)
			for sc := range scopeSamples {
				scopeSamples[sc] = append(scopeSamples[sc], scopeCur[sc])
			}
		}
		if done {
			break
		}
		if i < warmup-1 {
			// The warm-up records nothing, so its dead cycles are skipped.
			i += int(skipDead(c, pm, &rep, power.Phantom{}, uint64(warmup-1-i)))
		}
	}
	// The whole-chip envelope is computed exactly as before the scoped
	// breakdown existed (same samples, same sort, same percentile) — the
	// memoized value single-rail calibration consumes is bit-identical.
	sort.Float64s(samples)
	env := envelope{iMin: pm.MinCurrent(power.AllScopes), iMax: samples[len(samples)*98/100]}
	for sc := range scopeSamples {
		sort.Float64s(scopeSamples[sc])
		env.scopeMax[sc] = scopeSamples[sc][len(scopeSamples[sc])*98/100]
		env.scopeMin[sc] = pm.MinCurrent(power.Scope(sc).Mask())
	}
	return env, nil
}

// saturationProbe builds an endless-enough loop of independent, cache-warm,
// perfectly-predicted work mixed across every unit class, the steady-state
// hottest program the machine can run.
func saturationProbe() isa.Program {
	b := isa.NewBuilder()
	b.LdI(1, 1<<14) // warm data region
	b.LdI(9, 4000)  // iterations (far more than the measurement window)
	b.FLdI(2, 1.25)
	b.FLdI(3, 0.75)
	b.Label("loop")
	for i := 0; i < 48; i++ {
		d1 := uint8(10 + i%8)
		d2 := uint8(18 + i%8)
		b.Add(d1, 1, d2)
		b.Xor(d2, 1, d1)
		if i%2 == 0 {
			b.St(1, 1, int64(8*(i%32)))
		} else {
			b.Ld(uint8(26), 1, int64(8*(i%32)))
		}
		b.FAdd(uint8(10+i%8), 2, 3)
		if i%2 == 1 {
			b.FMul(uint8(18+i%4), 2, 3)
		}
		if i%8 == 0 {
			b.Mul(27, 1, d1)
		}
	}
	b.AddI(9, 9, -1)
	b.BneZ(9, "loop")
	b.Halt()
	return b.MustBuild()
}
