package workload

import (
	"didt/internal/isa"

	"didt/internal/sim"
)

// Program generation is fully deterministic in its parameters, and the
// experiment sweeps regenerate the same handful of programs hundreds of
// times (every delay/impedance/noise point of a study re-runs the same
// benchmark). These caches memoize the generated isa.Program per profile,
// keyed on the parameter fingerprint — the same sub-hash the workload
// section contributes to spec.RunSpec.Key, so spec-equal runs share one
// program instance. Cached programs are shared across callers —
// isa.Program is read-only after construction (the CPU only ever indexes
// into it), so concurrent simulations can safely execute one instance.
var (
	programCache    = sim.Register("workload_program", sim.NewCache[string, isa.Program](256))
	stressmarkCache = sim.Register("workload_stressmark", sim.NewCache[string, isa.Program](128))
)

// ProgramCacheStats reports the benchmark-program cache's effectiveness.
func ProgramCacheStats() sim.CacheStats { return programCache.Stats() }

// StressmarkCacheStats reports the stressmark-program cache's
// effectiveness.
func StressmarkCacheStats() sim.CacheStats { return stressmarkCache.Stats() }

// ResetProgramCache empties both program caches (benchmarks use it to
// measure cold-start cost).
func ResetProgramCache() {
	programCache.Reset()
	stressmarkCache.Reset()
}

// GenerateCached returns the (shared, read-only) program for a profile,
// generating it at most once per distinct profile. Generation returns no
// error, so the only one the cache can report is a contained panic; it is
// raised again, for the nearest sim.Map to report (or to crash, as an
// uncached Generate would).
func GenerateCached(p Profile) isa.Program {
	return mustProgram(programCache.Get(sim.Fingerprint(p), func() (isa.Program, error) {
		return Generate(p), nil
	}))
}

// StressmarkCached returns the (shared, read-only) stressmark program for
// the given parameters, generating it at most once per distinct parameter
// set. A panic in generation is raised again, as in GenerateCached.
func StressmarkCached(p StressmarkParams) isa.Program {
	return mustProgram(stressmarkCache.Get(sim.Fingerprint(p), func() (isa.Program, error) {
		return Stressmark(p), nil
	}))
}

func mustProgram(prog isa.Program, err error) isa.Program {
	if err != nil {
		panic(err)
	}
	return prog
}
