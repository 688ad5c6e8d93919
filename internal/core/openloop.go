package core

import (
	"fmt"

	"didt/internal/cpu"
	"didt/internal/pdn"
	"didt/internal/sim"
	"didt/internal/telemetry"
)

// machineRun is the voltage-independent half of an open-loop run: the full
// per-cycle current trace plus the machine's end-of-run aggregates.
// Immutable once cached — the currents slice is shared across every run
// that reuses it and must never be written.
type machineRun struct {
	currents []float64
	stats    cpu.Stats
	energy   float64
	cycles   uint64
}

// machineKey identifies one machine trace: the program plus everything
// that shapes machine evolution on the open-loop path (CPU and power
// configuration, cycle budget). Warmup is excluded — it gates statistics,
// not stepping — and the PDN is excluded by construction: the open-loop
// machine never sees the voltage, which is exactly what lets table2 re-use
// one trace across its four impedance points.
type machineKey struct {
	prog      string
	cpu       string
	power     string
	maxCycles uint64
}

// traceCache memoizes machine traces across open-loop runs keyed by
// Options.ProgKey. Entries are a few hundred KB to a few MB each (8 bytes
// per simulated cycle), so the default capacity is deliberately small —
// 16 covers a full characterization sweep's distinct (program, machine,
// budget) combinations without letting a long-lived server hold more
// than ~100 MB of traces.
var traceCache = sim.NewCache[machineKey, *machineRun](16)

func init() {
	traceCache.RegisterMetrics(telemetry.Default(), "cache.core_trace")
	sim.RegisterCache("core_trace", 16, traceCache)
}

// TraceCacheStats reports the machine-trace cache's effectiveness.
func TraceCacheStats() sim.CacheStats { return traceCache.Stats() }

// ResetTraceCache empties the machine-trace cache (benchmarks use it to
// measure cold-start cost).
func ResetTraceCache() { traceCache.Reset() }

// machineTrace returns this run's machine evolution from the trace cache,
// stepping this system's own machine on a miss. Only runs with a ProgKey
// replay (see replays), so every trace stepped here can be reused.
func (s *System) machineTrace() (*machineRun, error) {
	key := machineKey{
		prog:      s.opts.ProgKey,
		cpu:       sim.Fingerprint(s.spec.CPU),
		power:     sim.Fingerprint(s.spec.Power),
		maxCycles: s.spec.Budget.MaxCycles,
	}
	return traceCache.Get(key, func() (*machineRun, error) {
		return s.stepMachine()
	})
}

// stepMachine runs the machine half to completion with quiescent control
// state (zero gating, zero phantom — the open-loop invariant), mirroring
// Run's loop structure exactly: step, count, stop on completion or budget.
func (s *System) stepMachine() (*machineRun, error) {
	mr := &machineRun{currents: make([]float64, 0, s.spec.Budget.MaxCycles)}
	var act cpu.Activity
	for mr.cycles < s.spec.Budget.MaxCycles {
		current, done := s.machineStep(&act)
		mr.currents = append(mr.currents, current)
		mr.cycles++
		if done {
			break
		}
	}
	if err := s.CPU.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	mr.stats = s.CPU.Stats()
	mr.energy = s.Power.TotalEnergy()
	return mr, nil
}

// replay is the keyed open-loop run: the cached machine trace, then its
// currents through the block driver's PDN half, pdn.MaxBlock cycles per
// pass, in cycle order. settle only reads the currents, so the cached
// trace stays intact, and its voltages and ingest are the streaming
// path's own: the result is == to stepping the same system.
func (s *System) replay() (*Result, error) {
	mr, err := s.machineTrace()
	if err != nil {
		return nil, err
	}
	exact := s.opts.RecordTraces
	cur := mr.currents
	for c := 0; c < len(cur); c += pdn.MaxBlock {
		s.settle(uint64(c), cur[c:min(c+pdn.MaxBlock, len(cur))], exact)
	}
	s.cycle = mr.cycles
	return s.finish(mr.stats, mr.energy), nil
}

// RunBatch runs the given freshly built systems and returns their results
// in input order: exactly what calling Run on each would return. Every
// system runs on its own block driver, whose PDN recursion costs O(1) per
// cycle, so there is no lockstep kernel left to share.
func RunBatch(systems []*System) ([]*Result, error) {
	results := make([]*Result, len(systems))
	for i, s := range systems {
		r, err := s.Run()
		if err != nil {
			return nil, fmt.Errorf("core: lane %d: %w", i, err)
		}
		results[i] = r
	}
	return results, nil
}
