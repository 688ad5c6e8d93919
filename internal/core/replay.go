package core

import (
	"crypto/sha256"
	"fmt"

	"didt/internal/cpu"
	"didt/internal/pdn"
	"didt/internal/power"
	"didt/internal/sim"
)

// traceChunk is the machine trace's allocation unit, in cycles. A trace is
// filled chunk by chunk, each min(traceChunk, budget left) cycles long, so
// a budget-bound run holds exactly its cycles and one that retires early
// wastes less than a chunk. It is a multiple of pdn.MaxBlock, so the
// open-loop replay's blocks never straddle two chunks.
const traceChunk = 32 << 10

// maxTraceCycles caps a machine trace's length: 4Mi cycles, 32 MiB of
// currents. A run whose cycle budget exceeds it neither replays nor
// caches a trace (see replays); it steps, which gives the same result.
const maxTraceCycles = 1 << 22

// machineRun is the voltage-independent half of a run whose control never
// acts: the full per-cycle current trace plus the machine's end-of-run
// aggregates. Immutable once cached — the chunks are shared across every
// run that reuses them and must never be written.
type machineRun struct {
	chunks [][]float64 // per-cycle currents, traceChunk cycles per full chunk
	stats  cpu.Stats
	energy float64
	cycles uint64
}

// at returns cycle c's current.
func (mr *machineRun) at(c uint64) float64 { return mr.chunks[c/traceChunk][c%traceChunk] }

// machineKey identifies one machine trace: the program's content digest
// plus everything that shapes machine evolution while control has not
// acted (CPU and power configuration, cycle budget). Warmup is excluded —
// it gates statistics, not stepping — and so are the PDN and every control
// field: until control first gates, phantom-fires or flushes, the machine
// never sees the voltage or the controller. That is what lets table2
// re-use one trace across its four impedance points, and a controlled run
// replay its open-loop twin's trace up to its first action.
type machineKey struct {
	prog      [sha256.Size]byte
	cpu       string
	power     string
	maxCycles uint64
}

// traceCache memoizes machine traces across runs: open-loop runs fill it,
// and both open-loop and controlled runs replay from it. Entries hold 8
// bytes per simulated cycle, at most maxTraceCycles cycles (32 MiB) — a
// few hundred KB to a few MB for the experiments' runs — so the default
// capacity is deliberately small: 16 covers a full characterization
// sweep's distinct (program, machine, budget) combinations in well under
// 100 MB.
var traceCache = sim.Register("core_trace", sim.NewCache[machineKey, *machineRun](16))

// TraceCacheStats reports the machine-trace cache's effectiveness.
func TraceCacheStats() sim.CacheStats { return traceCache.Stats() }

// ResetTraceCache empties the machine-trace cache (benchmarks use it to
// measure cold-start cost).
func ResetTraceCache() { traceCache.Reset() }

// traceKey is this run's machine-trace key.
func (s *System) traceKey() machineKey {
	return machineKey{
		prog:      s.prog.Digest(),
		cpu:       sim.Fingerprint(s.spec.CPU),
		power:     sim.Fingerprint(s.spec.Power),
		maxCycles: s.spec.Budget.MaxCycles,
	}
}

// machineTrace returns this run's machine evolution from the trace cache,
// stepping this system's own machine on a miss.
func (s *System) machineTrace() (*machineRun, error) {
	return traceCache.Get(s.traceKey(), s.stepMachine)
}

// stepMachine runs the machine half to completion with quiescent control
// state (zero gating, zero phantom — the open-loop invariant), mirroring
// Run's loop structure exactly: step, count, stop on completion or budget.
// After each step it skips the dead cycles that follow, up to the chunk's
// end, each with the step's current.
func (s *System) stepMachine() (*machineRun, error) {
	mr := &machineRun{}
	budget := s.spec.Budget.MaxCycles
	var act cpu.Activity
	for done := false; !done && mr.cycles < budget; {
		chunk := make([]float64, 0, min(traceChunk, budget-mr.cycles))
		for !done && len(chunk) < cap(chunk) {
			var current float64
			current, done = s.machineStep(&act, s.railCur[:1])
			chunk = append(chunk, current)
			n := skipDead(s.CPU, s.Power, &s.rep, power.Phantom{}, uint64(cap(chunk)-len(chunk)))
			for s.skipped += n; n > 0; n-- {
				chunk = append(chunk, current)
			}
		}
		mr.chunks = append(mr.chunks, chunk)
		mr.cycles += uint64(len(chunk))
	}
	if err := s.CPU.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	mr.stats = s.CPU.Stats()
	mr.energy = s.Power.TotalEnergy()
	return mr, nil
}

// replay is the open-loop run: the cached machine trace, then its currents
// through the block driver's PDN half, pdn.MaxBlock cycles per pass, in
// cycle order. settle only reads the currents, so the cached trace stays
// intact, and its voltages and ingest are the streaming path's own: the
// result is == to stepping the same system.
func (s *System) replay() (*Result, error) {
	mr, err := s.machineTrace()
	if err != nil {
		return nil, err
	}
	exact := s.opts.RecordTraces
	first := uint64(0)
	for _, chunk := range mr.chunks {
		for c := 0; c < len(chunk); c += pdn.MaxBlock {
			blk := chunk[c:min(c+pdn.MaxBlock, len(chunk))]
			s.settle(first, blk, blk, exact) // one rail: its current is the chip's
			first += uint64(len(blk))
		}
	}
	s.cycle = mr.cycles
	s.replayed, s.replayCycles = true, mr.cycles
	return s.finish(mr.stats, mr.energy), nil
}

// acted reports whether control has acted: raised a gating or phantom
// episode (a flush needs a new gating episode too). Until it has, every
// gating and phantom decision was zero and no flush was due, so the
// machine has run exactly as it does open loop.
func (s *System) acted() bool { return s.policy.LowEvents+s.policy.HighEvents > 0 }

// replayControlled runs a controlled system on its machine trace mr, in
// stepBlock's block structure — blocks of blockLen cycles, each cycle's
// control half between two trace reads, one settle per block, the last
// cycle's control half after it — so every sensor sample, noise draw and
// policy decision happens exactly as on the stepped path. The machine is
// not stepped: a run whose control never acts finishes with the trace's
// aggregates, and one that acts resumes stepping at that cycle.
func (s *System) replayControlled(mr *machineRun) (*Result, error) {
	s.replayed = true
	n := uint64(s.blockLen())
	exact := s.opts.RecordTraces
	for first := uint64(0); first < mr.cycles; {
		b := int(min(n, mr.cycles-first))
		for j := range b {
			s.cur[j] = mr.at(first + uint64(j))
			s.railCur[j] = s.cur[j] // one rail: its current is the chip's
		}
		for j := 1; j < b; j++ {
			// Cycle first+j-1's control half, j cycles ahead of the
			// sensor's newest sample (voltage first-1). s.acts holds no
			// activity here; only the pessimistic ramp, off on this
			// path, reads it.
			s.control(&s.acts[j-1], j)
			if s.acted() {
				return s.resume(mr, j, int(min(n, s.spec.Budget.MaxCycles-first)))
			}
			s.cycle++
		}
		s.settle(first, s.cur[:b], s.railCur[:b], exact)
		s.control(&s.acts[b-1], 0)
		if s.acted() {
			return s.resume(mr, 0, 0)
		}
		s.cycle++
		first += uint64(b)
	}
	s.replayCycles = mr.cycles
	return s.finish(mr.stats, mr.energy), nil
}

// resume hands a replayed run to its machine after cycle s.cycle's control
// half first acted. It steps the still-unstepped machine through cycles
// 0..s.cycle with zero gating and phantom, as the trace was recorded,
// skipping dead cycles, and fails unless every current equals the
// trace's. A due flush stays due
// for the next machine step. The run then finishes the interrupted block
// from index from (of n cycles), when control acted inside one, and steps
// on; the sensor, PDN, policy and noise state are already those of cycle
// s.cycle, so no cycle is settled twice.
func (s *System) resume(mr *machineRun, from, n int) (*Result, error) {
	s.resumed, s.replayCycles = true, s.cycle+1
	var act cpu.Activity
	done := false
	for c := uint64(0); c <= s.cycle; {
		done = s.CPU.StepInto(&act)
		s.Power.StepInto(&act, power.Phantom{}, &s.rep)
		k := skipDead(s.CPU, s.Power, &s.rep, power.Phantom{}, s.cycle-c)
		s.skipped += k
		for end := c + 1 + k; c < end; c++ {
			if s.rep.Current != mr.at(c) {
				return nil, fmt.Errorf("core: resumed machine left its trace at cycle %d: %v A, trace %v A", c, s.rep.Current, mr.at(c))
			}
		}
	}
	s.cycle++
	if from > 0 {
		done = s.stepBlock(from, n, s.opts.RecordTraces).Done
	}
	if !done {
		s.runLoop()
	}
	return s.stepped()
}
