package experiments

import (
	"crypto/sha256"
	"fmt"

	"didt/internal/core"
	"didt/internal/isa"
	"didt/internal/sim"
	"didt/internal/spec"
)

// The experiment suite re-runs behaviorally identical simulations
// constantly: every study's uncontrolled baselines share one spec, the
// "ideal" and "FU/DL1/IL1" mechanisms are the same boolean actuator, and
// fig10's 100%-impedance runs are table2's 100% column. runCache memoizes
// complete runs keyed on the program's content digest plus a
// behavior-canonical spec fingerprint, so each distinct simulation happens
// once per process. Cached Results are shared across studies and must be
// treated as read-only, which every renderer already does.
var runCache = sim.Register("experiments_run", sim.NewCache[runKey, *core.Result](512))

// RunCacheStats reports the shared full-run cache's effectiveness.
func RunCacheStats() sim.CacheStats { return runCache.Stats() }

// ResetRunCache empties the shared full-run cache (benchmarks use it to
// measure cold-start cost).
func ResetRunCache() { runCache.Reset() }

// runJob is one simulation: the program and the run options.
type runJob struct {
	prog isa.Program
	opts core.Options
}

// baseJob describes an uncontrolled run at the study's standard budget.
func (c Config) baseJob(prog isa.Program, pct float64) runJob {
	return runJob{prog: prog, opts: c.baseOptions(pct)}
}

// uncontrolledFullJob describes an uncontrolled run with the controlled
// runs' budget, so that both retire the full program (performance =
// cycles ratio).
func (c Config) uncontrolledFullJob(prog isa.Program, pct float64) runJob {
	j := c.baseJob(prog, pct)
	j.opts.Spec.Budget.MaxCycles = c.Cycles * 4
	return j
}

// controlledJob describes one controlled run. Controlled runs take longer,
// so it keeps uncontrolledFullJob's headroom.
func (c Config) controlledJob(prog isa.Program, pct float64, mech string, delay int, noiseMV float64) runJob {
	j := c.uncontrolledFullJob(prog, pct)
	j.opts.Spec.Control.Enabled = true
	j.opts.Spec.Actuator.Mechanism = mech
	j.opts.Spec.Sensor.DelayCycles = delay
	j.opts.Spec.Sensor.NoiseMV = noiseMV
	return j
}

// cacheableRun reports whether a job's complete Result is safe to memoize:
// it must not want private trace buffers, and must not stream telemetry
// (an enabled tracer observes every cycle; serving such a run from cache
// would silently drop its stream).
func cacheableRun(opts core.Options) bool {
	return !opts.RecordTraces && !opts.Telemetry.Enabled()
}

// canonicalRunSpec maps a spec to a representative of its behavioral
// equivalence class, so spec spellings that cannot produce different
// Results share one cache entry:
//   - with the controller (and ramp baseline) off, the actuator, sensor
//     and seed are dead configuration — gating never engages and the
//     sensor RNG is never drawn;
//   - with control on, the mechanism reduces to the units it gates and
//     the units it fires ("ideal", "FU/DL1/IL1" and "gate ideal, fire
//     FU/DL1/IL1" are the same actuator), and the seed is dead while
//     NoiseMV is zero because the sensor only draws noise when the
//     amplitude is positive.
func canonicalRunSpec(s spec.RunSpec) spec.RunSpec {
	r := s.WithDefaults()
	if !r.Control.Enabled && r.Control.PessimisticRamp == 0 {
		r.Actuator = spec.ActuatorSpec{}
		r.Sensor = spec.SensorSpec{}
		r.Seed = spec.Seed{}
		return r
	}
	if r.Control.Enabled {
		if m, err := r.Mechanism(); err == nil {
			r.Actuator.Mechanism = fmt.Sprintf("gate:%+v fire:%+v", m.Gate, m.Fire)
		}
		if r.Sensor.NoiseMV == 0 {
			r.Seed = spec.Seed{}
		}
	}
	return r
}

// runKey is a job's full behavioral identity: the program's content digest
// and the fingerprint of its canonical spec.
type runKey struct {
	prog [sha256.Size]byte
	spec string
}

// runKeyed executes one job through the run cache when it is cacheable,
// and directly otherwise. Either way the Result is bit-identical to a
// fresh run of the same job.
func runKeyed(j runJob) (*core.Result, error) {
	if !cacheableRun(j.opts) {
		return j.run()
	}
	key := runKey{prog: j.prog.Digest(), spec: sim.Fingerprint(canonicalRunSpec(j.opts.Spec))}
	return runCache.Get(key, j.run)
}

// run executes the job's system, recycling pooled buffers afterwards.
func (j runJob) run() (*core.Result, error) {
	sys, err := core.NewSystem(j.prog, j.opts)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	return sys.Run()
}
