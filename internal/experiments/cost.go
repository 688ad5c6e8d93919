package experiments

import (
	"didt/internal/core"
	"didt/internal/isa"
	"didt/internal/stats"
)

// runCost is one run and what it cost against its program's baseline.
type runCost struct {
	*core.Result
	PerfPct   float64 // cycles over the baseline's, in percent
	EnergyPct float64 // energy over the baseline's, in percent
}

// costOver measures res against base: the paper's performance loss and
// energy increase (Section 5), each in percent.
func costOver(res, base *core.Result) runCost {
	return runCost{
		Result:    res,
		PerfPct:   100 * (float64(res.Cycles)/float64(base.Cycles) - 1),
		EnergyPct: 100 * (res.Energy/base.Energy - 1),
	}
}

// controlledCosts measures what control costs on each named program at
// 200% impedance. It sweeps every program's uncontrolledFullJob baseline,
// then the len(points) × len(progs) grid of runs job describes, flattened
// point-major — result p*len(progs)+i is point p on program i — so a
// per-point aggregate reads its runs in submission order. Each run is
// costed against its own program's baseline. Every job, baseline or grid,
// looks its program up by name through cfg.program, as the studies always
// have: the program caches' hit counts that cachestats pins count these
// lookups.
func controlledCosts[P any](cfg Config, progs []string, points []P, job func(P, isa.Program) runJob) ([]runCost, error) {
	baseJobs := make([]runJob, len(progs))
	for i, name := range progs {
		prog, err := cfg.program(name)
		if err != nil {
			return nil, err
		}
		baseJobs[i] = cfg.uncontrolledFullJob(prog, 2)
	}
	bases, err := sweep(cfg, baseJobs, runKeyed)
	if err != nil {
		return nil, err
	}
	jobs := make([]runJob, len(points)*len(progs))
	for j := range jobs {
		prog, err := cfg.program(progs[j%len(progs)])
		if err != nil {
			return nil, err
		}
		jobs[j] = job(points[j/len(progs)], prog)
	}
	results, err := sweep(cfg, jobs, runKeyed)
	if err != nil {
		return nil, err
	}
	costs := make([]runCost, len(results))
	for j, res := range results {
		costs[j] = costOver(res, bases[j%len(progs)])
	}
	return costs, nil
}

// specMeans averages one point's runs over the workloads, in order: the
// mean performance loss and energy increase, the total emergency count,
// and whether every run's solver found stable thresholds.
func specMeans(runs []runCost) (perf, energy float64, emergencies uint64, stable bool) {
	perfs := make([]float64, len(runs))
	energies := make([]float64, len(runs))
	stable = true
	for i, r := range runs {
		perfs[i], energies[i] = r.PerfPct, r.EnergyPct
		emergencies += r.Emergencies
		stable = stable && r.Thresholds.Stable
	}
	return stats.Mean(perfs), stats.Mean(energies), emergencies, stable
}
