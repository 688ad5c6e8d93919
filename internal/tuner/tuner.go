// Package tuner automates the stressmark's loop-shape search on a concrete
// system configuration. It lives above both workload (which only generates
// programs) and core (which only runs them), so the generator layer stays
// free of simulation dependencies.
package tuner

import (
	"didt/internal/core"
	"didt/internal/workload"
)

// TuneResult reports one stressmark tuning evaluation.
type TuneResult struct {
	Params        workload.StressmarkParams
	MaxDeviation  float64 // volts from nominal, worse side
	CyclesPerIter float64
	Emergencies   uint64
}

// TuneStressmark sweeps the stressmark's loop-shape parameters on the given
// system configuration and returns the evaluations sorted as encountered,
// with Best holding the deepest-swing configuration. This automates the
// paper's hand-tuning of Section 3.2 ("adding instructions ... can affect
// the loop timing and move it off the resonant frequency").
func TuneStressmark(opts core.Options) (best TuneResult, all []TuneResult, err error) {
	const iters = 1200
	opts.RecordTraces = false
	if opts.Spec.Budget.MaxCycles == 0 || opts.Spec.Budget.MaxCycles > 400000 {
		opts.Spec.Budget.MaxCycles = 400000
	}
	for _, divs := range []int{2, 3, 4} {
		for _, alu := range []int{40, 60, 80, 100, 120} {
			for _, st := range []int{24, 40, 56} {
				p := workload.StressmarkParams{
					Iterations:  iters,
					ChainedDivs: divs,
					BurstALU:    alu,
					BurstStores: st,
				}
				sys, err := core.NewSystem(workload.Stressmark(p), opts)
				if err != nil {
					return TuneResult{}, nil, err
				}
				res, err := sys.Run()
				if err != nil {
					return TuneResult{}, nil, err
				}
				r := TuneResult{
					Params:        p,
					MaxDeviation:  res.MaxDeviation(),
					CyclesPerIter: float64(res.Cycles) / float64(iters),
					Emergencies:   res.Emergencies,
				}
				all = append(all, r)
				if r.MaxDeviation > best.MaxDeviation {
					best = r
				}
			}
		}
	}
	return best, all, nil
}
