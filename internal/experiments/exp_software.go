package experiments

import (
	"fmt"
	"io"

	"didt/internal/report"
	"didt/internal/workload"
)

// SoftwarePoint compares one scheduling variant of the stressmark.
type SoftwarePoint struct {
	Variant     string
	Cycles      uint64
	PerfLossPct float64
	MaxDevMV    float64
	Emergencies uint64
}

// softwareStudy reproduces the related-work software mitigation (Toburen's
// dI/dt-aware scheduling, Pant et al.'s gradual power stepping): the same
// burst instructions re-scheduled into short dependence chains so current
// ramps instead of stepping.
func softwareStudy(cfg Config) ([]SoftwarePoint, error) {
	cfg = cfg.withDefaults()
	return memoized("software-scheduling", cfg, func() ([]SoftwarePoint, error) {
		var out []SoftwarePoint
		var baseCycles uint64
		for _, smoothed := range []bool{false, true} {
			prog := workload.Stressmark(workload.StressmarkParams{
				Iterations:    cfg.StressIter,
				SmoothedBurst: smoothed,
			})
			res, err := runKeyed(cfg.uncontrolledFullJob(prog, 2))
			if err != nil {
				return nil, err
			}
			name := "baseline schedule"
			if smoothed {
				name = "dI/dt-aware schedule (chained burst)"
			} else {
				baseCycles = res.Cycles
			}
			dev := res.VNominal - res.MinV
			if up := res.MaxV - res.VNominal; up > dev {
				dev = up
			}
			out = append(out, SoftwarePoint{
				Variant:     name,
				Cycles:      res.Cycles,
				PerfLossPct: 100 * (float64(res.Cycles)/float64(baseCycles) - 1),
				MaxDevMV:    dev * 1e3,
				Emergencies: res.Emergencies,
			})
		}
		return out, nil
	})
}

func renderSoftwareScheduling(cfg Config, w io.Writer) error {
	pts, err := softwareStudy(cfg)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   "Related-work extension: software dI/dt mitigation by instruction scheduling (stressmark, 200% impedance, no controller)",
		Headers: []string{"schedule", "cycles", "perf loss (%)", "max deviation (mV)", "emergencies"},
	}
	for _, p := range pts {
		t.AddRow(p.Variant, fmt.Sprintf("%d", p.Cycles), fmt.Sprintf("%.2f", p.PerfLossPct),
			fmt.Sprintf("%.1f", p.MaxDevMV), fmt.Sprintf("%d", p.Emergencies))
	}
	t.Notes = append(t.Notes,
		"chaining smears the burst's work into the divide stalls: the current swing collapses (and this kernel even speeds up, since the baseline wasted the stall cycles)",
		"the catch the paper identifies: the compiler must know the package's resonant timing and re-schedule every binary, and it cannot guard code it never saw — hardware threshold control is workload-independent")
	t.Render(w)
	return nil
}
