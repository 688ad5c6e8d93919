package experiments

import (
	"fmt"
	"io"

	"didt/internal/actuator"
	"didt/internal/isa"
	"didt/internal/report"
)

// ActuationPoint is one (mechanism, delay) evaluation over the challenging
// benchmarks.
type ActuationPoint struct {
	Mechanism       string
	Delay           int
	SpecPerfLossPct float64
	SpecEnergyPct   float64
	SpecEmergencies uint64
	SolverStable    bool
}

// ActuationStudy sweeps the three actuation granularities of Section 5
// across controller delays.
type ActuationStudy struct {
	Points []ActuationPoint
}

func actuationStudy(cfg Config) (*ActuationStudy, error) {
	cfg = cfg.withDefaults()
	return memoized("actuation", cfg, func() (*ActuationStudy, error) {
		benches := cfg.challenging()
		grid := mechanismDelays()
		runs, err := controlledCosts(cfg, benches, grid, func(pt mechanismDelay, prog isa.Program) runJob {
			return cfg.controlledJob(prog, 2, pt.mech.Name, pt.delay, 0)
		})
		if err != nil {
			return nil, err
		}
		st := &ActuationStudy{}
		for p, pt := range grid {
			perf, energy, emerg, stable := specMeans(runs[p*len(benches) : (p+1)*len(benches)])
			st.Points = append(st.Points, ActuationPoint{
				Mechanism:       pt.mech.Name,
				Delay:           pt.delay,
				SpecPerfLossPct: perf,
				SpecEnergyPct:   energy,
				SpecEmergencies: emerg,
				SolverStable:    stable,
			})
		}
		return st, nil
	})
}

// mechanismDelay is one point of the Section 5 actuation grid.
type mechanismDelay struct {
	mech  actuator.Mechanism
	delay int
}

// mechanismDelays lists the actuation grid mechanism-major: every
// granularity at controller delays 0-5.
func mechanismDelays() []mechanismDelay {
	var out []mechanismDelay
	for _, m := range actuator.Granularities() {
		for d := 0; d < 6; d++ {
			out = append(out, mechanismDelay{m, d})
		}
	}
	return out
}

func (st *ActuationStudy) series(metric func(ActuationPoint) float64) map[string][]float64 {
	out := map[string][]float64{}
	for _, p := range st.Points {
		out[p.Mechanism] = append(out[p.Mechanism], metric(p))
	}
	return out
}

func renderActuation(cfg Config, w io.Writer, title, unit string,
	metric func(ActuationPoint) float64, notes []string) error {
	st, err := actuationStudy(cfg)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   title,
		Headers: []string{"mechanism", "delay", unit, "emergencies", "solver stable"},
	}
	for _, p := range st.Points {
		t.AddRow(p.Mechanism, fmt.Sprintf("%d", p.Delay),
			fmt.Sprintf("%.2f", metric(p)),
			fmt.Sprintf("%d", p.SpecEmergencies),
			fmt.Sprintf("%v", p.SolverStable))
	}
	t.Notes = notes
	t.Render(w)
	var series []report.Series
	for _, m := range actuator.Granularities() {
		series = append(series, report.Series{Name: m.Name, Data: st.series(metric)[m.Name]})
	}
	(&report.LinePlot{
		Title:  title + " (vs delay 0..5)",
		YLabel: unit,
		Series: series,
		Height: 12,
	}).Render(w)
	return nil
}

func renderFig17(cfg Config, w io.Writer) error {
	return renderActuation(cfg, w,
		"Figure 17: impact of guarded actuator delay on performance (SPEC challenging set, 200% impedance)",
		"perf loss (%)",
		func(p ActuationPoint) float64 { return p.SpecPerfLossPct },
		[]string{
			"FU-only control lacks the leverage to reshape voltage quickly: the rest of the chip keeps drawing current while the pipelines gate",
			"FU/DL1 and FU/DL1/IL1 keep performance loss small across delays",
		})
}

func renderFig18(cfg Config, w io.Writer) error {
	return renderActuation(cfg, w,
		"Figure 18: impact of guarded actuator delay on energy (SPEC challenging set, 200% impedance)",
		"energy increase (%)",
		func(p ActuationPoint) float64 { return p.SpecEnergyPct },
		[]string{"energy overhead stays small for SPEC; it grows with controller delay"})
}

// ----------------------------------------------- Section 5.2/5.3 stressmark

// StressActuationPoint is one (mechanism, delay) stressmark evaluation.
type StressActuationPoint struct {
	Mechanism   string
	Delay       int
	PerfLossPct float64
	EnergyPct   float64
	Emergencies uint64
	Stable      bool
}

// StressmarkActuationStudy reproduces the Section 5.2/5.3 stressmark
// numbers: bounded but significant performance/energy cost under real
// actuators.
type StressmarkActuationStudy struct {
	Points []StressActuationPoint
}

func stressmarkActuation(cfg Config) (*StressmarkActuationStudy, error) {
	cfg = cfg.withDefaults()
	return memoized("stressmark-actuation", cfg, func() (*StressmarkActuationStudy, error) {
		grid := mechanismDelays()
		runs, err := controlledCosts(cfg, []string{"stressmark"}, grid, func(pt mechanismDelay, prog isa.Program) runJob {
			return cfg.controlledJob(prog, 2, pt.mech.Name, pt.delay, 0)
		})
		if err != nil {
			return nil, err
		}
		points := make([]StressActuationPoint, len(runs))
		for j, r := range runs {
			points[j] = StressActuationPoint{
				Mechanism:   grid[j].mech.Name,
				Delay:       grid[j].delay,
				PerfLossPct: r.PerfPct,
				EnergyPct:   r.EnergyPct,
				Emergencies: r.Emergencies,
				Stable:      r.Thresholds.Stable,
			}
		}
		return &StressmarkActuationStudy{Points: points}, nil
	})
}

func renderStressmarkActuation(cfg Config, w io.Writer) error {
	st, err := stressmarkActuation(cfg)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   "Section 5.2/5.3: stressmark under real actuators (200% impedance)",
		Headers: []string{"mechanism", "delay", "perf loss (%)", "energy increase (%)", "emergencies", "solver stable"},
	}
	for _, p := range st.Points {
		t.AddRow(p.Mechanism, fmt.Sprintf("%d", p.Delay),
			fmt.Sprintf("%.2f", p.PerfLossPct),
			fmt.Sprintf("%.2f", p.EnergyPct),
			fmt.Sprintf("%d", p.Emergencies),
			fmt.Sprintf("%v", p.Stable))
	}
	t.Notes = append(t.Notes,
		"the near-worst-case stressmark pays tens of percent at large delays — acceptable for an unlikely scenario",
		"voltage protection holds wherever the solver reports stable thresholds")
	t.Render(w)
	return nil
}
