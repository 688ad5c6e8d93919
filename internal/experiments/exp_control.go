package experiments

import (
	"fmt"
	"io"

	"didt/internal/actuator"
	"didt/internal/control"
	"didt/internal/core"
	"didt/internal/cpu"
	"didt/internal/isa"
	"didt/internal/pdn"
	"didt/internal/power"
	"didt/internal/report"
)

// ----------------------------------------------------------------- Table 3

// Table3Row is one sensor-delay point.
type Table3Row struct {
	Delay      int
	Thresholds control.Thresholds
}

// Table3Result reproduces "Voltage thresholds under delay".
type Table3Result struct {
	ImpedancePct float64
	Rows         []Table3Row
}

// Table3 solves thresholds for sensor delays 0-6 at 200% impedance with
// the ideal actuator, the paper's Section 4.3 study.
func Table3(cfg Config) (*Table3Result, error) {
	cfg = cfg.withDefaults()
	return memoized("table3", cfg, func() (*Table3Result, error) {
		solver, env, err := stressSolver(cfg)
		if err != nil {
			return nil, err
		}
		r := &Table3Result{ImpedancePct: 2}
		for d := 0; d <= 6; d++ {
			th, err := solver.Solve(env, d)
			if err != nil {
				return nil, err
			}
			r.Rows = append(r.Rows, Table3Row{Delay: d, Thresholds: th})
		}
		return r, nil
	})
}

// stressSolver builds what the linear-domain studies (Table 3, pid) solve
// against: the stressmark's current envelope at 200% impedance, measured
// by the same probe the coupled system uses, the network calibrated to
// it, and the ideal actuator's authority.
func stressSolver(cfg Config) (*control.Solver, control.Envelope, error) {
	sys, err := core.NewSystem(cfg.stressProgram(), cfg.baseOptions(2))
	if err != nil {
		return nil, control.Envelope{}, err
	}
	defer sys.Close()
	iMin, iMax := sys.Envelope()
	net, err := pdn.Calibrate(pdn.Params{IFloor: 0.5 * (iMin + iMax)}, iMin, iMax, 2)
	if err != nil {
		return nil, control.Envelope{}, err
	}
	floor, ceil := actuator.Ideal.Envelope(power.New(power.Params{}, cpu.DefaultConfig()))
	env := control.Envelope{IMin: iMin, IMax: iMax, Floor: floor, Ceil: ceil, Settle: 2}
	return control.NewSolver(net), env, nil
}

// Render prints the table.
func (r *Table3Result) Render(w io.Writer) {
	t := &report.Table{
		Title:   "Table 3: voltage thresholds under sensor delay (200% impedance, ideal actuator)",
		Headers: []string{"delay (cycles)", "low threshold (V)", "high threshold (V)", "safe window (mV)", "stable"},
	}
	for _, row := range r.Rows {
		if row.Thresholds.Stable {
			t.AddRow(fmt.Sprintf("%d", row.Delay),
				fmt.Sprintf("%.4f", row.Thresholds.Low),
				fmt.Sprintf("%.4f", row.Thresholds.High),
				fmt.Sprintf("%.1f", row.Thresholds.SafeWindow*1e3),
				"yes")
		} else {
			t.AddRow(fmt.Sprintf("%d", row.Delay), "-", "-", "-", "NO")
		}
	}
	t.Notes = append(t.Notes,
		"slower sensing narrows the operating window: the low threshold must rise to leave response time",
		"solved numerically against the worst-case resonant waveform (the paper's MATLAB/Simulink step)")
	t.Render(w)
}

// ------------------------------------------------------- Figures 14 and 15

// DelayPoint is one sensor-delay evaluation.
type DelayPoint struct {
	Delay           int
	SpecPerfLossPct float64 // mean over the challenging benchmarks
	SpecEnergyPct   float64
	StressPerfPct   float64
	StressEnergyPct float64
	SpecEmergencies uint64
	StressEmerg     uint64
}

// SensorDelayStudy sweeps sensor delay 0-6 with the ideal actuator at 200%
// impedance, measuring performance and energy against uncontrolled
// baselines.
type SensorDelayStudy struct {
	Points []DelayPoint
}

func sensorDelayStudy(cfg Config) (*SensorDelayStudy, error) {
	cfg = cfg.withDefaults()
	return memoized("sensor-delay", cfg, func() (*SensorDelayStudy, error) {
		benches := cfg.challenging()
		// The stressmark is the last workload of every delay.
		workloads := append(append([]string{}, benches...), "stressmark")
		const delays = 7
		runs, err := controlledCosts(cfg, workloads, seq(delays), func(d int, prog isa.Program) runJob {
			return cfg.controlledJob(prog, 2, actuator.Ideal.Name, d, 0)
		})
		if err != nil {
			return nil, err
		}
		st := &SensorDelayStudy{}
		for d := 0; d < delays; d++ {
			point := runs[d*len(workloads) : (d+1)*len(workloads)]
			perf, energy, emerg, _ := specMeans(point[:len(benches)])
			stress := point[len(benches)]
			st.Points = append(st.Points, DelayPoint{
				Delay:           d,
				SpecPerfLossPct: perf,
				SpecEnergyPct:   energy,
				StressPerfPct:   stress.PerfPct,
				StressEnergyPct: stress.EnergyPct,
				SpecEmergencies: emerg,
				StressEmerg:     stress.Emergencies,
			})
		}
		return st, nil
	})
}

func renderFig14(cfg Config, w io.Writer) error {
	return renderDelay(cfg, w, "14", "performance", "perf loss", "% slowdown",
		func(p DelayPoint) (float64, float64) { return p.SpecPerfLossPct, p.StressPerfPct },
		"SPEC is largely unaffected; the near-worst-case stressmark pays significantly more as sensing slows")
}

func renderFig15(cfg Config, w io.Writer) error {
	return renderDelay(cfg, w, "15", "energy", "energy increase", "% energy",
		func(p DelayPoint) (float64, float64) { return p.SpecEnergyPct, p.StressEnergyPct })
}

// renderDelay prints one sensor-delay figure: the SPEC mean and the
// stressmark value of one cost, per delay, as a table and a line plot.
func renderDelay(cfg Config, w io.Writer, fig, impact, cost, yLabel string,
	metric func(DelayPoint) (spec, stress float64), notes ...string) error {
	st, err := sensorDelayStudy(cfg)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Figure %s: impact of sensor delay on %s (ideal actuator, 200%% impedance)", fig, impact),
		Headers: []string{"delay", "SPEC mean " + cost + " (%)", "stressmark " + cost + " (%)"},
		Notes:   notes,
	}
	var spec, stress []float64
	for _, p := range st.Points {
		sp, sm := metric(p)
		t.AddRow(fmt.Sprintf("%d", p.Delay), fmt.Sprintf("%.2f", sp), fmt.Sprintf("%.2f", sm))
		spec = append(spec, sp)
		stress = append(stress, sm)
	}
	t.Render(w)
	(&report.LinePlot{
		Title:  fmt.Sprintf("Figure %s (%s vs sensor delay)", fig, cost),
		YLabel: yLabel,
		Series: []report.Series{{Name: "SPEC mean", Data: spec}, {Name: "stressmark", Data: stress}},
		Height: 12,
	}).Render(w)
	return nil
}

// ---------------------------------------------------------------- Figure 16

// NoisePoint is one sensor-error evaluation.
type NoisePoint struct {
	NoiseMV         float64
	SpecPerfLossPct float64
	SpecEnergyPct   float64
}

// SensorErrorStudy sweeps sensor noise at a fixed small delay.
type SensorErrorStudy struct {
	Delay  int
	Points []NoisePoint
}

func sensorErrorStudy(cfg Config) (*SensorErrorStudy, error) {
	cfg = cfg.withDefaults()
	return memoized("sensor-error", cfg, func() (*SensorErrorStudy, error) {
		const delay = 2
		benches := cfg.challenging()
		noises := []float64{0, 10, 15, 20, 25}
		runs, err := controlledCosts(cfg, benches, noises, func(noise float64, prog isa.Program) runJob {
			return cfg.controlledJob(prog, 2, actuator.Ideal.Name, delay, noise)
		})
		if err != nil {
			return nil, err
		}
		st := &SensorErrorStudy{Delay: delay}
		for n, noise := range noises {
			perf, energy, _, _ := specMeans(runs[n*len(benches) : (n+1)*len(benches)])
			st.Points = append(st.Points, NoisePoint{
				NoiseMV:         noise,
				SpecPerfLossPct: perf,
				SpecEnergyPct:   energy,
			})
		}
		return st, nil
	})
}

func renderFig16(cfg Config, w io.Writer) error {
	st, err := sensorErrorStudy(cfg)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Figure 16: impact of sensor error on performance and energy (delay %d, 200%% impedance)", st.Delay),
		Headers: []string{"noise (mV)", "SPEC mean perf loss (%)", "SPEC mean energy increase (%)"},
	}
	var perf, energy []float64
	for _, p := range st.Points {
		t.AddRow(fmt.Sprintf("%.0f", p.NoiseMV), fmt.Sprintf("%.2f", p.SpecPerfLossPct), fmt.Sprintf("%.2f", p.SpecEnergyPct))
		perf = append(perf, p.SpecPerfLossPct)
		energy = append(energy, p.SpecEnergyPct)
	}
	t.Notes = append(t.Notes,
		"thresholds are guard-banded by the noise amplitude, shrinking the operating window",
		"small errors (< 15 mV) are nearly free; larger errors cost performance and energy")
	t.Render(w)
	(&report.LinePlot{
		Title:  "Figure 16 (degradation vs sensor error)",
		YLabel: "%",
		Series: []report.Series{{Name: "perf loss", Data: perf}, {Name: "energy increase", Data: energy}},
		Height: 12,
	}).Render(w)
	return nil
}
