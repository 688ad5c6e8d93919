package experiments

import (
	"fmt"
	"io"

	"didt/internal/actuator"
	"didt/internal/control"
	"didt/internal/core"
	"didt/internal/isa"
	"didt/internal/pdn"
	"didt/internal/power"
	"didt/internal/report"
	"didt/internal/stats"
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
		pm := power.New(power.Params{}, defaultCPUConfig())
		// The envelope comes from the same probe measurement the coupled
		// system uses.
		sys, err := core.NewSystem(cfg.stressProgram(), cfg.baseOptions(2))
		if err != nil {
			return nil, err
		}
		iMin, iMax := sys.Envelope()
		net, err := pdn.Calibrate(pdn.Params{IFloor: 0.5 * (iMin + iMax)}, iMin, iMax, 2)
		if err != nil {
			return nil, err
		}
		solver := control.NewSolver(net)
		floor, ceil := actuator.Ideal.Envelope(pm)
		r := &Table3Result{ImpedancePct: 2}
		for d := 0; d <= 6; d++ {
			th, err := solver.Solve(control.Envelope{
				IMin: iMin, IMax: iMax, Floor: floor, Ceil: ceil, Settle: 2,
			}, d)
			if err != nil {
				return nil, err
			}
			r.Rows = append(r.Rows, Table3Row{Delay: d, Thresholds: th})
		}
		return r, nil
	})
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

func renderTable3(cfg Config, w io.Writer) error {
	r, err := Table3(cfg)
	if err != nil {
		return err
	}
	r.Render(w)
	return nil
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
		// Workload index len(benches) is the stressmark throughout.
		workloads := len(benches) + 1
		program := func(i int) (isa.Program, error) {
			if i == len(benches) {
				return cfg.stressProgram(), nil
			}
			return cfg.benchProgram(benches[i])
		}

		baseJobs := make([]runJob, workloads)
		for i := range baseJobs {
			prog, err := program(i)
			if err != nil {
				return nil, err
			}
			baseJobs[i] = cfg.uncontrolledFullJob(prog, 2)
		}
		type base struct{ cycles, energy float64 }
		baseRes, err := sweep(cfg, baseJobs, runKeyed)
		if err != nil {
			return nil, err
		}
		bases := make([]base, workloads)
		for i, res := range baseRes {
			bases[i] = base{float64(res.Cycles), res.Energy}
		}

		// One controlled run per (delay, workload); the flattened grid
		// keeps results in (delay-major, bench-order) submission order so
		// the per-delay means sum in exactly the serial order.
		const delays = 7
		type outcome struct {
			perfPct, energyPct float64
			emergencies        uint64
		}
		jobs := make([]runJob, delays*workloads)
		for j := range jobs {
			d, i := j/workloads, j%workloads
			prog, err := program(i)
			if err != nil {
				return nil, err
			}
			jobs[j] = cfg.controlledJob(prog, 2, actuator.Ideal, d, 0)
		}
		gridRes, err := sweep(cfg, jobs, runKeyed)
		if err != nil {
			return nil, err
		}
		runs := make([]outcome, len(gridRes))
		for j, res := range gridRes {
			b := bases[j%workloads]
			runs[j] = outcome{
				perfPct:     100 * (float64(res.Cycles)/b.cycles - 1),
				energyPct:   100 * (res.Energy/b.energy - 1),
				emergencies: res.Emergencies,
			}
		}

		st := &SensorDelayStudy{}
		for d := 0; d < delays; d++ {
			var perf, energy []float64
			var emerg uint64
			for i := 0; i < len(benches); i++ {
				o := runs[d*workloads+i]
				perf = append(perf, o.perfPct)
				energy = append(energy, o.energyPct)
				emerg += o.emergencies
			}
			stress := runs[d*workloads+len(benches)]
			st.Points = append(st.Points, DelayPoint{
				Delay:           d,
				SpecPerfLossPct: stats.Mean(perf),
				SpecEnergyPct:   stats.Mean(energy),
				StressPerfPct:   stress.perfPct,
				StressEnergyPct: stress.energyPct,
				SpecEmergencies: emerg,
				StressEmerg:     stress.emergencies,
			})
		}
		return st, nil
	})
}

func renderFig14(cfg Config, w io.Writer) error {
	st, err := sensorDelayStudy(cfg)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   "Figure 14: impact of sensor delay on performance (ideal actuator, 200% impedance)",
		Headers: []string{"delay", "SPEC mean perf loss (%)", "stressmark perf loss (%)"},
	}
	var spec, stress []float64
	for _, p := range st.Points {
		t.AddRow(fmt.Sprintf("%d", p.Delay), fmt.Sprintf("%.2f", p.SpecPerfLossPct), fmt.Sprintf("%.2f", p.StressPerfPct))
		spec = append(spec, p.SpecPerfLossPct)
		stress = append(stress, p.StressPerfPct)
	}
	t.Notes = append(t.Notes, "SPEC is largely unaffected; the near-worst-case stressmark pays significantly more as sensing slows")
	t.Render(w)
	(&report.LinePlot{
		Title:  "Figure 14 (perf loss vs sensor delay)",
		YLabel: "% slowdown",
		Series: []report.Series{{Name: "SPEC mean", Data: spec}, {Name: "stressmark", Data: stress}},
		Height: 12,
	}).Render(w)
	return nil
}

func renderFig15(cfg Config, w io.Writer) error {
	st, err := sensorDelayStudy(cfg)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   "Figure 15: impact of sensor delay on energy (ideal actuator, 200% impedance)",
		Headers: []string{"delay", "SPEC mean energy increase (%)", "stressmark energy increase (%)"},
	}
	var spec, stress []float64
	for _, p := range st.Points {
		t.AddRow(fmt.Sprintf("%d", p.Delay), fmt.Sprintf("%.2f", p.SpecEnergyPct), fmt.Sprintf("%.2f", p.StressEnergyPct))
		spec = append(spec, p.SpecEnergyPct)
		stress = append(stress, p.StressEnergyPct)
	}
	t.Render(w)
	(&report.LinePlot{
		Title:  "Figure 15 (energy increase vs sensor delay)",
		YLabel: "% energy",
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

		baseJobs := make([]runJob, len(benches))
		for i, name := range benches {
			prog, err := cfg.benchProgram(name)
			if err != nil {
				return nil, err
			}
			baseJobs[i] = cfg.uncontrolledFullJob(prog, 2)
		}
		type base struct{ cycles, energy float64 }
		baseRes, err := sweep(cfg, baseJobs, runKeyed)
		if err != nil {
			return nil, err
		}
		bases := make([]base, len(benches))
		for i, res := range baseRes {
			bases[i] = base{float64(res.Cycles), res.Energy}
		}

		jobs := make([]runJob, len(noises)*len(benches))
		for j := range jobs {
			n, i := j/len(benches), j%len(benches)
			prog, err := cfg.benchProgram(benches[i])
			if err != nil {
				return nil, err
			}
			jobs[j] = cfg.controlledJob(prog, 2, actuator.Ideal, delay, noises[n])
		}
		gridRes, err := sweep(cfg, jobs, runKeyed)
		if err != nil {
			return nil, err
		}
		type outcome struct{ perfPct, energyPct float64 }
		runs := make([]outcome, len(gridRes))
		for j, res := range gridRes {
			b := bases[j%len(benches)]
			runs[j] = outcome{
				perfPct:   100 * (float64(res.Cycles)/b.cycles - 1),
				energyPct: 100 * (res.Energy/b.energy - 1),
			}
		}

		st := &SensorErrorStudy{Delay: delay}
		for n, noise := range noises {
			var perf, energy []float64
			for i := range benches {
				o := runs[n*len(benches)+i]
				perf = append(perf, o.perfPct)
				energy = append(energy, o.energyPct)
			}
			st.Points = append(st.Points, NoisePoint{
				NoiseMV:         noise,
				SpecPerfLossPct: stats.Mean(perf),
				SpecEnergyPct:   stats.Mean(energy),
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
