package experiments

import (
	"fmt"
	"io"

	"didt/internal/cpu"
	"didt/internal/report"
)

// WindowPoint measures one instruction-window size.
type WindowPoint struct {
	RUUSize     int
	IPC         float64
	MaxDevMV    float64
	Emergencies uint64
}

// windowAblation sweeps the out-of-order window size — a knob the paper's
// framing (Section 3: "natural variances in ILP") implies but never
// isolates. For resonance-tuned code the measurement shows the deep window
// amplifying the swing (the dependence-released burst issues at full
// width), while small windows throttle the burst and shave it.
func windowAblation(cfg Config) ([]WindowPoint, error) {
	cfg = cfg.withDefaults()
	return memoized("ablation-window", cfg, func() ([]WindowPoint, error) {
		prog := cfg.stressProgram()
		ruus := []int{32, 64, 128, 256}
		jobs := make([]runJob, len(ruus))
		for i, ruu := range ruus {
			opts := cfg.baseOptions(2)
			opts.Spec.CPU = cpu.Config{RUUSize: ruu, LSQSize: ruu / 2}
			jobs[i] = runJob{prog: prog, opts: opts}
		}
		results, err := sweep(cfg, jobs, runKeyed)
		if err != nil {
			return nil, err
		}
		points := make([]WindowPoint, len(ruus))
		for i, res := range results {
			points[i] = WindowPoint{
				RUUSize:     ruus[i],
				IPC:         res.IPC(),
				MaxDevMV:    res.MaxDeviation() * 1e3,
				Emergencies: res.Emergencies,
			}
		}
		return points, nil
	})
}

func renderWindowAblation(cfg Config, w io.Writer) error {
	pts, err := windowAblation(cfg)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   "Ablation: out-of-order window size vs dI/dt severity (stressmark, 200% impedance)",
		Headers: []string{"RUU size", "IPC", "max deviation (mV)", "emergencies"},
	}
	for _, p := range pts {
		t.AddRow(fmt.Sprintf("%d", p.RUUSize), fmt.Sprintf("%.2f", p.IPC),
			fmt.Sprintf("%.1f", p.MaxDevMV), fmt.Sprintf("%d", p.Emergencies))
	}
	t.Notes = append(t.Notes,
		"for resonance-tuned code the deep window is an amplifier, not a filter: it lets the dependence-released burst issue at full width, so the Table 1 machine's 256-entry window is itself part of why the stressmark bites",
		"small windows throttle the burst (lower IPC) and shave the swing — performance features and dI/dt severity travel together, the paper's opening theme")
	t.Render(w)
	return nil
}
