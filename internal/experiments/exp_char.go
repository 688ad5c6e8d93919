package experiments

import (
	"fmt"
	"io"
	"math"

	"didt/internal/core"
	"didt/internal/pdn"
	"didt/internal/report"
	"didt/internal/sensor"
	"didt/internal/stats"
	"didt/internal/trace"
)

// ---------------------------------------------------------------- Figure 9

// Fig9Result compares the theoretical worst-case waveform against the
// software stressmark.
type Fig9Result struct {
	WorstDeviation  float64 // volts, resonant square wave over the envelope
	StressDeviation float64 // volts, measured stressmark
	Fraction        float64 // stressmark / worst
	WorstTrace      trace.Trace
	StressTrace     trace.Trace // a warm window of the stressmark's voltage
	VMin, VMax      float64
}

// Fig9 runs the stressmark through the full coupled system at 200%
// impedance and compares it to the maximum-height resonant pulse train on
// the same network.
func Fig9(cfg Config) (*Fig9Result, error) {
	cfg = cfg.withDefaults()
	return memoized("fig9", cfg, func() (*Fig9Result, error) {
		j := cfg.baseJob(cfg.stressProgram(), 2)
		j.opts.RecordTraces = true
		res, err := runKeyed(j)
		if err != nil {
			return nil, err
		}
		// The same network driven by the theoretical worst case.
		net, err := pdn.Calibrate(pdn.Params{IFloor: 0.5 * (res.IMin + res.IMax)}, res.IMin, res.IMax, 2)
		if err != nil {
			return nil, err
		}
		period := net.ResonantPeriodCycles()
		n := net.KernelLen() + 20*period
		cur := make(trace.Trace, n)
		for i := range cur {
			cur[i] = res.IMin
			if i%period < period/2 {
				cur[i] = res.IMax
			}
		}
		worstV := net.VoltageTrace(cur)
		worstDev := 0.0
		for _, v := range worstV {
			worstDev = math.Max(worstDev, math.Abs(v-res.VNominal))
		}
		stressDev := res.MaxDeviation()
		r := &Fig9Result{
			WorstDeviation:  worstDev,
			StressDeviation: stressDev,
			Fraction:        stressDev / worstDev,
			VMin:            net.VMin(),
			VMax:            net.VMax(),
		}
		r.WorstTrace = worstV[len(worstV)-4*period:]
		if len(res.VoltageTrace) > 4*period {
			r.StressTrace = res.VoltageTrace[len(res.VoltageTrace)-4*period:]
		} else {
			r.StressTrace = res.VoltageTrace
		}
		return r, nil
	})
}

// Render plots the two waveforms and the headline comparison.
func (r *Fig9Result) Render(w io.Writer) {
	(&report.LinePlot{
		Title:  "Figure 9: maximum-height pulse train at resonance vs dI/dt stressmark (4 periods, 200% impedance)",
		YLabel: "V",
		Series: []report.Series{
			{Name: "worst-case square", Data: r.WorstTrace},
			{Name: "stressmark", Data: r.StressTrace},
		},
		Notes: []string{
			fmt.Sprintf("worst-case deviation %.1f mV; stressmark %.1f mV (%.0f%% of worst case)",
				r.WorstDeviation*1e3, r.StressDeviation*1e3, r.Fraction*100),
			fmt.Sprintf("emergency band [%.3f, %.3f] V: the stressmark is less extreme than the true worst case but severe enough to stress the controller", r.VMin, r.VMax),
		},
	}).Render(w)
}

// ----------------------------------------------------------------- Table 2

// Table2Row is one benchmark's emergency profile across impedances.
type Table2Row struct {
	Name string
	Freq map[int]float64 // impedance pct -> emergency frequency
}

// Table2Result reproduces "Voltage Emergencies on SPEC2000 Benchmarks".
type Table2Result struct {
	Pcts       []int
	Rows       []Table2Row
	Stressmark Table2Row
}

// Table2 sweeps every benchmark across 100-400% of target impedance. The
// (workload, impedance) grid is embarrassingly parallel — every point is
// an independent closed-loop run — so it fans out on the sweep engine.
func Table2(cfg Config) (*Table2Result, error) {
	cfg = cfg.withDefaults()
	return memoized("table2", cfg, func() (*Table2Result, error) {
		r := &Table2Result{Pcts: []int{100, 200, 300, 400}}
		type job struct {
			workload string
			pct      int
		}
		var jobs []job
		names := cfg.benchmarks()
		for _, name := range names {
			for _, pct := range r.Pcts {
				jobs = append(jobs, job{workload: name, pct: pct})
			}
		}
		for _, pct := range r.Pcts {
			jobs = append(jobs, job{workload: "stressmark", pct: pct})
		}
		rjobs := make([]runJob, len(jobs))
		for k, j := range jobs {
			prog, err := cfg.program(j.workload)
			if err != nil {
				return nil, err
			}
			rjobs[k] = cfg.baseJob(prog, float64(j.pct)/100)
		}
		results, err := sweep(cfg, rjobs, runKeyed)
		if err != nil {
			return nil, err
		}
		freqs := make([]float64, len(results))
		for k, res := range results {
			freqs[k] = res.EmergencyFreq
		}
		for i, name := range names {
			row := Table2Row{Name: name, Freq: map[int]float64{}}
			for k, pct := range r.Pcts {
				row.Freq[pct] = freqs[i*len(r.Pcts)+k]
			}
			r.Rows = append(r.Rows, row)
		}
		r.Stressmark = Table2Row{Name: "stressmark", Freq: map[int]float64{}}
		for k, pct := range r.Pcts {
			r.Stressmark.Freq[pct] = freqs[len(names)*len(r.Pcts)+k]
		}
		return r, nil
	})
}

// Summary aggregates the table the way the paper prints it.
func (r *Table2Result) Summary(pct int) (withEmergencies int, avg, max float64) {
	for _, row := range r.Rows {
		f := row.Freq[pct]
		if f > 0 {
			withEmergencies++
		}
		avg += f
		if f > max {
			max = f
		}
	}
	if len(r.Rows) > 0 {
		avg /= float64(len(r.Rows))
	}
	return withEmergencies, avg, max
}

// Render prints the aggregate table plus the per-benchmark detail.
func (r *Table2Result) Render(w io.Writer) {
	t := &report.Table{
		Title:   "Table 2: Voltage emergencies on the synthetic SPEC2000 suite",
		Headers: []string{"", "100%", "200%", "300%", "400%"},
	}
	var nRow, avgRow, maxRow []string
	nRow = append(nRow, "benchmarks w/ emergencies")
	avgRow = append(avgRow, "emergency freq (average)")
	maxRow = append(maxRow, "emergency freq (maximum)")
	for _, pct := range r.Pcts {
		n, avg, max := r.Summary(pct)
		nRow = append(nRow, fmt.Sprintf("%d", n))
		avgRow = append(avgRow, fmtFreq(avg))
		maxRow = append(maxRow, fmtFreq(max))
	}
	t.Rows = append(t.Rows, nRow, avgRow, maxRow)
	stress := []string{"stressmark freq"}
	for _, pct := range r.Pcts {
		stress = append(stress, fmtFreq(r.Stressmark.Freq[pct]))
	}
	t.Rows = append(t.Rows, stress)
	t.Notes = append(t.Notes,
		"emergencies are impossible at 100% by the target-impedance definition",
		"the stressmark breaks through at 200% while the suite stays clean — the paper's design point")
	t.Render(w)

	d := &report.Table{
		Title:   "Table 2 detail: per-benchmark emergency frequency",
		Headers: []string{"benchmark", "100%", "200%", "300%", "400%"},
	}
	for _, row := range r.Rows {
		cells := []string{row.Name}
		for _, pct := range r.Pcts {
			cells = append(cells, fmtFreq(row.Freq[pct]))
		}
		d.AddRow(cells...)
	}
	d.Render(w)
}

func fmtFreq(f float64) string {
	if f == 0 {
		return "0"
	}
	return fmt.Sprintf("%.2g%%", f*100)
}

// ---------------------------------------------------------------- Figure 10

// Fig10Row summarizes one benchmark's voltage distribution at 100%
// impedance.
type Fig10Row struct {
	Name   string
	Hist   *stats.Histogram
	MinV   float64
	MaxV   float64
	Spread float64
}

// Fig10Result is the suite's voltage-distribution characterization.
type Fig10Result struct {
	Rows       []Fig10Row
	Stressmark Fig10Row
}

// Fig10 measures voltage distributions for every benchmark at 100%, one
// independent run per workload, fanned out on the sweep engine.
func Fig10(cfg Config) (*Fig10Result, error) {
	cfg = cfg.withDefaults()
	return memoized("fig10", cfg, func() (*Fig10Result, error) {
		names := append(append([]string{}, cfg.benchmarks()...), "stressmark")
		jobs := make([]runJob, len(names))
		for i, name := range names {
			prog, err := cfg.program(name)
			if err != nil {
				return nil, err
			}
			jobs[i] = cfg.baseJob(prog, 1)
		}
		results, err := sweep(cfg, jobs, runKeyed)
		if err != nil {
			return nil, err
		}
		rows := make([]Fig10Row, len(names))
		for i, res := range results {
			rows[i] = Fig10Row{
				Name: names[i], Hist: res.Hist,
				MinV: res.MinV, MaxV: res.MaxV,
				Spread: res.Hist.Spread(),
			}
		}
		return &Fig10Result{
			Rows:       rows[:len(rows)-1],
			Stressmark: rows[len(rows)-1],
		}, nil
	})
}

// Render prints the distribution summary and a spread chart.
func (r *Fig10Result) Render(w io.Writer) {
	t := &report.Table{
		Title:   "Figure 10: voltage distributions at 100% target impedance",
		Headers: []string{"benchmark", "minV", "mode", "maxV", "spread (mV)"},
	}
	var labels []string
	var spreads []float64
	for _, row := range append(r.Rows, r.Stressmark) {
		t.AddRow(row.Name,
			fmt.Sprintf("%.4f", row.MinV),
			fmt.Sprintf("%.4f", row.Hist.Mode()),
			fmt.Sprintf("%.4f", row.MaxV),
			fmt.Sprintf("%.1f", row.Spread*1e3))
		labels = append(labels, row.Name)
		spreads = append(spreads, row.Spread*1e3)
	}
	t.Notes = append(t.Notes,
		"stable benchmarks (e.g. mcf, ammp-like) cluster tightly; variable ones (galgel, swim) span a wide range",
		"nothing leaves the +-5% band at 100% impedance")
	t.Render(w)
	(&report.BarChart{
		Title:  "Figure 10 summary: voltage spread per benchmark (mV)",
		Unit:   "mV",
		Labels: labels,
		Values: spreads,
	}).Render(w)
}

// ---------------------------------------------------------------- Figure 11

// Fig11Result is a controller-in-action trace segment.
type Fig11Result struct {
	Voltage  trace.Trace
	Gated    []bool
	Low      float64
	High     float64
	VMin     float64
	VMax     float64
	Triggers int
}

// Fig11 captures a window of the stressmark under threshold control.
func Fig11(cfg Config) (*Fig11Result, error) {
	cfg = cfg.withDefaults()
	opts := cfg.baseOptions(2)
	opts.Spec.Control.Enabled = true
	opts.Spec.Sensor.DelayCycles = 2
	opts.TelemetryName = "fig11 stressmark controller"
	sys, err := core.NewSystem(cfg.stressProgram(), opts)
	if err != nil {
		return nil, err
	}
	th := sys.Thresholds()
	r := &Fig11Result{Low: th.Low, High: th.High, VMin: sys.Net.VMin(), VMax: sys.Net.VMax()}
	// Run past warmup, then record a window around controller activity.
	var window []core.CycleState
	for i := uint64(0); i < opts.Spec.Budget.MaxCycles; i++ {
		st := sys.StepCycle()
		if st.Done {
			break
		}
		if i < cfg.Warmup {
			continue
		}
		window = append(window, st)
		if len(window) > 360 {
			window = window[1:]
		}
		if st.Level == sensor.Low && len(window) > 250 {
			// Collect a short tail after the trigger and stop.
			for j := 0; j < 90; j++ {
				st = sys.StepCycle()
				window = append(window, st)
				if st.Done {
					break
				}
			}
			break
		}
	}
	for _, st := range window {
		r.Voltage = append(r.Voltage, st.Voltage)
		r.Gated = append(r.Gated, st.Gating.FUs || st.Gating.DL1 || st.Gating.IL1)
		if st.Level == sensor.Low {
			r.Triggers++
		}
	}
	return r, nil
}

// Render plots the trace and the gating activity.
func (r *Fig11Result) Render(w io.Writer) {
	gate := make([]float64, len(r.Gated))
	base := r.VMin
	for i, g := range r.Gated {
		if g {
			gate[i] = base + 0.002
		} else {
			gate[i] = base
		}
	}
	(&report.LinePlot{
		Title:  "Figure 11: threshold controller in action (stressmark at 200% impedance, delay 2)",
		YLabel: "V",
		Series: []report.Series{
			{Name: "supply voltage", Data: r.Voltage},
			{Name: "gating (raised = active)", Data: gate},
		},
		Notes: []string{
			fmt.Sprintf("thresholds: low %.4f V / high %.4f V; band [%.3f, %.3f] V", r.Low, r.High, r.VMin, r.VMax),
			fmt.Sprintf("%d low-voltage sensor events in the window; gating halts the droop and the network recovers", r.Triggers),
		},
	}).Render(w)
}
