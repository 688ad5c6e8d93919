package experiments

import (
	"fmt"
	"io"
	"math"

	"didt/internal/itrs"
	"didt/internal/linsys"
	"didt/internal/pdn"
	"didt/internal/report"
	"didt/internal/trace"
)

// ---------------------------------------------------------------- Figure 1

// Fig1Result holds the ITRS relative-impedance trends.
type Fig1Result struct {
	Points []itrs.Point
}

// Fig1 computes the roadmap trend of the paper's Figure 1.
func Fig1(Config) (*Fig1Result, error) {
	return &Fig1Result{Points: itrs.Trend(2016)}, nil
}

// Render writes the trend as a table plus plot.
func (r *Fig1Result) Render(w io.Writer) {
	t := &report.Table{
		Title:   "Figure 1: Relative impedance trends (ITRS 2001 model)",
		Headers: []string{"year", "high-perf Z (rel)", "cost-perf Z (rel)", "gap (x)"},
	}
	var hp, cp []float64
	for _, p := range r.Points {
		t.AddRowf(p.Year, p.HighPerformance, p.CostPerformance, p.RelativeGapFactor)
		hp = append(hp, math.Log10(p.HighPerformance))
		cp = append(cp, math.Log10(p.CostPerformance))
	}
	t.Notes = append(t.Notes,
		"target impedance halves roughly every 3-5 years",
		"the cost-performance/high-performance gap shrinks over time")
	t.Render(w)
	(&report.LinePlot{
		Title:  "Figure 1 (log10 relative impedance vs year)",
		YLabel: "log10(Z/Z2001-HP)",
		Series: []report.Series{{Name: "high-perf", Data: hp}, {Name: "cost-perf", Data: cp}},
		Height: 12,
	}).Render(w)
}

// ---------------------------------------------------------------- Figure 2

// Fig2Result holds the canonical second-order frequency and step responses.
type Fig2Result struct {
	Freqs     []float64
	Impedance []float64 // ohms at Freqs
	StepTime  []float64 // cycles
	Step      []float64 // volts of droop for a 1A step
	System    *linsys.SecondOrder
}

// Fig2 evaluates the reference PDN's frequency and transient responses.
func Fig2(cfg Config) (*Fig2Result, error) {
	sys, err := linsys.FromPeak(pdn.DefaultDCResistance, pdn.DefaultResonantHz, 2e-3)
	if err != nil {
		return nil, err
	}
	r := &Fig2Result{System: sys}
	for i := 0; i <= 80; i++ {
		f := math.Pow(10, 6+float64(i)*3.2/80) // 1 MHz .. ~1.6 GHz
		r.Freqs = append(r.Freqs, f)
		r.Impedance = append(r.Impedance, sys.Impedance(f))
	}
	dt := 1 / pdn.DefaultClockHz
	for k := 0; k < 300; k++ {
		r.StepTime = append(r.StepTime, float64(k))
		r.Step = append(r.Step, sys.Step(float64(k)*dt))
	}
	return r, nil
}

// Render plots both responses.
func (r *Fig2Result) Render(w io.Writer) {
	var z []float64
	for _, v := range r.Impedance {
		z = append(z, v*1e3)
	}
	(&report.LinePlot{
		Title:  "Figure 2a: |Z(f)| of the second-order PDN (1 MHz .. 1.6 GHz, log-f sweep)",
		YLabel: "mOhm",
		Series: []report.Series{{Name: "|Z|", Data: z}},
		Notes: []string{
			fmt.Sprintf("peak %.3g mOhm at %.3g MHz; DC resistance %.3g mOhm",
				r.System.PeakImpedance()*1e3, r.System.PeakFrequency()/1e6, r.System.DCResistance()*1e3),
		},
	}).Render(w)
	var mv []float64
	for _, v := range r.Step {
		mv = append(mv, v*1e3)
	}
	(&report.LinePlot{
		Title:  "Figure 2b: step response (voltage droop for a 1 A step, 300 cycles)",
		YLabel: "mV per ampere",
		Series: []report.Series{{Name: "droop", Data: mv}},
		Notes:  []string{"underdamped: overshoot and ringing before settling at R*dI"},
	}).Render(w)
}

// ------------------------------------------------------- Figures 3, 4, 5, 6

// PulseResult holds a stimulus/response pair for the intuition figures.
type PulseResult struct {
	ID          string
	Description string
	Current     trace.Trace
	Voltage     trace.Trace
	VMin, VMax  float64 // band boundaries
	Crossed     bool    // did the response leave the band?
}

// Pulse computes the response of the 200%-impedance reference network to
// the paper's four characteristic stimuli.
func Pulse(cfg Config, id string) (*PulseResult, error) {
	const iLow, iHigh = 10.0, 50.0
	net, err := pdn.Calibrate(pdn.Params{IFloor: (iLow + iHigh) / 2}, iLow, iHigh, 2)
	if err != nil {
		return nil, err
	}
	period := net.ResonantPeriodCycles()
	n := 6 * period
	cur := make(trace.Trace, n)
	for i := range cur {
		cur[i] = iLow
	}
	r := &PulseResult{ID: id, VMin: net.VMin(), VMax: net.VMax()}
	set := func(from, to int) {
		for i := from; i < to && i < n; i++ {
			cur[i] = iHigh
		}
	}
	switch id {
	case "fig3":
		r.Description = "narrow current spike (5 cycles): recovers before the threshold"
		set(9, 14)
	case "fig4":
		r.Description = "wide current spike (half resonant period): pulls voltage through the threshold"
		set(9, 9+period/2)
	case "fig5":
		r.Description = "notched wide spike: microarchitectural control carves a notch so the network recovers"
		set(9, 9+period/2)
		// The notch: control cuts current for the middle third.
		for i := 9 + period/6; i < 9+period/3; i++ {
			cur[i] = iLow
		}
	case "fig6":
		r.Description = "pulse train at the resonant frequency: each pulse deepens the ripple (dI/dt stressmark effect)"
		for p := 0; p < 5; p++ {
			set(9+p*period, 9+p*period+period/2)
		}
	default:
		return nil, fmt.Errorf("experiments: unknown pulse id %q", id)
	}
	r.Current = cur
	r.Voltage = net.VoltageTrace(cur)
	r.Crossed = r.Voltage.CountOutside(net.VMin(), net.VMax()) > 0
	return r, nil
}

// Render plots the stimulus and the response.
func (r *PulseResult) Render(w io.Writer) {
	name := map[string]string{
		"fig3": "Figure 3", "fig4": "Figure 4", "fig5": "Figure 5", "fig6": "Figure 6",
	}[r.ID]
	(&report.LinePlot{
		Title:  fmt.Sprintf("%s: %s — input current", name, r.Description),
		YLabel: "A",
		Series: []report.Series{{Name: "I", Data: r.Current}},
		Height: 8,
	}).Render(w)
	status := "stays inside the +-5% band"
	if r.Crossed {
		status = "CROSSES the +-5% band (voltage emergency)"
	}
	(&report.LinePlot{
		Title:  fmt.Sprintf("%s — supply voltage response (%s)", name, status),
		YLabel: "V",
		Series: []report.Series{{Name: "V", Data: r.Voltage}},
		Notes: []string{
			fmt.Sprintf("band [%.3f, %.3f] V; response range [%.4f, %.4f] V",
				r.VMin, r.VMax, r.Voltage.Min(), r.Voltage.Max()),
		},
	}).Render(w)
}
