package experiments

import (
	"fmt"
	"io"
	"math"

	"didt/internal/actuator"
	"didt/internal/core"
	"didt/internal/pdn"
	"didt/internal/report"
	"didt/internal/spec"
)

// The multi-rail experiment family exercises the rail-graph PDN of
// internal/pdn and the per-domain machinery layered through spec, power and
// core: per-rail emergency characterization across the workload suite, the
// domain-crossing resonance transfer sweep, the per-rail threshold solve
// against each mechanism's scoped authority, and the DVS+gating
// composability study. The family registers exactly like the paper figures,
// so cmd/experiments, the memo caches, didtd's /v1/sweep and the result
// store serve it with no server changes.

// railsSpec is the family's reference three-domain topology: the core rail
// feeds the functional units and uncore, the memory rail the DL1, the
// fetch rail the IL1, with symmetric core<->mem coupling and a weaker
// core<->fetch link.
func railsSpec(s *spec.RunSpec) {
	s.PDN.Rails = []spec.RailSpec{
		{Name: "core", Scopes: []string{"fu", "uncore"}},
		{Name: "mem", Scopes: []string{"dl1"}},
		{Name: "fetch", Scopes: []string{"il1"}},
	}
	s.PDN.Coupling = []spec.CouplingSpec{
		{From: "core", To: "mem", K: 0.2},
		{From: "mem", To: "core", K: 0.2},
		{From: "core", To: "fetch", K: 0.1},
		{From: "fetch", To: "core", K: 0.1},
	}
}

// railNames matches railsSpec's rail order.
var railNames = []string{"core", "mem", "fetch"}

// ---------------------------------------------------- rails-emergencies

// RailsEmergenciesRow is one workload's per-rail emergency profile.
type RailsEmergenciesRow struct {
	Name      string
	Aggregate float64   // any-rail emergency frequency
	PerRail   []float64 // frequency per rail, railNames order
}

// RailsEmergenciesResult characterizes which delivery domain breaks first
// across the suite.
type RailsEmergenciesResult struct {
	Pct   float64 // impedance scale
	Rails []string
	Rows  []RailsEmergenciesRow
}

// RailsEmergencies runs every configured benchmark (plus the stressmark)
// open-loop on the three-domain PDN at 300% impedance and tabulates
// per-rail emergency frequencies.
func RailsEmergencies(cfg Config) (*RailsEmergenciesResult, error) {
	cfg = cfg.withDefaults()
	return memoized("rails-emergencies", cfg, func() (*RailsEmergenciesResult, error) {
		const pct = 3
		names := append(append([]string{}, cfg.benchmarks()...), "stressmark")
		jobs := make([]runJob, len(names))
		for i, name := range names {
			prog, err := cfg.program(name)
			if err != nil {
				return nil, err
			}
			jobs[i] = cfg.baseJob(prog, pct)
			railsSpec(&jobs[i].opts.Spec)
		}

		results, err := sweep(cfg, jobs, runKeyed)
		if err != nil {
			return nil, err
		}
		r := &RailsEmergenciesResult{Pct: pct, Rails: railNames}
		for k, res := range results {
			row := RailsEmergenciesRow{Name: names[k], Aggregate: res.EmergencyFreq}
			for _, rr := range res.Rails {
				row.PerRail = append(row.PerRail, rr.EmergencyFreq)
			}
			r.Rows = append(r.Rows, row)
		}
		return r, nil
	})
}

// Render prints the per-rail table.
func (r *RailsEmergenciesResult) Render(w io.Writer) {
	t := &report.Table{
		Title:   fmt.Sprintf("Multi-rail emergencies: per-domain frequency at %.0f%% impedance", r.Pct*100),
		Headers: append(append([]string{"benchmark"}, r.Rails...), "any rail"),
	}
	worst := make([]int, len(r.Rails))
	for _, row := range r.Rows {
		cells := []interface{}{row.Name}
		best, bestF := -1, 0.0
		for i, f := range row.PerRail {
			cells = append(cells, fmtFreq(f))
			if f > bestF {
				best, bestF = i, f
			}
		}
		cells = append(cells, fmtFreq(row.Aggregate))
		t.AddRowf(cells...)
		if best >= 0 {
			worst[best]++
		}
	}
	for i, n := range worst {
		if n > 0 {
			t.Notes = append(t.Notes,
				fmt.Sprintf("%q is the worst rail on %d workload(s)", r.Rails[i], n))
		}
	}
	t.Notes = append(t.Notes,
		"per-rail counts use each rail's own +-5% band; \"any rail\" counts cycles where at least one rail is out")
	t.Render(w)
}

// ------------------------------------------------------ rails-resonance

// RailsResonanceResult is the domain-crossing transfer sweep: an aggressor
// rail driven by a resonant pulse train, a quiescent victim rail, droop on
// the victim as a function of coupling strength and stimulus frequency.
type RailsResonanceResult struct {
	Ks      []float64 // coupling coefficients swept
	Scales  []float64 // pulse period as fraction of the resonant period
	DroopMV [][]float64
	VBandMV float64 // victim band half-width, for reference
}

// RailsResonance computes the sweep on a two-rail graph, pure PDN math —
// no machine in the loop, so the study is exact and fast.
func RailsResonance(cfg Config) (*RailsResonanceResult, error) {
	cfg = cfg.withDefaults()
	return memoized("rails-resonance", cfg, func() (*RailsResonanceResult, error) {
		const (
			aLow, aHigh = 10.0, 50.0
			vLow, vHigh = 5.0, 25.0
		)
		aggressor, err := pdn.Calibrate(pdn.Params{IFloor: (aLow + aHigh) / 2}, aLow, aHigh, 2)
		if err != nil {
			return nil, err
		}
		r := &RailsResonanceResult{
			Ks:     []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5},
			Scales: []float64{0.5, 0.75, 1.0, 1.25, 1.5},
		}
		for _, k := range r.Ks {
			victim, err := pdn.Calibrate(pdn.Params{IFloor: (vLow + vHigh) / 2}, vLow, vHigh, 2)
			if err != nil {
				return nil, err
			}
			if r.VBandMV == 0 {
				r.VBandMV = (victim.Params().VNominal - victim.VMin()) * 1e3
			}
			graph, err := pdn.NewGraph(
				[]pdn.Rail{{Name: "aggressor", Net: aggressor}, {Name: "victim", Net: victim}},
				[][]float64{{0, 0}, {k, 0}}, // victim <- k * aggressor
			)
			if err != nil {
				return nil, err
			}
			period := victim.ResonantPeriodCycles()
			row := make([]float64, len(r.Scales))
			for si, scale := range r.Scales {
				p := int(math.Round(float64(period) * scale))
				if p < 2 {
					p = 2
				}
				// Cycle-major (aggressor, victim) pairs, stepped MaxBlock
				// cycles at a time.
				n := 2 * (victim.KernelLen() + 12*period)
				cur, volts := make([]float64, n), make([]float64, n)
				for i := 0; i < n; i += 2 {
					cur[i] = aLow
					if i/2%p < p/2 {
						cur[i] = aHigh
					}
					cur[i+1] = victim.Params().IFloor // quiescent victim
				}
				gs := graph.NewSimulator()
				for i := 0; i < n; i += 2 * pdn.MaxBlock {
					j := min(i+2*pdn.MaxBlock, n)
					gs.StepBlock(cur[i:j], volts[i:j])
				}
				gs.Release()
				droop := 0.0
				vn := victim.Params().VNominal
				for i := 1; i < n; i += 2 {
					droop = math.Max(droop, vn-volts[i])
				}
				row[si] = droop * 1e3
			}
			r.DroopMV = append(r.DroopMV, row)
		}
		return r, nil
	})
}

// Render prints the K x frequency transfer table.
func (r *RailsResonanceResult) Render(w io.Writer) {
	headers := []string{"coupling K"}
	for _, s := range r.Scales {
		headers = append(headers, fmt.Sprintf("%.2fx T_res", s))
	}
	t := &report.Table{
		Title:   "Domain-crossing resonance: victim-rail droop (mV) vs coupling and aggressor pulse period",
		Headers: headers,
	}
	for ki, k := range r.Ks {
		cells := []interface{}{fmt.Sprintf("%.1f", k)}
		for _, d := range r.DroopMV[ki] {
			cells = append(cells, fmt.Sprintf("%.2f", d))
		}
		t.AddRowf(cells...)
	}
	t.Notes = append(t.Notes,
		"the victim draws constant floor current: every millivolt of droop crosses the domain boundary",
		fmt.Sprintf("victim emergency band half-width: %.1f mV", r.VBandMV),
		"droop scales linearly with K and peaks at the resonant period (1.00x column)")
	t.Render(w)
	var series []report.Series
	for ki, k := range r.Ks {
		if ki%2 == 0 { // plot alternate Ks to keep the chart readable
			series = append(series, report.Series{Name: fmt.Sprintf("K=%.1f", k), Data: r.DroopMV[ki]})
		}
	}
	(&report.LinePlot{
		Title:  "Victim droop vs stimulus period (columns: 0.50x..1.50x resonant)",
		YLabel: "mV",
		Series: series,
		Height: 10,
	}).Render(w)
}

// ----------------------------------------------------- rails-thresholds

// RailsThresholdRow is one (mechanism, rail) solve.
type RailsThresholdRow struct {
	Mechanism  string
	Rail       string
	IMin, IMax float64
	Low, High  float64
	WindowMV   float64
	Stable     bool
}

// RailsThresholdsResult tabulates the per-rail threshold solves across
// actuation granularities.
type RailsThresholdsResult struct {
	Delay int
	Rows  []RailsThresholdRow
}

// RailsThresholds solves per-rail operating thresholds for each actuation
// mechanism on the three-domain topology: each rail's solve sees only the
// authority the mechanism has over that rail's scopes, so rails the
// mechanism cannot reach fall back to conservative trip points.
func RailsThresholds(cfg Config) (*RailsThresholdsResult, error) {
	cfg = cfg.withDefaults()
	return memoized("rails-thresholds", cfg, func() (*RailsThresholdsResult, error) {
		const delay = 4
		r := &RailsThresholdsResult{Delay: delay}
		prog := cfg.stressProgram()
		for _, mech := range []actuator.Mechanism{actuator.FU, actuator.FUDL1, actuator.FUDL1IL1} {
			opts := cfg.baseOptions(2)
			railsSpec(&opts.Spec)
			opts.Spec.Control.Enabled = true
			opts.Spec.Actuator.Mechanism = mech.Name
			opts.Spec.Sensor.DelayCycles = delay
			sys, err := core.NewSystem(prog, opts)
			if err != nil {
				return nil, err
			}
			for _, info := range sys.Rails() {
				r.Rows = append(r.Rows, RailsThresholdRow{
					Mechanism: mech.Name,
					Rail:      info.Name,
					IMin:      info.IMin,
					IMax:      info.IMax,
					Low:       info.Thresholds.Low,
					High:      info.Thresholds.High,
					WindowMV:  (info.Thresholds.High - info.Thresholds.Low) * 1e3,
					Stable:    info.Thresholds.Stable,
				})
			}
			sys.Close()
		}
		return r, nil
	})
}

// Render prints the mechanism x rail threshold table.
func (r *RailsThresholdsResult) Render(w io.Writer) {
	t := &report.Table{
		Title:   fmt.Sprintf("Per-rail threshold solve (delay %d cycles, 200%% impedance)", r.Delay),
		Headers: []string{"mechanism", "rail", "iMin (A)", "iMax (A)", "Vlow", "Vhigh", "window (mV)", "guaranteed"},
	}
	for _, row := range r.Rows {
		stable := "yes"
		if !row.Stable {
			stable = "no (conservative)"
		}
		t.AddRowf(row.Mechanism, row.Rail,
			fmt.Sprintf("%.1f", row.IMin), fmt.Sprintf("%.1f", row.IMax),
			fmt.Sprintf("%.4f", row.Low), fmt.Sprintf("%.4f", row.High),
			fmt.Sprintf("%.1f", row.WindowMV), stable)
	}
	t.Notes = append(t.Notes,
		"each rail's solve uses the mechanism's authority over that rail's scopes only",
		"\"no\" rows run with conservative trip points: the mechanism cannot guarantee containment on that rail")
	t.Render(w)
}

// ------------------------------------------------------------ rails-dvs

// RailsDVSResult compares gate-only control against gate+DVS on the
// multi-rail stressmark: the composability proof for the two responders in
// one spec.
type RailsDVSResult struct {
	GateOnly *core.Result
	GateDVS  *core.Result
	Rails    []string
}

// RailsDVS runs the stressmark closed-loop on the three-domain PDN at 300%
// impedance, with the FU gate alone and with a DVS schedule layered over
// it (bound to the core rail).
func RailsDVS(cfg Config) (*RailsDVSResult, error) {
	cfg = cfg.withDefaults()
	return memoized("rails-dvs", cfg, func() (*RailsDVSResult, error) {
		prog := cfg.stressProgram()
		mkJob := func(withDVS bool) runJob {
			j := cfg.controlledJob(prog, 3, actuator.FU, 4, 0)
			railsSpec(&j.opts.Spec)
			if withDVS {
				j.opts.Spec.Actuator.DVS = &spec.DVSSpec{
					Steps:            []float64{1, 0.95, 0.9},
					TransitionCycles: 10,
					HoldCycles:       120,
					Rail:             "core",
				}
			}
			return j
		}
		results, err := sweep(cfg, []runJob{mkJob(false), mkJob(true)}, runKeyed)
		if err != nil {
			return nil, err
		}
		return &RailsDVSResult{GateOnly: results[0], GateDVS: results[1], Rails: railNames}, nil
	})
}

// Render prints the side-by-side comparison.
func (r *RailsDVSResult) Render(w io.Writer) {
	t := &report.Table{
		Title:   "DVS + gating composability: stressmark on the three-domain PDN (300% impedance, FU gate, delay 4)",
		Headers: []string{"metric", "gate only", "gate + DVS"},
	}
	t.AddRowf("emergency freq (any rail)", fmtFreq(r.GateOnly.EmergencyFreq), fmtFreq(r.GateDVS.EmergencyFreq))
	for i, name := range r.Rails {
		var a, b float64
		if i < len(r.GateOnly.Rails) {
			a = r.GateOnly.Rails[i].EmergencyFreq
		}
		if i < len(r.GateDVS.Rails) {
			b = r.GateDVS.Rails[i].EmergencyFreq
		}
		t.AddRowf("  rail "+name, fmtFreq(a), fmtFreq(b))
	}
	t.AddRowf("IPC", fmt.Sprintf("%.3f", r.GateOnly.IPC()), fmt.Sprintf("%.3f", r.GateDVS.IPC()))
	t.AddRowf("gating episodes", fmt.Sprintf("%d", r.GateOnly.LowEvents), fmt.Sprintf("%d", r.GateDVS.LowEvents))
	t.AddRowf("DVS step downs", "-", fmt.Sprintf("%d", r.GateDVS.DVSStepDowns))
	t.AddRowf("DVS step ups", "-", fmt.Sprintf("%d", r.GateDVS.DVSStepUps))
	t.Notes = append(t.Notes,
		"both runs use one spec each: the DVS section composes with the gate mechanism through the same Responder interface",
		"DVS trades sustained throughput (lower operating point) for smaller transients on top of cycle-scale gating")
	t.Render(w)
}
