package experiments

// Extensions implement the paper's Section 6 "Discussion and Future Work"
// proposals so their trade-offs can be measured rather than speculated:
//
//   - asymmetric: different actuation mechanisms for voltage-high and
//     voltage-low emergencies;
//   - pid: a textbook P-I-D controller compared against threshold control
//     under the compute latency the paper predicts it would add;
//   - ramp-policy: the greedy low-to-high transition policy of Section 2.3
//     against a pessimistic slow-reactivation policy;
//   - ablation-gating: sensitivity of the whole result to the conditional
//     clock-gating style (the idle-power fraction), Wattch's cc1/cc2/cc3
//     spectrum.

import (
	"fmt"
	"io"

	"didt/internal/actuator"
	"didt/internal/control"
	"didt/internal/core"
	"didt/internal/pdn"
	"didt/internal/power"
	"didt/internal/report"
)

// ------------------------------------------------------- asymmetric (§6)

// AsymmetricPoint compares one responder on the stressmark.
type AsymmetricPoint struct {
	Label       string
	PerfLossPct float64
	EnergyPct   float64
	Emergencies uint64
	HighEvents  uint64
}

// AsymmetricStudy compares symmetric wide-scope control against the
// Section 6 asymmetric pairing on the stressmark.
type AsymmetricStudy struct {
	Delay  int
	Points []AsymmetricPoint
}

func asymmetricStudy(cfg Config) (*AsymmetricStudy, error) {
	cfg = cfg.withDefaults()
	return memoized("asymmetric", cfg, func() (*AsymmetricStudy, error) {
		const delay = 2
		prog := cfg.stressProgram()
		base, err := runKeyed(cfg.uncontrolledFullJob(prog, 2))
		if err != nil {
			return nil, err
		}
		responders := []actuator.Responder{
			actuator.FUDL1IL1,
			actuator.GateWideFireNarrow,
			actuator.Asymmetric{Name: "gate FU/DL1, fire FU/DL1/IL1", Low: actuator.FUDL1, High: actuator.FUDL1IL1},
		}
		points, err := sweep(cfg, responders, func(r actuator.Responder) (AsymmetricPoint, error) {
			opts := cfg.baseOptions(2)
			opts.Spec.Control.Enabled = true
			opts.Responder = r
			opts.Spec.Sensor.DelayCycles = delay
			opts.Spec.Budget.MaxCycles = cfg.Cycles * 4
			res, err := runKeyed(runJob{prog: prog, opts: opts})
			if err != nil {
				return AsymmetricPoint{}, err
			}
			return AsymmetricPoint{
				Label:       r.Label(),
				PerfLossPct: 100 * (float64(res.Cycles)/float64(base.Cycles) - 1),
				EnergyPct:   100 * (res.Energy/base.Energy - 1),
				Emergencies: res.Emergencies,
				HighEvents:  res.HighEvents,
			}, nil
		})
		if err != nil {
			return nil, err
		}
		return &AsymmetricStudy{Delay: delay, Points: points}, nil
	})
}

func renderAsymmetric(cfg Config, w io.Writer) error {
	st, err := asymmetricStudy(cfg)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Section 6 extension: asymmetric actuation (stressmark, 200%% impedance, delay %d)", st.Delay),
		Headers: []string{"responder", "perf loss (%)", "energy increase (%)", "emergencies", "phantom events"},
	}
	for _, p := range st.Points {
		t.AddRow(p.Label, fmt.Sprintf("%.2f", p.PerfLossPct), fmt.Sprintf("%.2f", p.EnergyPct),
			fmt.Sprintf("%d", p.Emergencies), fmt.Sprintf("%d", p.HighEvents))
	}
	t.Notes = append(t.Notes,
		"asymmetry confines energy-burning phantom firings to the narrow FU scope while keeping wide gating authority for the common voltage-low case")
	t.Render(w)
	return nil
}

// -------------------------------------------------------------- pid (§6)

func pidStudy(cfg Config) ([]control.PIDPoint, error) {
	cfg = cfg.withDefaults()
	return memoized("pid", cfg, func() ([]control.PIDPoint, error) {
		// Envelope measured the same way the coupled system measures it.
		sys, err := core.NewSystem(cfg.stressProgram(), cfg.baseOptions(2))
		if err != nil {
			return nil, err
		}
		iMin, iMax := sys.Envelope()
		net, err := pdn.Calibrate(pdn.Params{IFloor: 0.5 * (iMin + iMax)}, iMin, iMax, 2)
		if err != nil {
			return nil, err
		}
		pm := power.New(power.Params{}, defaultCPUConfig())
		floor, ceil := actuator.Ideal.Envelope(pm)
		solver := control.NewSolver(net)
		// Section 6: a digital P-I-D "would require a series of additions
		// and multiplications ... this would likely increase the control
		// delay" — charge it 3 extra cycles.
		return solver.ComparePID(control.Envelope{
			IMin: iMin, IMax: iMax, Floor: floor, Ceil: ceil, Settle: 2,
		}, 4, 3)
	})
}

func renderPID(cfg Config, w io.Writer) error {
	pts, err := pidStudy(cfg)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   "Section 6 extension: threshold control vs P-I-D (worst-case waveform, 200% impedance)",
		Headers: []string{"sensor delay", "thr dev (mV)", "thr in band", "thr intervene", "PID delay (+MAC)", "PID dev (mV)", "PID in band", "PID intervene", "best PID gains"},
	}
	for _, p := range pts {
		t.AddRow(fmt.Sprintf("%d", p.Delay),
			fmt.Sprintf("%.1f", p.ThresholdDev*1e3),
			fmt.Sprintf("%v", p.ThresholdOK),
			fmt.Sprintf("%.0f%%", p.ThresholdIntervene*100),
			fmt.Sprintf("%d", p.PIDDelay),
			fmt.Sprintf("%.1f", p.PIDDev*1e3),
			fmt.Sprintf("%v", p.PIDOK),
			fmt.Sprintf("%.0f%%", p.PIDIntervene*100),
			fmt.Sprintf("Kp=%.0f Ki=%.0f Kd=%.0f", p.BestGains.Kp, p.BestGains.Ki, p.BestGains.Kd))
	}
	t.Notes = append(t.Notes,
		"the PID holds tighter voltage but only by overriding the workload's demand on most cycles — a massive performance tax, plus it needs a numeric voltage reading and pays multiply-accumulate latency",
		"threshold control intervenes only near the band edge, which is the paper's entire point")
	t.Render(w)
	return nil
}

// ------------------------------------------------------ ramp-policy (§2.3)

// RampPoint compares greedy vs pessimistic reactivation.
type RampPoint struct {
	Policy      string
	Cycles      uint64
	PerfLossPct float64
	MaxDevMV    float64
	Emergencies uint64
}

func rampStudy(cfg Config) ([]RampPoint, error) {
	cfg = cfg.withDefaults()
	return memoized("ramp-policy", cfg, func() ([]RampPoint, error) {
		prog := cfg.stressProgram()
		var out []RampPoint
		var baseCycles uint64
		for _, ramp := range []int{0, 16, 48} {
			opts := cfg.baseOptions(2)
			opts.Spec.Budget.MaxCycles = cfg.Cycles * 4
			opts.Spec.Control.PessimisticRamp = ramp
			res, err := runKeyed(runJob{prog: prog, opts: opts})
			if err != nil {
				return nil, err
			}
			name := "greedy (paper default)"
			if ramp > 0 {
				name = fmt.Sprintf("pessimistic ramp %d cycles", ramp)
			}
			if ramp == 0 {
				baseCycles = res.Cycles
			}
			dev := res.VNominal - res.MinV
			if up := res.MaxV - res.VNominal; up > dev {
				dev = up
			}
			out = append(out, RampPoint{
				Policy:      name,
				Cycles:      res.Cycles,
				PerfLossPct: 100 * (float64(res.Cycles)/float64(baseCycles) - 1),
				MaxDevMV:    dev * 1e3,
				Emergencies: res.Emergencies,
			})
		}
		return out, nil
	})
}

func renderRampPolicy(cfg Config, w io.Writer) error {
	pts, err := rampStudy(cfg)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   "Section 2.3 ablation: greedy vs pessimistic low-to-high transitions (stressmark, 200% impedance, no controller)",
		Headers: []string{"policy", "cycles", "perf loss (%)", "max deviation (mV)", "emergencies"},
	}
	for _, p := range pts {
		t.AddRow(p.Policy, fmt.Sprintf("%d", p.Cycles), fmt.Sprintf("%.2f", p.PerfLossPct),
			fmt.Sprintf("%.1f", p.MaxDevMV), fmt.Sprintf("%d", p.Emergencies))
	}
	t.Notes = append(t.Notes,
		"slow reactivation trades steady performance loss for a softer current edge",
		"the paper's argument: stay greedy and let the threshold controller intervene only when needed")
	t.Render(w)
	return nil
}

// --------------------------------------------------- ablation-gating (cc*)

// GatingAblationPoint measures one idle-fraction setting.
type GatingAblationPoint struct {
	IdleFraction float64
	IMin, IMax   float64
	StressDevMV  float64
	Emergencies  uint64
}

func gatingAblation(cfg Config) ([]GatingAblationPoint, error) {
	cfg = cfg.withDefaults()
	return memoized("ablation-gating", cfg, func() ([]GatingAblationPoint, error) {
		prog := cfg.stressProgram()
		return sweep(cfg, []float64{0.05, 0.10, 0.25, 0.50}, func(idle float64) (GatingAblationPoint, error) {
			opts := cfg.baseOptions(2)
			opts.Spec.Power = power.Params{IdleFraction: idle}
			res, err := runKeyed(runJob{prog: prog, opts: opts})
			if err != nil {
				return GatingAblationPoint{}, err
			}
			dev := res.VNominal - res.MinV
			if up := res.MaxV - res.VNominal; up > dev {
				dev = up
			}
			return GatingAblationPoint{
				IdleFraction: idle,
				IMin:         res.IMin,
				IMax:         res.IMax,
				StressDevMV:  dev * 1e3,
				Emergencies:  res.Emergencies,
			}, nil
		})
	})
}

func renderGatingAblation(cfg Config, w io.Writer) error {
	pts, err := gatingAblation(cfg)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   "Ablation: conditional clock-gating style (idle-power fraction) vs dI/dt severity",
		Headers: []string{"idle fraction", "iMin (A)", "iMax (A)", "stressmark max dev (mV)", "emergencies"},
	}
	for _, p := range pts {
		t.AddRow(fmt.Sprintf("%.0f%%", p.IdleFraction*100),
			fmt.Sprintf("%.1f", p.IMin), fmt.Sprintf("%.1f", p.IMax),
			fmt.Sprintf("%.1f", p.StressDevMV), fmt.Sprintf("%d", p.Emergencies))
	}
	t.Notes = append(t.Notes,
		"aggressive clock gating (low idle fraction) widens the current envelope — the paper's opening observation that power savings worsen dI/dt",
		"the target impedance is recalibrated per envelope, so severity reflects the waveform, not just the range")
	t.Render(w)
	return nil
}
