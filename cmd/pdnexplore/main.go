// Command pdnexplore prints the power-delivery-network model's responses:
// impedance vs frequency, step response, and the reaction to the paper's
// characteristic current stimuli (Figures 2-6). Given a RunSpec it instead
// assembles the described system — single-rail or multi-rail — and prints
// the calibrated per-rail impedance, resonance and coupling tables.
//
// Usage:
//
//	pdnexplore                 # all responses at 200% impedance
//	pdnexplore -figure fig6    # just the resonant pulse train
//	pdnexplore -spec run.json  # per-rail tables for a RunSpec file
//
// -spec takes the same RunSpec JSON the didtd API and didtsim accept and
// resolves it through the same path (strict decode, spec.Resolve), so a
// spec that fails here fails identically at every other entry point — and
// the validation errors carry the same did-you-mean hints.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"didt/internal/core"
	"didt/internal/experiments"
	"didt/internal/spec"
)

func main() {
	var (
		figure   = flag.String("figure", "all", "fig2, fig3, fig4, fig5, fig6 or all")
		specPath = flag.String("spec", "", "RunSpec JSON file; prints per-rail impedance/resonance tables instead of figures")
	)
	flag.Parse()

	if *specPath != "" {
		if err := exploreSpec(*specPath, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	ids := []string{"fig2", "fig3", "fig4", "fig5", "fig6"}
	if *figure != "all" {
		ids = []string{*figure}
	}
	reg := experiments.Registry()
	cfg := experiments.Default()
	for _, id := range ids {
		runner, ok := reg[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", id)
			os.Exit(2)
		}
		if err := runner(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// loadSpec strict-decodes a RunSpec file the way the didtd API does:
// unknown fields and trailing garbage are errors, not silently dropped
// knobs.
func loadSpec(path string) (spec.RunSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return spec.RunSpec{}, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var sp spec.RunSpec
	if err := dec.Decode(&sp); err != nil {
		return spec.RunSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	if dec.More() {
		return spec.RunSpec{}, fmt.Errorf("%s: trailing data after spec object", path)
	}
	return sp, nil
}

// exploreSpec assembles the system a spec describes and prints its
// delivery-network tables. Nothing is simulated beyond the calibration
// envelope measurement NewSystem performs anyway.
func exploreSpec(path string, w io.Writer) error {
	sp, err := loadSpec(path)
	if err != nil {
		return err
	}
	resolved, err := sp.Resolve()
	if err != nil {
		return err
	}
	prog, err := resolved.Program()
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(prog, core.Options{Spec: resolved})
	if err != nil {
		return err
	}
	defer sys.Close()

	fmt.Fprintf(w, "spec %s\nworkload %s, impedance %.0f%%\n",
		resolved.Key(), workloadName(resolved), 100*resolved.PDN.ImpedancePct)

	rails := sys.Rails()

	fmt.Fprintf(w, "\nRails (%d)\n", len(rails))
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "rail\tres MHz\tperiod cyc\tpeak mOhm\tdc mOhm\tkernel\tIFloor A\tI[min,max] A\tV[min,max] V\tworst droop mV")
	for _, r := range rails {
		p := r.Net.Params()
		fmt.Fprintf(tw, "%s\t%.1f\t%d\t%.3f\t%.3f\t%d\t%.2f\t[%.2f, %.2f]\t[%.3f, %.3f]\t%.1f\n",
			r.Name, p.ResonantHz/1e6, r.Net.ResonantPeriodCycles(),
			1e3*p.PeakZ, 1e3*p.DCResistance, r.Net.KernelLen(), p.IFloor,
			r.IMin, r.IMax, r.Net.VMin(), r.Net.VMax(),
			1e3*r.Net.WorstCaseDeviation(r.IMin, r.IMax))
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	coupled := false
	for _, r := range rails {
		if r.Coupling != nil {
			coupled = true
		}
	}
	if coupled {
		fmt.Fprintf(w, "\nCoupling (row = victim, K of each source's transient injected)\n")
		tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprint(tw, "into\\from")
		for _, r := range rails {
			fmt.Fprintf(tw, "\t%s", r.Name)
		}
		fmt.Fprintln(tw)
		for i, r := range rails {
			fmt.Fprint(tw, r.Name)
			for j := range rails {
				switch {
				case i == j:
					fmt.Fprint(tw, "\t-")
				case r.Coupling == nil:
					fmt.Fprint(tw, "\t0")
				default:
					fmt.Fprintf(tw, "\t%.3f", r.Coupling[j])
				}
			}
			fmt.Fprintln(tw)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	if resolved.Control.Enabled {
		fmt.Fprintf(w, "\nControl thresholds\n")
		tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "rail\tlow V\thigh V\twindow mV\tstable")
		for _, r := range rails {
			fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.1f\t%t\n",
				r.Name, r.Thresholds.Low, r.Thresholds.High,
				1e3*(r.Thresholds.High-r.Thresholds.Low), r.Thresholds.Stable)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func workloadName(sp spec.RunSpec) string {
	if sp.Workload.Name == "" {
		return "stressmark"
	}
	return sp.Workload.Name
}
