// Command didtsim runs workloads through the coupled
// processor/power/PDN/controller simulation and prints run statistics.
//
// Usage:
//
//	didtsim -workload stressmark -impedance 2 -control -delay 2
//	didtsim -workload gcc -impedance 3
//	didtsim -workload swim,gcc,galgel -parallel 4
//	didtsim -asm program.s -control -mechanism FU/DL1
//
// -workload accepts a comma-separated list; independent runs are fanned
// out across -parallel workers and reported in list order (results are
// identical at any worker count).
//
// Observability: -trace-out writes a cycle-level event trace of every run
// (Chrome trace-event format by default, one stream per workload — open in
// Perfetto or chrome://tracing; -trace-format jsonl for line-oriented
// JSON); -metrics-out writes the metrics run manifest; -cpuprofile and
// -memprofile write pprof profiles; -progress keeps a live status line on
// stderr for multi-workload runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"didt/internal/actuator"
	"didt/internal/core"
	"didt/internal/isa"
	"didt/internal/sim"
	"didt/internal/spec"
	"didt/internal/telemetry"
	"didt/internal/trace"
)

func main() {
	var (
		wl        = flag.String("workload", "stressmark", "comma-separated list of: stressmark, a SPEC2000 name (see workload.Names), or 'asm'")
		asmPath   = flag.String("asm", "", "path to an assembly file (used with -workload asm)")
		impedance = flag.Float64("impedance", 2, "impedance as a multiple of target (1 = meets spec)")
		control   = flag.Bool("control", false, "enable the dI/dt threshold controller")
		mechName  = flag.String("mechanism", "ideal", "FU, FU/DL1, FU/DL1/IL1, ideal, or a pairing \"gate X, fire Y\" of two of them")
		delay     = flag.Int("delay", 2, "sensor/controller delay in cycles")
		noise     = flag.Float64("noise", 0, "sensor noise amplitude in mV")
		cycles    = flag.Uint64("cycles", 400000, "maximum cycles")
		iters     = flag.Int("iterations", 3000, "workload loop iterations")
		parallel  = flag.Int("parallel", 0, "worker count for multi-workload runs (0 = GOMAXPROCS)")
		dumpCur   = flag.String("dump-current", "", "write the per-cycle current trace (CSV) to this path (single workload only)")
		dumpVolt  = flag.String("dump-voltage", "", "write the per-cycle voltage trace (CSV) to this path (single workload only)")

		traceOut    = flag.String("trace-out", "", "write a cycle-level event trace to this path")
		traceFormat = flag.String("trace-format", "chrome", "trace format: chrome (Perfetto/chrome://tracing) or jsonl")
		traceRing   = flag.Int("trace-ring", 0, "events retained per trace stream (0 = default)")
		metricsOut  = flag.String("metrics-out", "", "write the metrics run manifest (JSON) to this path")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile to this path")
		progress    = flag.Bool("progress", false, "live progress line on stderr")
	)
	var seed spec.Seed
	flag.Var(&seed, "seed", "noise seed (only applied when set)")
	flag.Parse()

	workloads := strings.Split(*wl, ",")
	if len(workloads) > 1 && (*dumpCur != "" || *dumpVolt != "") {
		fmt.Fprintln(os.Stderr, "-dump-current/-dump-voltage require a single workload")
		os.Exit(2)
	}
	mech, err := actuator.ByName(*mechName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Every flag is an override on one RunSpec; the per-workload specs
	// below differ only in their workload section.
	var base spec.RunSpec
	base.PDN.ImpedancePct = *impedance
	base.Control.Enabled = *control
	base.Actuator.Mechanism = *mechName
	base.Sensor.DelayCycles = *delay
	base.Sensor.NoiseMV = *noise
	base.Budget.MaxCycles = *cycles
	base.Workload.Iterations = *iters
	base.Seed = seed

	var tracer *telemetry.Tracer
	if *traceOut != "" {
		if *traceFormat != "chrome" && *traceFormat != "jsonl" {
			fmt.Fprintf(os.Stderr, "unknown -trace-format %q (chrome or jsonl)\n", *traceFormat)
			os.Exit(2)
		}
		tracer = telemetry.NewTracer(*traceRing)
	}
	if *progress {
		pl := telemetry.NewProgress(os.Stderr, "didtsim", 0)
		sim.SetProgress(pl.Update)
		defer pl.Done()
	}
	stopCPU, err := telemetry.StartCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	type outcome struct {
		name string
		res  *core.Result
		spec spec.RunSpec
	}
	results, err := sim.Sweep(context.Background(), *parallel, workloads, func(_ context.Context, name string) (outcome, error) {
		sp := base
		prog, err := loadProgram(&sp, name, *asmPath)
		if err != nil {
			return outcome{}, err
		}
		sys, err := core.NewSystem(prog, core.Options{
			Spec:          sp,
			RecordTraces:  *dumpCur != "" || *dumpVolt != "",
			Telemetry:     tracer,
			TelemetryName: name,
		})
		if err != nil {
			return outcome{}, err
		}
		defer sys.Close()
		res, err := sys.Run()
		if err != nil {
			return outcome{}, err
		}
		return outcome{name: name, res: res, spec: sys.Spec()}, nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	for i, o := range results {
		if i > 0 {
			fmt.Println()
		}
		report(o.name, o.res, *impedance, *control, mech, *delay, *noise)
	}

	res := results[len(results)-1].res
	if *dumpCur != "" {
		if err := writeTrace(*dumpCur, res.CurrentTrace, "current_A"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("current trace       %s (%d samples)\n", *dumpCur, len(res.CurrentTrace))
	}
	if *dumpVolt != "" {
		if err := writeTrace(*dumpVolt, res.VoltageTrace, "voltage_V"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("voltage trace       %s (%d samples)\n", *dumpVolt, len(res.VoltageTrace))
	}

	if err := stopCPU(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := telemetry.WriteHeapProfile(*memProfile); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if tracer != nil {
		if err := writeEventTrace(*traceOut, *traceFormat, tracer); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("event trace         %s (%d streams)\n", *traceOut, len(tracer.Streams()))
	}
	if *metricsOut != "" {
		m := telemetry.NewManifest("didtsim", sim.DefaultWorkers(), telemetry.Default(), tracer)
		// Record the resolved spec (and its content hash) of the last run,
		// mirroring which run the trace dumps describe.
		last := results[len(results)-1].spec
		m.Spec = last
		m.SpecKey = last.Key()
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = m.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("metrics manifest    %s\n", *metricsOut)
	}
}

func writeEventTrace(path, format string, tracer *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if format == "jsonl" {
		err = telemetry.WriteJSONL(f, tracer)
	} else {
		err = telemetry.WriteChromeTrace(f, tracer, 0)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func report(wl string, res *core.Result, impedance float64, control bool, mech actuator.Mechanism, delay int, noise float64) {
	fmt.Printf("workload            %s\n", wl)
	fmt.Printf("impedance           %.0f%% of target\n", impedance*100)
	fmt.Printf("cycles              %d\n", res.Cycles)
	fmt.Printf("instructions        %d (IPC %.2f)\n", res.Stats.Instructions, res.IPC())
	fmt.Printf("current envelope    [%.1f, %.1f] A\n", res.IMin, res.IMax)
	fmt.Printf("voltage range       [%.4f, %.4f] V (nominal %.2f)\n", res.MinV, res.MaxV, res.VNominal)
	fmt.Printf("emergencies         %d cycles (%.4g%% of measured)\n", res.Emergencies, res.EmergencyFreq*100)
	fmt.Printf("energy              %.4g J (avg power %.1f W)\n", res.Energy, res.AvgPower)
	fmt.Printf("branch mispredicts  %d / %d lookups\n", res.Stats.Mispredicts, res.Stats.BranchLookups)
	fmt.Printf("L1D/L1I/L2 miss     %.2f%% / %.2f%% / %.2f%%\n",
		res.Stats.L1DMissRate*100, res.Stats.L1IMissRate*100, res.Stats.L2MissRate*100)
	if control {
		th := res.Thresholds
		fmt.Printf("controller          %s, delay %d, noise %.0fmV\n", mech.Name, delay, noise)
		if th.Stable {
			fmt.Printf("thresholds          low %.4f V / high %.4f V (window %.1f mV)\n", th.Low, th.High, th.SafeWindow*1e3)
		} else {
			fmt.Printf("thresholds          UNSTABLE (no guaranteed pair exists; conservative fallback used)\n")
		}
		fmt.Printf("actuations          %d gating, %d phantom-firing\n", res.LowEvents, res.HighEvents)
	}
}

func writeTrace(path string, tr trace.Trace, name string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return tr.WriteCSV(f, name)
}

// loadProgram fills sp's workload section for the named workload and
// resolves the program through the spec (misspelled benchmark names get
// did-you-mean errors from spec validation). "asm" programs come from a
// file, outside the serializable spec; sp keeps the name for the record.
func loadProgram(sp *spec.RunSpec, wl, asmPath string) (isa.Program, error) {
	sp.Workload.Name = wl
	if wl == "asm" {
		f, err := os.Open(asmPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return isa.Parse(f)
	}
	resolved, err := sp.Resolve()
	if err != nil {
		return nil, err
	}
	return resolved.Program()
}
