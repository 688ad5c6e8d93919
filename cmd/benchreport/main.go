// Command benchreport times the sweep-heavy experiment set serially and in
// parallel and writes the comparison to BENCH_sweep.json.
//
// Usage:
//
//	benchreport                  # writes BENCH_sweep.json in the CWD
//	benchreport -o out.json -repeat 3
//	benchreport -check           # CI gate: telemetry-off regression check
//
// Six timings are reported: serial cold (one worker, all caches flushed),
// parallel cold (one worker per core, caches flushed), serial warm (memos
// populated — measures the kernel/program/envelope cache win), serial cold
// with a disabled cycle-telemetry tracer attached (the "telemetry off"
// tax), serial cold with a disabled span tracer in the run context (the
// "spans off" tax — how didtd runs with -spans=false), and the derived
// speedups; both disabled-tracer taxes must stay under a few percent. The
// five configurations are interleaved round-robin — with the order
// reversed on alternate rounds — and each reports its median, so slow
// machine drift (thermal throttling, background load, turbo decay within
// a round) lands on every configuration equally instead of biasing
// whichever one ran last. The report also snapshots every shared cache's
// hit/miss/eviction counts after the warm pass, so the perf trajectory
// captures cache effectiveness, not just wall time.
//
// -check measures the telemetry-off, spans-off and bare serial cold
// sweeps in the same process (interleaved, medians) and exits non-zero
// when either disabled tracer costs more than -tolerance percent over the
// bare sweep. The gate
// is a ratio on purpose: absolute wall-clock comparisons against a
// committed baseline false-fail whenever a shared host runs slower than
// it did at baseline time.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"didt/internal/experiments"
	"didt/internal/sim"
	"didt/internal/telemetry"
)

var sweepIDs = []string{"table2", "fig14", "stressmark-actuation", "ablation-window"}

// railsSweepIDs is the multi-rail cold sweep: per-rail emergency counts
// across the benchmark set, the per-rail threshold solve, and the
// closed-loop DVS study. The last exercises the rail-graph streaming path
// (sequential, never the lockstep batch), so the sweep's timing tracks the
// multi-rail family's cost independently of the single-rail sweeps above.
// Reported, not gated: the family is new and its cost has no baseline
// contract yet.
var railsSweepIDs = []string{"rails-emergencies", "rails-thresholds", "rails-dvs"}

// Report is the schema of BENCH_sweep.json.
type Report struct {
	GOMAXPROCS      int      `json:"gomaxprocs"`
	NumCPU          int      `json:"num_cpu"`
	GoVersion       string   `json:"go_version"`
	Experiments     []string `json:"experiments"`
	Repeat          int      `json:"repeat"`
	RailsExps       []string `json:"rails_experiments"`
	SerialColdNs    int64    `json:"serial_cold_ns_per_op"`
	MultiRailColdNs int64    `json:"multirail_cold_ns_per_op"`
	ParallelNs      int64    `json:"parallel_cold_ns_per_op"`
	SerialWarmNs    int64    `json:"serial_warm_ns_per_op"`
	TelemetryOffNs  int64    `json:"telemetry_off_ns_per_op"`
	SpansOffNs      int64    `json:"spans_off_ns_per_op"`
	Speedup         float64  `json:"parallel_speedup"`
	CacheSpeedup    float64  `json:"warm_cache_speedup"`
	TelemetryOffPct float64  `json:"telemetry_off_overhead_pct"`
	SpansOffPct     float64  `json:"spans_off_overhead_pct"`
	// ColdSpeedup compares this run's serial cold time against the
	// baseline report it replaces (the previous BENCH_sweep.json); zero
	// when no prior baseline was readable.
	ColdSpeedup   float64                   `json:"cold_speedup_vs_baseline"`
	Caches        map[string]sim.CacheStats `json:"caches"`
	GeneratedUnix int64                     `json:"generated_unix"`
}

func runSet(cfg experiments.Config) error {
	return runIDs(cfg, sweepIDs)
}

func runIDs(cfg experiments.Config, ids []string) error {
	reg := experiments.Registry()
	for _, id := range ids {
		if err := reg[id](cfg, io.Discard); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

// timeRailsOnce runs the multi-rail sweep set cold and returns its wall
// time.
func timeRailsOnce(cfg experiments.Config) (time.Duration, error) {
	sim.ResetCaches()
	start := time.Now()
	if err := runIDs(cfg, railsSweepIDs); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// timeOnce runs the sweep set once and returns its wall time, flushing
// every shared cache first unless the measurement wants them warm.
func timeOnce(cfg experiments.Config, warm bool) (time.Duration, error) {
	if !warm {
		sim.ResetCaches()
	}
	start := time.Now()
	if err := runSet(cfg); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// median reports the median sample (mean of the middle two for even
// counts) — robust to one slow outlier round, unlike best-of, and
// unbiased under monotone machine drift, unlike mean-of-tail.
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func benchConfig() experiments.Config {
	cfg := experiments.Quick()
	cfg.Cycles = 30_000
	cfg.Warmup = 10_000
	cfg.Iterations = 300
	cfg.StressIter = 250
	cfg.Benchmarks = []string{"swim", "gcc"}
	return cfg
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// telemetryOffConfig is the serial cold sweep set with a disabled tracer
// attached to every system — the configuration whose cost the <2%
// overhead contract bounds.
func telemetryOffConfig() experiments.Config {
	cfg := benchConfig()
	cfg.Parallel = 1
	tracer := telemetry.NewTracer(0)
	tracer.SetEnabled(false)
	cfg.Telemetry = tracer
	return cfg
}

// spansOffConfig is the serial cold sweep with a disabled span tracer in
// the run context — exactly how didtd executes with -spans=false. The
// span dispatch in sim.Map must cost one pointer test per job when the
// tracer is off, so this measurement is gated against the bare serial
// sweep the same way the cycle-telemetry one is.
func spansOffConfig() experiments.Config {
	cfg := benchConfig()
	cfg.Parallel = 1
	tracer := telemetry.NewTracer(0)
	tracer.SetEnabled(false)
	cfg.Ctx = telemetry.ContextWithTracer(context.Background(), tracer)
	return cfg
}

// check gates the telemetry-off overhead: a disabled tracer attached to
// every system must cost no more than tolerancePct over the bare serial
// cold sweep. Both configurations are measured in this process,
// interleaved round-robin with medians, and compared against each other —
// a ratio is insensitive to how fast the host happens to be running,
// where the old absolute comparison against the committed baseline's
// wall time false-failed whenever a shared host drifted between the
// baseline run and CI.
func check(baselinePath string, repeat int, tolerancePct float64) {
	if raw, err := os.ReadFile(baselinePath); err != nil {
		fatal(fmt.Errorf("benchreport -check: no baseline: %w", err))
	} else if err := json.Unmarshal(raw, new(Report)); err != nil {
		// The baseline's timings are not compared (see above), but a
		// missing or corrupt artifact still means the perf trajectory is
		// broken and should fail loudly here rather than confuse the next
		// regeneration.
		fatal(fmt.Errorf("benchreport -check: bad baseline %s: %w", baselinePath, err))
	}
	serialCfg := benchConfig()
	serialCfg.Parallel = 1
	var serials, offs, spansOffs []time.Duration
	for r := 0; r < repeat; r++ {
		// Rotate which configuration runs first: under sustained load the
		// host slows down within a round (turbo decay), and a fixed order
		// would systematically tax whichever side runs last.
		blocks := []func() error{
			func() error {
				d, err := timeOnce(serialCfg, false)
				serials = append(serials, d)
				return err
			},
			func() error {
				d, err := timeOnce(telemetryOffConfig(), false)
				offs = append(offs, d)
				return err
			},
			func() error {
				d, err := timeOnce(spansOffConfig(), false)
				spansOffs = append(spansOffs, d)
				return err
			},
		}
		for i := 0; i < len(blocks); i++ {
			if err := blocks[(i+r)%len(blocks)](); err != nil {
				fatal(err)
			}
		}
	}
	serial := median(serials)
	limit := time.Duration(float64(serial) * (1 + tolerancePct/100))
	failed := false
	for _, g := range []struct {
		name string
		d    time.Duration
	}{
		{"telemetry-off", median(offs)},
		{"spans-off", median(spansOffs)},
	} {
		fmt.Printf("%s sweep: measured %v vs bare serial %v, limit %v (+%.0f%%)\n",
			g.name, g.d.Round(time.Millisecond), serial.Round(time.Millisecond),
			limit.Round(time.Millisecond), tolerancePct)
		if g.d > limit {
			fmt.Fprintf(os.Stderr, "FAIL: %s costs more than %.0f%% over the bare serial sweep\n",
				g.name, tolerancePct)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("ok: disabled telemetry and span hot paths within tolerance of the bare sweep")
}

func main() {
	var (
		out       = flag.String("o", "BENCH_sweep.json", "output path")
		repeat    = flag.Int("repeat", 2, "timed repetitions per configuration (best is kept)")
		doCheck   = flag.Bool("check", false, "compare against -baseline and fail on regression instead of writing a report")
		baseline  = flag.String("baseline", "BENCH_sweep.json", "baseline report for -check")
		tolerance = flag.Float64("tolerance", 5, "allowed telemetry-off overhead percent over the bare serial sweep for -check")
	)
	flag.Parse()

	if *doCheck {
		check(*baseline, *repeat, *tolerance)
		return
	}

	// Keep the previous report (if any) around as the baseline the new
	// serial cold time is compared against.
	var prior Report
	if raw, err := os.ReadFile(*out); err == nil {
		_ = json.Unmarshal(raw, &prior)
	}

	cfg := benchConfig()
	serialCfg := cfg
	serialCfg.Parallel = 1
	parallelCfg := cfg
	parallelCfg.Parallel = runtime.GOMAXPROCS(0)

	// Every round measures all four configurations back to back, so
	// whatever the machine is doing in the background hits each
	// configuration in every round rather than only whichever block ran
	// last. Serial warm always runs immediately after serial cold (it
	// times the caches that run just populated); the three blocks —
	// [serial cold + warm], [parallel cold], [telemetry-off cold] —
	// reverse order on odd rounds, because under sustained load the host
	// slows down within a round (turbo decay) and a fixed order would
	// systematically tax whichever block runs last.
	var serialColds, serialWarms, parallelColds, telemOffs, spansOffsT, railsColds []time.Duration
	var caches map[string]sim.CacheStats
	serialBlock := func() error {
		d, err := timeOnce(serialCfg, false)
		if err != nil {
			return err
		}
		serialColds = append(serialColds, d)
		if d, err = timeOnce(serialCfg, true); err != nil {
			return err
		}
		serialWarms = append(serialWarms, d)
		if caches == nil {
			caches = sim.AllCacheStats()
		}
		return nil
	}
	parallelBlock := func() error {
		d, err := timeOnce(parallelCfg, false)
		parallelColds = append(parallelColds, d)
		return err
	}
	offBlock := func() error {
		d, err := timeOnce(telemetryOffConfig(), false)
		telemOffs = append(telemOffs, d)
		return err
	}
	spansOffBlock := func() error {
		d, err := timeOnce(spansOffConfig(), false)
		spansOffsT = append(spansOffsT, d)
		return err
	}
	railsBlock := func() error {
		d, err := timeRailsOnce(serialCfg)
		railsColds = append(railsColds, d)
		return err
	}
	for r := 0; r < *repeat; r++ {
		blocks := []func() error{serialBlock, parallelBlock, offBlock, spansOffBlock, railsBlock}
		if r%2 == 1 {
			blocks = []func() error{railsBlock, spansOffBlock, offBlock, parallelBlock, serialBlock}
		}
		for _, b := range blocks {
			if err := b(); err != nil {
				fatal(err)
			}
		}
	}
	serialCold := median(serialColds)
	serialWarm := median(serialWarms)
	parallelCold := median(parallelColds)
	telemOff := median(telemOffs)
	spansOff := median(spansOffsT)
	railsCold := median(railsColds)

	rep := Report{
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		NumCPU:          runtime.NumCPU(),
		GoVersion:       runtime.Version(),
		Experiments:     sweepIDs,
		RailsExps:       railsSweepIDs,
		Repeat:          *repeat,
		SerialColdNs:    serialCold.Nanoseconds(),
		MultiRailColdNs: railsCold.Nanoseconds(),
		ParallelNs:      parallelCold.Nanoseconds(),
		SerialWarmNs:    serialWarm.Nanoseconds(),
		TelemetryOffNs:  telemOff.Nanoseconds(),
		SpansOffNs:      spansOff.Nanoseconds(),
		Speedup:         float64(serialCold) / float64(parallelCold),
		CacheSpeedup:    float64(serialCold) / float64(serialWarm),
		TelemetryOffPct: 100 * (float64(telemOff)/float64(serialCold) - 1),
		SpansOffPct:     100 * (float64(spansOff)/float64(serialCold) - 1),
		Caches:          caches,
		GeneratedUnix:   time.Now().Unix(),
	}
	if prior.SerialColdNs > 0 {
		rep.ColdSpeedup = float64(prior.SerialColdNs) / float64(serialCold.Nanoseconds())
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: serial %v, parallel(%d) %v (%.2fx), warm %v (%.1fx cache win), telemetry-off %v (%+.1f%%), spans-off %v (%+.1f%%), multi-rail %v\n",
		*out, serialCold.Round(time.Millisecond), rep.GOMAXPROCS,
		parallelCold.Round(time.Millisecond), rep.Speedup,
		serialWarm.Round(time.Millisecond), rep.CacheSpeedup,
		telemOff.Round(time.Millisecond), rep.TelemetryOffPct,
		spansOff.Round(time.Millisecond), rep.SpansOffPct,
		railsCold.Round(time.Millisecond))
}
