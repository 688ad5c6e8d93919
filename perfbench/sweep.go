package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"didt/internal/core"
	"didt/internal/experiments"
	"didt/internal/spec"
	"didt/internal/telemetry"
	"didt/internal/workload"
)

// pinnedSeed is the default seed; testdata/digests.json pins the rendered
// sweep output at this seed.
const pinnedSeed = 1

//go:embed testdata/digests.json
var digestsJSON []byte

func pinnedDigests() (map[string]string, error) {
	var d map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return d, nil
}

// sizing scales a run. fullSize is the benchmark; shortSize shrinks every
// workload to a fraction of a second for the package tests.
type sizing struct {
	short        bool
	minReps      int           // sweeps: timed reps run whatever --seconds says
	setupReps    int           // samples behind each set-up probe
	replayCycles int           // cycles recorded and replayed per layer
	probeReps    int           // direct store and handler calls per probe
	simCycles    uint64        // didtd: cycle budget of every generated spec
	batchEntries int           // didtd-cold: specs per /v1/batch request
	warmKeys     int           // didtd-warm: distinct keys the timed phase reads
	restarts     int           // didtd: restarts timed in each pause
	refSample    time.Duration // time per reference kernel in each pause
}

var (
	fullSize = sizing{
		minReps: 3, setupReps: 7, replayCycles: 131_072, probeReps: 200,
		simCycles: 60_000, batchEntries: 48, warmKeys: 64, restarts: 3,
		refSample: 100 * time.Millisecond,
	}
	shortSize = sizing{
		short: true, minReps: 1, setupReps: 1, replayCycles: 2_048, probeReps: 3,
		simCycles: 3_000, batchEntries: 3, warmKeys: 3, restarts: 1,
		refSample: 5 * time.Millisecond,
	}
)

// sweepDef is a sweep workload: experiments run serially from empty caches
// each rep, as `experiments -parallel 1` would on a fresh process.
type sweepDef struct {
	name, why string
	ids       []string
	config    func() experiments.Config
	// benchmarks are permuted by the seed; the set, and so the work, is
	// fixed.
	benchmarks []string
	// setup lists the representative run specs whose cold set-up
	// (program generation plus core.NewSystem) setup_s sums.
	setup []spec.RunSpec
	// replay is the controlled single-rail spec the per-layer replay steps.
	replay spec.RunSpec
}

func (s sweepDef) def() workloadDef {
	return workloadDef{name: s.name, why: s.why, run: s.run}
}

var (
	sweepOpen = sweepDef{
		name: "sweep-open",
		why:  "open-loop path: cpu/power once per benchmark, then FFT convolution at four impedances; no sensor, controller, solver or batch kernel",
		ids:  []string{"table2", "fig10"},
		config: func() experiments.Config {
			return experiments.Quick()
		},
		benchmarks: workload.Names(),
		setup: []spec.RunSpec{
			runSpec("gcc", 90_000, 1200, 1.0, false, "", 0),
			runSpec("swim", 90_000, 1200, 2.0, false, "", 0),
		},
		replay: runSpec("swim", 0, 3000, 2.0, true, "FU/DL1", 2),
	}.def()

	sweepClosed = sweepDef{
		name: "sweep-closed",
		why:  "controlled runs: SoA batch kernel with lane handoff, streaming PDN step, sensor and policy per cycle, threshold solves",
		ids:  []string{"fig14", "stressmark-actuation", "ablation-window"},
		config: func() experiments.Config {
			cfg := experiments.Quick()
			cfg.Cycles, cfg.Warmup, cfg.Iterations, cfg.StressIter = 30_000, 10_000, 300, 250
			return cfg
		},
		benchmarks: []string{"swim", "gcc"},
		setup: []spec.RunSpec{
			runSpec("swim", 30_000, 300, 2.0, true, "FU", 2),
			runSpec("gcc", 30_000, 300, 2.0, true, "FU/DL1/IL1", 1),
			runSpec("stressmark", 30_000, 250, 2.0, true, "ideal", 3),
		},
		replay: runSpec("gcc", 0, 3000, 2.0, true, "FU/DL1", 2),
	}.def()

	sweepRails = sweepDef{
		name: "sweep-rails",
		why:  "multi-rail graph path: per-scope envelopes, per-rail calibration and solves, never batched; mostly set-up work",
		ids:  []string{"rails-emergencies", "rails-thresholds", "rails-dvs"},
		config: func() experiments.Config {
			return experiments.Quick()
		},
		benchmarks: experiments.Quick().Benchmarks,
		setup: []spec.RunSpec{
			threeRails(runSpec("swim", 90_000, 1200, 3.0, false, "", 0)),
			threeRails(runSpec("gcc", 90_000, 1200, 2.0, true, "FU/DL1", 2)),
			withDVS(threeRails(runSpec("galgel", 90_000, 1200, 2.0, true, "FU", 1))),
		},
		replay: runSpec("galgel", 0, 3000, 2.0, true, "FU/DL1", 2),
	}.def()
)

// runSpec builds a sparse single-rail spec; maxCycles 0 leaves the budget
// to the caller.
func runSpec(name string, maxCycles uint64, iterations int, pct float64, control bool, mechanism string, delay int) spec.RunSpec {
	var sp spec.RunSpec
	sp.Workload.Name = name
	sp.Workload.Iterations = iterations
	sp.PDN.ImpedancePct = pct
	sp.Control.Enabled = control
	sp.Actuator.Mechanism = mechanism
	sp.Sensor.DelayCycles = delay
	sp.Budget.MaxCycles = maxCycles
	if maxCycles > 0 {
		sp.Budget.WarmupCycles = maxCycles / 4
	}
	return sp
}

// threeRails applies the rails-* experiments' three-domain topology.
func threeRails(sp spec.RunSpec) spec.RunSpec {
	sp.PDN.Rails = []spec.RailSpec{
		{Name: "core", Scopes: []string{"fu", "uncore"}},
		{Name: "mem", Scopes: []string{"dl1"}},
		{Name: "fetch", Scopes: []string{"il1"}},
	}
	sp.PDN.Coupling = []spec.CouplingSpec{
		{From: "core", To: "mem", K: 0.2},
		{From: "mem", To: "core", K: 0.2},
		{From: "core", To: "fetch", K: 0.1},
		{From: "fetch", To: "core", K: 0.1},
	}
	return sp
}

func withDVS(sp spec.RunSpec) spec.RunSpec {
	sp.Actuator.DVS = &spec.DVSSpec{Rail: "core"}
	return sp
}

// seeded returns the spec with the run's seed applied.
func seeded(sp spec.RunSpec, seed int64) spec.RunSpec {
	sp.Seed = spec.NewSeed(seed)
	return sp
}

// shrink is the short sizing of a sweep configuration.
func shrink(cfg experiments.Config) experiments.Config {
	cfg.Cycles, cfg.Warmup, cfg.Iterations, cfg.StressIter = 4_000, 1_000, 40, 30
	return cfg
}

// sweepConfig derives the run's experiment configuration: the seed sets
// the sensor-noise stream and the order benchmarks are swept in.
func (s sweepDef) sweepConfig(opts options) experiments.Config {
	cfg := s.config()
	cfg.Seed = opts.seed
	cfg.Parallel = 1
	bench := append([]string(nil), s.benchmarks...)
	if opts.size.short {
		cfg = shrink(cfg)
		bench = bench[:2]
	}
	rand.New(rand.NewSource(opts.seed)).Shuffle(len(bench), func(i, j int) { bench[i], bench[j] = bench[j], bench[i] })
	cfg.Benchmarks = bench
	return cfg
}

func (s sweepDef) run(r *runner) error {
	opts := r.opts
	cfg := s.sweepConfig(opts)
	setupSpecs := make([]spec.RunSpec, len(s.setup))
	for i, sp := range s.setup {
		if opts.size.short {
			sp.Budget.MaxCycles, sp.Budget.WarmupCycles, sp.Workload.Iterations = 4_000, 1_000, 40
		}
		setupSpecs[i] = seeded(sp, opts.seed)
	}

	var reps, traced, untraced, setups []float64
	expTimes := map[string][]float64{}
	var first []byte
	delta := counters{}
	if err := r.pause(true); err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < opts.size.minReps || time.Since(start).Seconds() < opts.seconds; i++ {
		resetCaches()
		// With tracing on, every other rep records spans, so the
		// record can report what the spans cost.
		spans := r.tracer != nil && i%2 == 0
		before := snapshot(nil)
		t0 := time.Now()
		out, times, err := s.rep(r, cfg, i, spans)
		d := time.Since(t0)
		delta.add(before, snapshot(nil))
		r.attempted++
		if err != nil {
			r.fail("rep %d: %v", i, err)
			continue
		}
		reps = append(reps, ms(d))
		if spans {
			traced = append(traced, ms(d))
		} else {
			untraced = append(untraced, ms(d))
		}
		for id, t := range times {
			expTimes[id] = append(expTimes[id], t)
		}
		if first == nil {
			first = out
		} else if !bytes.Equal(out, first) {
			r.fail("rep %d rendered different bytes than rep 0", i)
		}
		// One set-up sample per rep, so setup_s sees the same stretch of
		// host time as the reps.
		sample, err := setupSeconds(setupSpecs)
		if err != nil {
			return err
		}
		setups = append(setups, sample)
		if err := r.pause(true); err != nil {
			return err
		}
	}
	if len(reps) == 0 {
		return fmt.Errorf("every rep failed")
	}

	// The determinism contract: the same bytes at any worker count.
	par := cfg
	par.Parallel = 2
	resetCaches()
	r.attempted++
	if out, _, err := s.rep(r, par, -1, false); err != nil {
		r.fail("parallel verification rep: %v", err)
	} else if !bytes.Equal(out, first) {
		r.fail("parallel verification rep rendered different bytes than the serial reps")
	}
	sum := sha256.Sum256(first)
	digest := hex.EncodeToString(sum[:])
	r.detail["digest"] = digest
	if opts.seed == pinnedSeed {
		key := s.name
		if opts.size.short {
			key += ".short"
		}
		if want := opts.digests[key]; want != digest {
			// Every rep rendered these bytes, so every rep was wrong.
			for range reps {
				r.fail("rendered output sha256 %s, pinned %q for %s", digest, want, key)
			}
		}
	}

	var repSeconds float64
	for _, d := range reps {
		repSeconds += d / 1e3
	}
	r.metrics["setup_s"] = median(setups)
	r.metrics["op_mean_ms"] = mean(reps)
	r.metrics["ops_per_s"] = float64(len(reps)) / repSeconds
	r.detail["op"] = "one cold rep of " + strings.Join(s.ids, " + ")
	r.detail["reps_ms"] = reps
	r.detail["setup_s_samples"] = setups
	r.detail["sim_mcycles_per_s"] = delta["core.cycles_per_op"] / 1e6 / repSeconds
	expMedians := map[string]float64{}
	for id, ts := range expTimes {
		expMedians[id] = median(ts)
	}
	r.detail["experiments_s"] = expMedians
	if r.tracer == nil {
		return nil
	}
	perOp(r.metrics, delta, len(reps))
	r.metrics["trace.overhead_pct"] = overheadPct(traced, untraced)
	return r.measureLayers(seeded(s.replay, opts.seed))
}

// rep renders the workload's experiments once into one byte stream and
// reports each experiment's seconds.
func (s sweepDef) rep(r *runner, cfg experiments.Config, i int, spans bool) ([]byte, map[string]float64, error) {
	ctx, end := context.Background(), func() {}
	if spans {
		ctx, end = r.span(r.ctx, "rep", telemetry.AttrInt("rep", int64(i)))
	}
	defer end()
	var buf bytes.Buffer
	times := map[string]float64{}
	reg := experiments.Registry()
	for _, id := range s.ids {
		endExp := func() {}
		if spans {
			_, endExp = r.span(ctx, "experiment", telemetry.AttrStr("id", id))
		}
		fmt.Fprintf(&buf, "== %s ==\n", id)
		t0 := time.Now()
		err := reg[id](cfg, &buf)
		times[id] = time.Since(t0).Seconds()
		endExp()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", id, err)
		}
	}
	return buf.Bytes(), times, nil
}

// setupSeconds is the summed cold set-up of specs: program generation
// plus core.NewSystem, each after emptying every engine cache.
func setupSeconds(specs []spec.RunSpec) (float64, error) {
	total := 0.0
	for _, sp := range specs {
		sp, err := sp.Resolve()
		if err != nil {
			return 0, err
		}
		resetCaches()
		t0 := time.Now()
		prog, err := sp.Program()
		if err != nil {
			return 0, err
		}
		sys, err := core.NewSystem(prog, core.Options{Spec: sp})
		if err != nil {
			return 0, fmt.Errorf("set-up %s: %w", sp.Workload.Name, err)
		}
		total += time.Since(t0).Seconds()
		sys.Close()
	}
	return total, nil
}

// overheadPct compares the mean traced operation with the mean untraced
// one, in percent.
func overheadPct(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return 100 * (mean(traced)/mean(untraced) - 1)
}
