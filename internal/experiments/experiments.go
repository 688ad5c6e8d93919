// Package experiments regenerates every table and figure in the paper's
// evaluation. Each experiment has an identifier (fig1..fig18, table2,
// table3, stressmark-actuation), a typed result, and a text renderer; the
// cmd/experiments tool and the repository's benchmark harness both drive
// this package.
//
// Absolute numbers differ from the paper's (the substrate is a
// reimplemented simulator, not the authors' testbed); the shapes — which
// mechanism wins, where the knees fall, what sensing delay costs — are the
// reproduction targets. EXPERIMENTS.md records paper-vs-measured for every
// entry.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"

	"didt/internal/core"
	"didt/internal/isa"
	"didt/internal/sim"
	"didt/internal/spec"
	"didt/internal/telemetry"
	"didt/internal/workload"
)

// Config scales the whole harness. The defaults run every experiment in a
// few minutes; Quick is for unit tests and benchmarks.
type Config struct {
	Cycles     uint64 // per-run cycle cap
	Warmup     uint64 // cycles excluded from voltage statistics
	Iterations int    // benchmark loop iterations
	StressIter int    // stressmark loop iterations
	Benchmarks []string
	Seed       int64

	// Parallel bounds the worker count for the sweep-heavy experiments;
	// 0 takes the process default (GOMAXPROCS, or sim.SetDefaultWorkers).
	// Every simulation takes explicit seeds, so the worker count never
	// changes results — parallel output is byte-identical to serial.
	Parallel int

	// Telemetry, when non-nil, threads a cycle tracer through every
	// system the experiments build. It never affects rendered output or
	// memo keys (runs are identical traced or not); serialized traces are
	// reproducible at any Parallel setting because streams are ordered
	// canonically, not by completion.
	Telemetry *telemetry.Tracer

	// Ctx, when non-nil, bounds every sweep the experiment runs: request
	// cancellation and deadlines propagate into sim.Map, which stops
	// dispatching jobs and returns the context's error. It is excluded
	// from memo keys — like Parallel, it must never change results. The
	// didtd server threads each request's context through this field; nil
	// means context.Background() (the CLI behaviour).
	Ctx context.Context
}

// Default is the full-size configuration.
func Default() Config {
	return Config{
		Cycles:     220_000,
		Warmup:     40_000,
		Iterations: 3000,
		StressIter: 2500,
	}
}

// Quick is a reduced configuration for tests and benchmarks.
func Quick() Config {
	return Config{
		Cycles:     90_000,
		Warmup:     25_000,
		Iterations: 1200,
		StressIter: 1000,
		Benchmarks: []string{"swim", "gcc", "galgel"},
	}
}

func (c Config) withDefaults() Config {
	d := Default()
	if c.Cycles == 0 {
		c.Cycles = d.Cycles
	}
	if c.Warmup == 0 {
		c.Warmup = d.Warmup
	}
	if c.Iterations == 0 {
		c.Iterations = d.Iterations
	}
	if c.StressIter == 0 {
		c.StressIter = d.StressIter
	}
	return c
}

// Validate rejects sweep configurations that name unknown benchmarks,
// reporting every bad name at once with did-you-mean hints. The CLI turns
// the error into an exit-2 usage failure and the server into a 400; both
// go through this one path, so the vocabulary and wording match.
func (c Config) Validate() error {
	var errs []error
	for _, b := range c.Benchmarks {
		if err := spec.ValidBenchmark(b); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// ResolveIDs validates experiment identifiers against the registry,
// reporting every unknown identifier at once with did-you-mean hints, and
// returns them unchanged on success. An empty list means "all" and
// resolves to IDs().
func ResolveIDs(ids []string) ([]string, error) {
	if len(ids) == 0 {
		return IDs(), nil
	}
	reg := Registry()
	var errs []error
	for _, id := range ids {
		if _, ok := reg[id]; !ok {
			errs = append(errs, spec.UnknownName(fmt.Sprintf("unknown experiment %q", id), id, IDs()))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return ids, nil
}

// benchmarks resolves the benchmark list (nil = all 26).
func (c Config) benchmarks() []string {
	if len(c.Benchmarks) > 0 {
		return c.Benchmarks
	}
	return workload.Names()
}

// challenging resolves the control-study subset: the paper's eight most
// voltage-variable benchmarks, intersected with any configured filter.
func (c Config) challenging() []string {
	eight := workload.ChallengingEight()
	if len(c.Benchmarks) == 0 {
		return eight
	}
	allowed := map[string]bool{}
	for _, b := range c.Benchmarks {
		allowed[b] = true
	}
	var out []string
	for _, b := range eight {
		if allowed[b] {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		return c.Benchmarks
	}
	return out
}

func (c Config) stressProgram() isa.Program {
	return workload.StressmarkCached(workload.StressmarkParams{Iterations: c.StressIter})
}

// program resolves a workload name: "stressmark" or a SPEC profile.
func (c Config) program(name string) (isa.Program, error) {
	if name == "stressmark" {
		return c.stressProgram(), nil
	}
	p, err := workload.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	p.Iterations = c.Iterations
	return workload.GenerateCached(p), nil
}

// workers resolves the sweep worker count for this configuration.
func (c Config) workers() int {
	if c.Parallel > 0 {
		return c.Parallel
	}
	return sim.DefaultWorkers()
}

// context resolves the configured request context (nil = Background).
func (c Config) context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// sweep fans fn out over items on the configured worker pool, returning
// results in item order (the determinism contract: identical output at any
// worker count). The configured context bounds the sweep.
func sweep[In, Out any](cfg Config, items []In, fn func(In) (Out, error)) ([]Out, error) {
	return sim.Sweep(cfg.context(), cfg.workers(), items, func(_ context.Context, item In) (Out, error) {
		return fn(item)
	})
}

// seq returns [0, 1, ..., n-1], the index list for grid sweeps.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// baseSpec derives the per-run spec every run of this sweep shape starts
// from: the Config is only sweep shape (which experiments, how many
// iterations, how wide); everything a single run needs is a RunSpec.
// Experiments override individual sections (controller, actuator, CPU
// sizing) on top of this base.
func (c Config) baseSpec(pct float64) spec.RunSpec {
	var s spec.RunSpec
	s.PDN.ImpedancePct = pct
	s.Budget.MaxCycles = c.Cycles
	s.Budget.WarmupCycles = c.Warmup
	s.Seed = spec.NewSeed(c.Seed)
	return s
}

// Spec derives the resolved base run spec this sweep shape starts from;
// experiments override individual sections (impedance, controller,
// actuator) per sweep point. Run manifests record it, with its Key, so a
// sweep's output is traceable to one concrete configuration.
func (c Config) Spec() spec.RunSpec {
	return c.withDefaults().baseSpec(0).WithDefaults()
}

// baseOptions assembles core options for an uncontrolled run.
func (c Config) baseOptions(pct float64) core.Options {
	return core.Options{
		Spec:      c.baseSpec(pct),
		Telemetry: c.Telemetry,
	}
}

// memo caches expensive shared studies within a process (fig14 and fig15
// render the same sweep, as do fig17 and fig18) with singleflight
// semantics: concurrent experiments never compute the same study twice.
// The capacity bound keeps long-lived processes (benchmark harnesses,
// future servers) from growing it without limit.
var memo = sim.Register("experiments_memo", sim.NewCache[string, interface{}](256))

// ResetMemo drops every cached study. Benchmarks and determinism tests use
// it to force recomputation.
func ResetMemo() { memo.Reset() }

// MemoStats reports the shared study memo's effectiveness.
func MemoStats() sim.CacheStats { return memo.Stats() }

// memoIdentity is everything that affects a study's results: the derived
// base run spec (budget, seed — the per-run identity) plus the sweep-shape
// fields that pick programs and points. Parallel and Ctx are deliberately
// excluded — the worker count and request context must never change
// results, and keying on them would defeat the fig14/fig15 (and
// fig17/fig18) sharing.
type memoIdentity struct {
	Experiment string       `json:"experiment"`
	Base       spec.RunSpec `json:"base"`
	Iterations int          `json:"iterations"`
	StressIter int          `json:"stress_iter"`
	Benchmarks []string     `json:"benchmarks"`
}

// memoKey is the study's content hash, built from the same fingerprint
// primitive as spec.RunSpec.Key, over the unresolved base spec (so sparse
// configs that resolve identically still keep their own entries, matching
// the cache's historical structure).
func memoKey(name string, cfg Config) string {
	return name + "|" + sim.Fingerprint(memoIdentity{
		Experiment: name,
		Base:       cfg.baseSpec(0),
		Iterations: cfg.Iterations,
		StressIter: cfg.StressIter,
		Benchmarks: cfg.Benchmarks,
	})
}

// sweepIdentity is everything that affects a rendered sweep response: the
// resolved experiment list in execution order plus the same sweep-shape
// fields memoIdentity keys on. Parallel and Ctx are excluded for the same
// reason they are excluded there — the determinism contract promises the
// bytes do not depend on them.
type sweepIdentity struct {
	IDs        []string     `json:"ids"`
	Base       spec.RunSpec `json:"base"`
	Iterations int          `json:"iterations"`
	StressIter int          `json:"stress_iter"`
	Benchmarks []string     `json:"benchmarks"`
}

// ResultKey is the content hash of the rendered output for running ids
// under this configuration — the identity didtd's result store files a
// sweep response under. Defaults are applied first so sparse and explicit
// spellings of the same sweep share one entry.
func (c Config) ResultKey(ids []string) string {
	d := c.withDefaults()
	return sim.Fingerprint(sweepIdentity{
		IDs:        ids,
		Base:       d.baseSpec(0),
		Iterations: d.Iterations,
		StressIter: d.StressIter,
		Benchmarks: d.Benchmarks,
	})
}

func memoized[T any](name string, cfg Config, compute func() (T, error)) (T, error) {
	// A request span around the cache decision: the hit/miss attribute is
	// how a trace explains where a sweep's time went (a hit is microseconds,
	// a miss is the whole study). Spans never influence the computation.
	var span *telemetry.Span
	if tr := telemetry.TracerFromContext(cfg.context()); tr.Enabled() {
		_, span = tr.Start(cfg.context(), "experiments.memo", telemetry.AttrStr("study", name))
	}
	computed := false
	v, err := memo.Get(memoKey(name, cfg), func() (interface{}, error) {
		computed = true
		return compute()
	})
	if span.Enabled() {
		// computed stays false when singleflight handed us another caller's
		// result, which is a hit from this request's perspective.
		span.SetAttr("cache_hit", strconv.FormatBool(!computed))
		span.End()
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// Runner executes one experiment and renders it.
type Runner func(cfg Config, w io.Writer) error

// experiment is one entry of the experiment table.
type experiment struct {
	id  string
	run Runner
}

// experimentTable lists every experiment once, in the paper's order;
// Registry and IDs both derive from it. It is a function that Registry
// calls, not a package variable, so the purity analyzer reaches every
// runner from the experiments.Registry root.
func experimentTable() []experiment {
	return []experiment{
		{"fig1", rendered(Fig1)},
		{"fig2", rendered(Fig2)},
		{"fig3", pulse("fig3")},
		{"fig4", pulse("fig4")},
		{"fig5", pulse("fig5")},
		{"fig6", pulse("fig6")},
		{"fig9", rendered(Fig9)},
		{"table2", rendered(Table2)},
		{"fig10", rendered(Fig10)},
		{"fig11", rendered(Fig11)},
		{"table3", rendered(Table3)},
		{"fig14", renderFig14},
		{"fig15", renderFig15},
		{"fig16", renderFig16},
		{"fig17", renderFig17},
		{"fig18", renderFig18},
		{"stressmark-actuation", renderStressmarkActuation},
		// Section 6 / discussion extensions and ablations.
		{"asymmetric", renderAsymmetric},
		{"pid", renderPID},
		{"ramp-policy", renderRampPolicy},
		{"ablation-gating", renderGatingAblation},
		{"locality", renderLocality},
		{"software-scheduling", renderSoftwareScheduling},
		{"ablation-window", renderWindowAblation},
		{"recovery-policy", renderRecovery},
		// Multi-rail PDN family: per-domain delivery, cross-domain coupling,
		// per-rail control, and the DVS actuator.
		{"rails-emergencies", rendered(RailsEmergencies)},
		{"rails-resonance", rendered(RailsResonance)},
		{"rails-thresholds", rendered(RailsThresholds)},
		{"rails-dvs", rendered(RailsDVS)},
	}
}

// rendered is the Runner of a study whose result renders itself: run the
// study, then render its result.
func rendered[R interface{ Render(io.Writer) }](study func(Config) (R, error)) Runner {
	return func(cfg Config, w io.Writer) error {
		r, err := study(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	}
}

// pulse is the Runner of one of the pulse figures (fig3–fig6).
func pulse(id string) Runner {
	return rendered(func(cfg Config) (*PulseResult, error) { return Pulse(cfg, id) })
}

// Registry maps experiment identifiers to runners.
func Registry() map[string]Runner {
	reg := map[string]Runner{}
	for _, e := range experimentTable() {
		reg[e.id] = e.run
	}
	return reg
}

// IDs lists experiment identifiers in the paper's order.
func IDs() []string {
	var ids []string
	for _, e := range experimentTable() {
		ids = append(ids, e.id)
	}
	return ids
}
