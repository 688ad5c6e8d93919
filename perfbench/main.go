// Command perfbench is the repository's benchmark: five named workloads
// that drive the simulator the way its users do, each reporting end-to-end
// metrics and, in a traced run, per-layer metrics measured by replaying the
// closed loop one layer at a time.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sweep-closed --seed 1 --seconds 18 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 18 --trace 1
//
// run.sh builds this package into .bench_build/ and runs it. Every workload
// prints a detail record (environment stamp, sample counts, percentiles,
// per-experiment times, non-test lines of code per package) and then, as
// its last line, the result: {"correct", "attempted", "failed", "metrics"}.
// The process exits 1 when any correctness check fails. README.md maps each
// metric to the layer it measures and the workload it should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"didt/internal/sim"
	"didt/internal/telemetry"
)

// workloadDef is one named benchmark input. run performs the timed
// operations and fills the end-to-end metrics; with tracing on it also
// fills the per-layer metrics.
type workloadDef struct {
	name string
	why  string
	run  func(r *runner) error
	// netBound marks a workload whose operation is mostly a loopback HTTP
	// exchange; it is normalized by the HTTP reference alone (see host.go).
	netBound bool
}

var workloads = []workloadDef{sweepOpen, sweepClosed, sweepRails, didtdCold, didtdWarm}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// options configures one workload run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// workdir holds the run's result stores and span file.
	workdir string
	// srcRoot is the repository root, scanned for the lines-of-code table.
	srcRoot string
	// size scales the work: fullSize for the benchmark, shortSize for tests.
	size sizing
	// digests pins the SHA-256 of rendered sweep output per workload and
	// size at pinnedSeed.
	digests map[string]string
}

// runner carries one workload run's measurements and verdicts.
type runner struct {
	opts   options
	tracer *telemetry.Tracer // nil unless tracing
	ctx    context.Context   // carries the workload's root span

	metrics map[string]float64
	detail  map[string]any // reported in the detail record only

	attempted, failed int
	failures          []string

	// Pauses between operations (see host.go).
	echo                  *echoRef
	lastPause             time.Time
	paused                time.Duration
	rssWindowed           bool
	rssPeaks              []float64    // peak RSS of each window between pauses
	cpuSpeeds, echoSpeeds []float64    // reference speeds timed in the pauses
	inPause               func() error // a workload's own work in each pause
}

// fail records one failed operation.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// span opens a span at a benchmark call site when tracing is on; the
// returned func ends it (and is a no-op when tracing is off).
func (r *runner) span(ctx context.Context, name string, attrs ...telemetry.Attr) (context.Context, func()) {
	if !r.tracer.Enabled() {
		return ctx, func() {}
	}
	ctx, sp := r.tracer.Start(ctx, name, attrs...)
	return ctx, func() {
		if sp.Enabled() {
			sp.End()
		}
	}
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name, or all to run each in its own process")
	seed := fs.Int64("seed", pinnedSeed, "input generator seed")
	seconds := fs.Float64("seconds", 18, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "run"), "directory for result stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload <name|all> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (valid: %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	digests, err := pinnedDigests()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return execute(w, options{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		workdir: *workdir,
		srcRoot: ".",
		size:    fullSize,
		digests: digests,
	}, stdout, stderr)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runAll re-executes this binary once per workload, so process-wide caches,
// the default metrics registry and peak RSS never leak between workloads.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, name := range workloadNames() {
		cmd := exec.Command(self, append(append([]string(nil), args...), "--workload", name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// execute runs one workload and prints its detail record and result. It
// returns 1 when a check failed or the run could not complete.
func execute(w workloadDef, opts options, stdout, stderr io.Writer) int {
	if err := checkCacheCoverage(engineCaches, sim.CacheCapacityNames()); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(opts.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	r := &runner{
		opts:    opts,
		ctx:     context.Background(),
		metrics: map[string]float64{},
		detail:  map[string]any{},
		echo:    newEchoRef(),
	}
	defer r.echo.close()
	if opts.trace {
		r.tracer = telemetry.NewTracer(0)
		r.tracer.SetSpanRingCap(1 << 17)
	}
	ctx, end := r.span(r.ctx, "workload", telemetry.AttrStr("name", w.name))
	r.ctx = ctx
	err := w.run(r)
	end()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if opts.trace {
		path := filepath.Join(opts.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, opts.seed))
		if err := writeSpans(path, r.tracer); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		r.detail["span_file"] = path
		r.detail["span_self_ms"] = spanSelfTimes(r.tracer.Spans())
	}

	// End-to-end values are reported at nominal host speed; the raw
	// measurements stay in the detail record.
	if len(r.rssPeaks) == 0 {
		fmt.Fprintf(stderr, "perfbench: %s: no memory window closed\n", w.name)
		return 1
	}
	r.metrics["peak_rss_mb"] = median(r.rssPeaks)
	slow := r.slowness(w.netBound)
	raw := map[string]float64{}
	for name, power := range hostScaled {
		raw[name] = r.metrics[name]
		r.metrics[name] /= math.Pow(slow, power)
	}
	r.detail["raw"] = raw
	r.detail["host_slowness"] = slow
	r.detail["cpu_ref_speeds"] = r.cpuSpeeds
	r.detail["echo_ref_speeds"] = r.echoSpeeds
	r.detail["rss_window_peaks_mb"] = r.rssPeaks
	r.detail["rss_windowed"] = r.rssWindowed

	want := endToEnd
	if opts.trace {
		want = perLayer
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := r.metrics[m.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", w.name, m.name)
			return 1
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if res.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s: no operations ran\n", w.name)
		return 1
	}

	detail := r.detail
	detail["workload"] = w.name
	detail["why"] = w.why
	detail["seed"] = opts.seed
	detail["seconds"] = opts.seconds
	detail["trace"] = opts.trace
	detail["env"] = environment()
	detail["measured"] = r.metrics
	detail["failures"] = r.failures
	detail["loc"] = linesOfCode(opts.srcRoot)
	for _, v := range []any{detail, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !res.Correct {
		for _, f := range r.failures {
			fmt.Fprintf(stderr, "perfbench: %s: FAIL %s\n", w.name, f)
		}
		return 1
	}
	return 0
}

// environment stamps the record with the machine and build that produced
// it; absolute numbers mean nothing without it.
func environment() map[string]any {
	env := map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"date":       time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["vcs_revision"] = s.Value
			case "vcs.modified":
				env["vcs_modified"] = s.Value
			}
		}
	}
	return env
}

// linesOfCode counts non-test Go lines per package directory under root.
// It is informational: the trend shows whether a change left the code
// smaller.
func linesOfCode(root string) map[string]int {
	loc := map[string]int{}
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return nil
		}
		loc[filepath.ToSlash(rel)] += strings.Count(string(raw), "\n")
		return nil
	})
	return loc
}

func writeSpans(path string, t *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteSpansJSONL(f, t); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// spanSelfTimes totals each span name's self time in milliseconds: its
// duration minus the time its direct children cover.
func spanSelfTimes(spans []telemetry.SpanRecord) map[string]float64 {
	children := map[string]int64{}
	for _, s := range spans {
		if s.ParentID != "" {
			children[s.ParentID] += s.DurationNs
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		self[s.Name] += float64(s.DurationNs-children[s.SpanID]) / 1e6
	}
	return self
}
