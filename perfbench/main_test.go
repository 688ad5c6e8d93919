package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"didt/internal/sim"
)

func TestSummarizeTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		tailQ  float64
		tail   float64
		beyond int
	}{
		{n: 9},
		{n: 39},
		{n: 40, tailQ: 0.75, tail: 30, beyond: 10},
		{n: 99, tailQ: 0.75, tail: 75, beyond: 24},
		{n: 100, tailQ: 0.9, tail: 90, beyond: 10},
		{n: 240, tailQ: 0.95, tail: 228, beyond: 12},
		{n: 1000, tailQ: 0.99, tail: 990, beyond: 10},
		{n: 10000, tailQ: 0.999, tail: 9990, beyond: 10},
	} {
		got := summarize(seq(tc.n))
		want := percentileSummary{N: tc.n, P50: (float64(tc.n) + 1) / 2, TailQ: tc.tailQ, Tail: tc.tail, Beyond: tc.beyond}
		if got != want {
			t.Errorf("summarize(1..%d) = %+v, want %+v", tc.n, got, want)
		}
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNamesAreWellFormedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %q listed twice", m.name)
		}
		seen[m.name] = true
	}
}

// benchmarkJSON is the part of BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names, whys []string
	for _, w := range b.Workloads {
		names, whys = append(names, w.Name), append(whys, w.Why)
	}
	var codeWhys []string
	for _, w := range workloads {
		codeWhys = append(codeWhys, w.why)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, code %s", got, want)
	}
	if got, want := strings.Join(whys, "\n"), strings.Join(codeWhys, "\n"); got != want {
		t.Errorf("BENCHMARK.json workload reasons differ from the code:\n%s\nvs\n%s", got, want)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, code []metric) {
		if len(listed) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(listed), len(code))
			return
		}
		for i, m := range code {
			if listed[i].Name != m.name || listed[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, listed[i].Name, listed[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestCacheCoverage(t *testing.T) {
	if err := checkCacheCoverage(engineCaches, sim.CacheCapacityNames()); err != nil {
		t.Fatal(err)
	}
	registered := append(sim.CacheCapacityNames(), "added_later")
	if err := checkCacheCoverage(engineCaches, registered); err == nil || !strings.Contains(err.Error(), "added_later") {
		t.Errorf("an unlisted registered cache passed the guard: %v", err)
	}
	if err := checkCacheCoverage(engineCaches[1:], sim.CacheCapacityNames()); err == nil {
		t.Error("a registered cache missing from the reset table passed the guard")
	}
}

// shortRun executes one workload at test size and returns its exit code
// and parsed result line.
func shortRun(t *testing.T, w workloadDef, trace bool, digests map[string]string) (int, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := execute(w, options{
		seed:    pinnedSeed,
		seconds: 0.01,
		trace:   trace,
		workdir: t.TempDir(),
		srcRoot: "..",
		size:    shortSize,
		digests: digests,
	}, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", w.name, err, out.String(), errOut.String())
	}
	if code != 0 {
		t.Logf("%s stderr:\n%s", w.name, errOut.String())
	}
	return code, res
}

func TestShortRunsEmitExactlyTheListedMetrics(t *testing.T) {
	digests, err := pinnedDigests()
	if err != nil {
		t.Fatal(err)
	}
	b := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			code, res := shortRun(t, w, trace, digests)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: exit %d, %+v", w.name, trace, code, res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestCorruptedDigestFailsTheRun(t *testing.T) {
	digests, err := pinnedDigests()
	if err != nil {
		t.Fatal(err)
	}
	digests["sweep-closed.short"] = strings.Repeat("0", 64)
	w, _ := workloadByName("sweep-closed")
	code, res := shortRun(t, w, false, digests)
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted digest: exit %d, %+v; want a failed run", code, res)
	}
}
