package main

import (
	"math"
	"sort"
	"time"
)

// metric names one reported number and its unit. BENCHMARK.json at the
// repository root lists the same names with their direction and bound;
// TestMetricTablesMatchBenchmarkJSON keeps the two in step.
type metric struct {
	name, unit string
}

// endToEnd is what a user of the simulator or of didtd sees, reported by
// every workload with tracing off. Each workload defines its operation: a
// cold sweep rep, a cold simulate request answered by an engine run, or a
// store-hit request.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"op_mean_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// hostScaled marks the end-to-end metrics reported at nominal host speed
// (see host.go): times are divided by the run's slowness (+1), rates
// multiplied by it (-1). Memory does not depend on host speed.
var hostScaled = map[string]float64{
	"setup_s":    1,
	"op_mean_ms": 1,
	"ops_per_s":  -1,
}

// perLayer is reported by the traced run. Every layer is timed from the
// benchmark's side of a public API: the engine layers by a chunked replay
// of a recorded controlled run, set-up by cold constructor calls, didtd's
// store and handler by direct calls, and the caches and runtime by counter
// deltas over the workload's timed operations.
var perLayer = []metric{
	{"core.coupled_ns_per_cycle", "ns"},
	{"cpu.step_ns_per_cycle", "ns"},
	{"power.step_ns_per_cycle", "ns"},
	{"pdn.stream_ns_per_cycle", "ns"},
	{"sensor.sense_ns_per_cycle", "ns"},
	{"control.policy_ns_per_cycle", "ns"},
	{"core.loop_overhead_ns_per_cycle", "ns"},
	{"pdn.batch8_ns_per_lane_cycle", "ns"},
	{"pdn.batch4_ns_per_lane_cycle", "ns"},
	{"pdn.fft_ns_per_sample", "ns"},
	{"pdn.graph_ns_per_cycle", "ns"},
	{"telemetry.off_overhead_pct", "%"},

	{"workload.generate_ms", "ms"},
	{"core.new_system_ms", "ms"},
	{"core.envelope_probe_ms", "ms"},
	{"pdn.calibrate_ms", "ms"},
	{"control.solve_ms", "ms"},

	{"cache.control_solve.hits_per_op", "count/op"},
	{"cache.control_solve.misses_per_op", "count/op"},
	{"cache.core_envelope.hits_per_op", "count/op"},
	{"cache.core_envelope.misses_per_op", "count/op"},
	{"cache.core_trace.hits_per_op", "count/op"},
	{"cache.core_trace.misses_per_op", "count/op"},
	{"cache.experiments_memo.hits_per_op", "count/op"},
	{"cache.experiments_memo.misses_per_op", "count/op"},
	{"cache.experiments_run.hits_per_op", "count/op"},
	{"cache.experiments_run.misses_per_op", "count/op"},
	{"cache.pdn_kernel.hits_per_op", "count/op"},
	{"cache.pdn_kernel.misses_per_op", "count/op"},
	{"cache.workload_program.hits_per_op", "count/op"},
	{"cache.workload_program.misses_per_op", "count/op"},
	{"cache.workload_stressmark.hits_per_op", "count/op"},
	{"cache.workload_stressmark.misses_per_op", "count/op"},

	{"core.runs_per_op", "count/op"},
	{"core.cycles_per_op", "count/op"},
	{"runtime.alloc_mb_per_op", "MB/op"},
	{"runtime.gc_cycles_per_op", "count/op"},

	{"store.get_us", "us"},
	{"store.put_ms", "ms"},
	{"server.handler_hit_us", "us"},
	{"server.handler_304_us", "us"},
	{"server.engine_runs_per_op", "count/op"},
	{"server.coalesced_per_op", "count/op"},
	{"store.hits_per_op", "count/op"},
	{"store.misses_per_op", "count/op"},
	{"store.puts_per_op", "count/op"},

	{"trace.overhead_pct", "%"},
}

// mean of xs; 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// median of xs (mean of the middle two for an even count); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// percentileSummary is a timing reported the way the README asks: the
// median, plus the highest percentile that still has at least ten samples
// beyond it, each with the sample count behind it.
type percentileSummary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	TailQ  float64 `json:"tail_q,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
	Beyond int     `json:"beyond,omitempty"`
}

// summarize reports xs as a percentileSummary. Percentiles use the
// nearest-rank definition, so "beyond" is an exact count of samples above
// the reported value's rank; no tail is reported when fewer than ten
// samples would lie beyond even the lowest candidate.
func summarize(xs []float64) percentileSummary {
	ps := percentileSummary{N: len(xs), P50: median(xs)}
	s := sorted(xs)
	for _, q := range tailQuantiles {
		// The epsilon keeps q*n that is whole in exact arithmetic, such as
		// 0.99*1000, from rounding up a rank.
		rank := int(math.Ceil(q*float64(len(s)) - 1e-9))
		if rank < 1 {
			continue
		}
		if beyond := len(s) - rank; beyond >= 10 {
			ps.TailQ, ps.Tail, ps.Beyond = q, s[rank-1], beyond
			break
		}
	}
	return ps
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
