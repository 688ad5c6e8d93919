package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"didt/internal/control"
	"didt/internal/core"
	"didt/internal/experiments"
	"didt/internal/pdn"
	"didt/internal/sim"
	"didt/internal/telemetry"
	"didt/internal/workload"
)

// engineCache is one process-wide sim.Cache as the benchmark sees it: the
// name it registers with sim.RegisterCacheCapacity, how to empty it for a
// cold rep, and how to read its counters.
type engineCache struct {
	name  string
	reset func()
	stats func() sim.CacheStats
}

// engineCaches must name every registered cache: checkCacheCoverage fails
// the run otherwise, so a cache added later cannot leave a "cold" rep warm.
var engineCaches = []engineCache{
	{"control_solve", control.ResetSolveCache, control.SolveCacheStats},
	{"core_envelope", core.ResetEnvelopeCache, core.EnvelopeCacheStats},
	{"core_trace", core.ResetTraceCache, core.TraceCacheStats},
	{"experiments_memo", experiments.ResetMemo, experiments.MemoStats},
	{"experiments_run", experiments.ResetRunCache, experiments.RunCacheStats},
	{"pdn_kernel", pdn.ResetKernelCache, pdn.KernelCacheStats},
	// One reset empties both program caches.
	{"workload_program", workload.ResetProgramCache, workload.ProgramCacheStats},
	{"workload_stressmark", workload.ResetProgramCache, workload.StressmarkCacheStats},
}

// checkCacheCoverage compares engineCaches with the caches registered in
// this binary.
func checkCacheCoverage(caches []engineCache, registered []string) error {
	known := map[string]bool{}
	for _, c := range caches {
		known[c.name] = true
	}
	var missing []string
	for _, name := range registered {
		if !known[name] {
			missing = append(missing, name)
		}
		delete(known, name)
	}
	var stale []string
	for _, c := range caches {
		if known[c.name] {
			stale = append(stale, c.name)
		}
	}
	if len(missing) > 0 || len(stale) > 0 {
		return fmt.Errorf("cache table out of date: registered but not reset [%s], listed but not registered [%s]",
			strings.Join(missing, " "), strings.Join(stale, " "))
	}
	return nil
}

// resetCaches empties every engine cache except those named in keep.
func resetCaches(keep ...string) {
	for _, c := range engineCaches {
		kept := false
		for _, k := range keep {
			kept = kept || k == c.name
		}
		if !kept {
			c.reset()
		}
	}
}

// serverCounters are the didtd counters read from the server's injected
// registry, keyed by the per-layer metric that reports them.
var serverCounters = map[string]string{
	"server.engine_runs_per_op": "didtd.engine_runs_total",
	"server.coalesced_per_op":   "didtd.coalesced_total",
	"store.hits_per_op":         "store.results.hits",
	"store.misses_per_op":       "store.results.misses",
	"store.puts_per_op":         "store.results.puts",
}

// counters holds, under each per-op per-layer metric's name, a raw
// counter total (a snapshot) or the change in one (a delta).
type counters map[string]float64

// snapshot reads the counters; reg is the didtd server's registry, nil
// when no server runs.
func snapshot(reg *telemetry.Registry) counters {
	c := counters{}
	for _, ec := range engineCaches {
		st := ec.stats()
		c["cache."+ec.name+".hits_per_op"] = float64(st.Hits)
		c["cache."+ec.name+".misses_per_op"] = float64(st.Misses)
	}
	def := telemetry.Default()
	c["core.runs_per_op"] = float64(def.Counter("core.runs_total").Value())
	c["core.cycles_per_op"] = float64(def.Counter("core.cycles_total").Value())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["runtime.alloc_mb_per_op"] = float64(ms.TotalAlloc) / 1e6
	c["runtime.gc_cycles_per_op"] = float64(ms.NumGC)
	for metric, name := range serverCounters {
		c[metric] = 0
		if reg != nil {
			c[metric] = float64(reg.Counter(name).Value())
		}
	}
	return c
}

// add accumulates the change from before to after.
func (c counters) add(before, after counters) {
	for k, v := range after {
		c[k] += v - before[k]
	}
}

// perOp records a delta divided by the ops it covers.
func perOp(m map[string]float64, delta counters, ops int) {
	for k, v := range delta {
		m[k] = v / float64(max(ops, 1))
	}
}

// resetPeakRSS returns free memory to the OS and restarts the kernel's
// peak-RSS mark, so peakRSSMB covers only what runs after it. It reports
// whether the mark was reset; if not, peakRSSMB is the process's peak.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
