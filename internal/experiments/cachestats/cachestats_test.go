// Package cachestats pins the repository's memoization behaviour. It lives
// in its own package directory so `go test` gives it a fresh process: the
// process-global caches start empty, making absolute hit/miss counts
// meaningful.
package cachestats

import (
	"io"
	"slices"
	"testing"

	"didt/internal/control"
	"didt/internal/core"
	"didt/internal/experiments"
	"didt/internal/pdn"
	"didt/internal/sim"
	"didt/internal/workload"
)

// TestQuickSweepCacheCounts runs a fixed slice of the quick experiment
// suite and asserts the exact hit/miss counts of every cache. The counts
// pin that each cache key draws exactly the intended distinctions — a key
// that became too coarse shows up as extra hits, one that became too fine
// as extra misses.
//
// The run/trace/solve counts additionally pin the sharing between
// studies: 87 distinct simulations serve the slice's 109 requested runs
// (the uncontrolled baselines are shared across studies, "ideal" and
// "fu+dl1+il1" are one behavioral mechanism, and ablation-window's
// RUU=256 point is table2's stressmark at 200%), 11 machine traces cover
// every open-loop run, and 19 threshold solves cover every controlled
// configuration (the solve key is workload- and mechanism-boolean-
// independent). The trace hits include one per controlled run that
// replays its open-loop twin's trace: 64 of them, because every study
// sweeps its uncontrolled baselines before its controlled grid, so the
// twin's trace is complete when a controlled run looks it up.
func TestQuickSweepCacheCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment sweep is slow")
	}
	cfg := experiments.Quick()
	reg := experiments.Registry()
	for _, id := range []string{"fig14", "fig15", "table2", "ablation-window", "fig17", "fig18"} {
		if err := reg[id](cfg, io.Discard); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	check := func(name string, got sim.CacheStats, hits, misses uint64) {
		t.Helper()
		if got.Hits != hits || got.Misses != misses || got.Evictions != 0 {
			t.Errorf("%s cache: %+v, want Hits:%d Misses:%d Evictions:0", name, got, hits, misses)
		}
	}
	check("memo", experiments.MemoStats(), 2, 4)
	check("kernel", pdn.KernelCacheStats(), 80, 7)
	check("envelope", core.EnvelopeCacheStats(), 83, 4)
	check("program", workload.ProgramCacheStats(), 90, 3)
	check("stressmark", workload.StressmarkCacheStats(), 12, 1)
	check("run", experiments.RunCacheStats(), 22, 87)
	check("trace", core.TraceCacheStats(), 76, 11)
	check("solve", control.SolveCacheStats(), 45, 19)
}

// TestRegisteredCaches pins the engine-cache registry: exactly these eight
// caches are registered, each at its default capacity. Every package that
// declares one is imported here, so the registry is complete.
func TestRegisteredCaches(t *testing.T) {
	want := []struct {
		name     string
		capacity int
	}{
		{"control_solve", 256},
		{"core_envelope", 256},
		{"core_trace", 16},
		{"experiments_memo", 256},
		{"experiments_run", 512},
		{"pdn_kernel", 512},
		{"workload_program", 256},
		{"workload_stressmark", 128},
	}
	var names []string
	for _, w := range want {
		names = append(names, w.name)
		if got, ok := sim.CacheCapacity(w.name); !ok || got != w.capacity {
			t.Errorf("CacheCapacity(%q) = %d, %v; want %d, true", w.name, got, ok, w.capacity)
		}
	}
	if got := sim.CacheCapacityNames(); !slices.Equal(got, names) {
		t.Errorf("CacheCapacityNames() = %v, want %v", got, names)
	}
}
