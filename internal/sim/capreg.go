package sim

import (
	"fmt"
	"sort"
	"sync"
)

// Cache capacity registry. Every long-lived Cache in the repository
// registers itself here under a stable name, so its capacity is a tunable
// — reachable from the spec/budget layer and the didtd flags — instead of
// a constructor literal buried in the owning package. Overrides may arrive
// before the owning package's init runs (flag parsing vs. package
// initialization order is arbitrary), so the registry remembers them and
// applies whichever of {override, default} is current when the cache
// finally registers.
var capReg struct {
	mu        sync.Mutex
	defaults  map[string]int
	overrides map[string]int
	hooks     map[string]func(int)
	managed   map[string]ManagedCache // caches registered through RegisterCache
}

func capRegLocked() {
	if capReg.defaults == nil {
		capReg.defaults = map[string]int{}
		capReg.overrides = map[string]int{}
		capReg.hooks = map[string]func(int){}
		capReg.managed = map[string]ManagedCache{}
	}
}

// ManagedCache is what the registry needs of a cache to size, empty and
// observe it; *Cache satisfies it.
type ManagedCache interface {
	SetCapacity(n int)
	Reset()
	Stats() CacheStats
}

// RegisterCache declares a named process-wide cache to the registry: its
// capacity becomes a tunable exactly as with RegisterCacheCapacity (whose
// effective value it returns), and ResetCaches and AllCacheStats cover it
// from then on. This is the one list of engine caches — benchmarks, tests
// and tools reset and report through it rather than naming caches by hand,
// so a cache added later cannot be left warm in a "cold" measurement.
func RegisterCache(name string, def int, c ManagedCache) int {
	eff := RegisterCacheCapacity(name, def, c.SetCapacity)
	capReg.mu.Lock()
	capReg.managed[name] = c
	capReg.mu.Unlock()
	return eff
}

// managedCaches snapshots the RegisterCache entries in name order.
func managedCaches() ([]string, []ManagedCache) {
	capReg.mu.Lock()
	defer capReg.mu.Unlock()
	capRegLocked()
	names := make([]string, 0, len(capReg.managed))
	for name := range capReg.managed {
		names = append(names, name)
	}
	sort.Strings(names)
	caches := make([]ManagedCache, len(names))
	for i, name := range names {
		caches[i] = capReg.managed[name]
	}
	return names, caches
}

// ResetCaches empties every cache registered through RegisterCache.
func ResetCaches() {
	_, caches := managedCaches()
	for _, c := range caches {
		c.Reset()
	}
}

// AllCacheStats reports every RegisterCache cache's counters by name.
func AllCacheStats() map[string]CacheStats {
	names, caches := managedCaches()
	out := make(map[string]CacheStats, len(names))
	for i, name := range names {
		out[name] = caches[i].Stats()
	}
	return out
}

// RegisterCacheCapacity declares a named tunable cache with the given
// default capacity and resize hook (typically the cache's SetCapacity
// method). It applies — and returns — the effective capacity: a previously
// recorded override if one exists, the default otherwise. Registering the
// same name twice replaces the hook (tests re-initialize).
func RegisterCacheCapacity(name string, def int, setCap func(int)) int {
	capReg.mu.Lock()
	defer capReg.mu.Unlock()
	capRegLocked()
	capReg.defaults[name] = def
	capReg.hooks[name] = setCap
	eff := def
	if o, ok := capReg.overrides[name]; ok {
		eff = o
	}
	setCap(eff)
	return eff
}

// SetCacheCapacity overrides a named cache's capacity (n <= 0 means
// unbounded). If the cache is already registered the resize applies
// immediately; otherwise the override is remembered and applied at
// registration. An empty name is an error.
func SetCacheCapacity(name string, n int) error {
	if name == "" {
		return fmt.Errorf("sim: empty cache name")
	}
	capReg.mu.Lock()
	defer capReg.mu.Unlock()
	capRegLocked()
	if n < 0 {
		n = 0
	}
	capReg.overrides[name] = n
	if hook, ok := capReg.hooks[name]; ok {
		hook(n)
	}
	return nil
}

// CacheCapacityNames lists the registered tunable caches in sorted order.
func CacheCapacityNames() []string {
	capReg.mu.Lock()
	defer capReg.mu.Unlock()
	capRegLocked()
	names := make([]string, 0, len(capReg.defaults))
	for name := range capReg.defaults {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CacheCapacity reports a registered cache's effective capacity.
func CacheCapacity(name string) (int, bool) {
	capReg.mu.Lock()
	defer capReg.mu.Unlock()
	capRegLocked()
	if o, ok := capReg.overrides[name]; ok {
		return o, true
	}
	d, ok := capReg.defaults[name]
	return d, ok
}
