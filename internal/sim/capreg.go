package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"didt/internal/telemetry"
)

// The engine-cache registry: every long-lived Cache in the repository is
// registered once, where it is declared, under a stable name. That makes
// its capacity a tunable (the didtd -cache-cap flag), publishes its
// counters, and puts it in the one list that ResetCaches and AllCacheStats
// walk — so a cache added later cannot be left warm in a "cold"
// measurement.
var registry = struct {
	mu     sync.Mutex
	caches map[string]registered
}{caches: map[string]registered{}}

// registered is what the registry needs of a cache to size, empty and
// observe it; *Cache satisfies it.
type registered interface {
	Capacity() int
	SetCapacity(n int)
	Reset()
	Stats() CacheStats
}

// Register declares c as the process-wide cache called name and returns
// it, so a package declares and registers a cache in one statement:
//
//	var traceCache = sim.Register("core_trace", sim.NewCache[machineKey, *machineRun](16))
//
// It publishes the cache's cache.<name>.* gauges in the default telemetry
// registry (the same prefix names the cache in eviction logs). Registering
// a name again replaces the earlier cache.
func Register[K comparable, V any](name string, c *Cache[K, V]) *Cache[K, V] {
	c.RegisterMetrics(telemetry.Default(), "cache."+name)
	registry.mu.Lock()
	defer registry.mu.Unlock()
	registry.caches[name] = c
	return c
}

// registeredCaches snapshots the registry in name order.
func registeredCaches() ([]string, []registered) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	names := make([]string, 0, len(registry.caches))
	for name := range registry.caches {
		names = append(names, name)
	}
	sort.Strings(names)
	caches := make([]registered, len(names))
	for i, name := range names {
		caches[i] = registry.caches[name]
	}
	return names, caches
}

// lookup finds a registered cache by name.
func lookup(name string) (registered, bool) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	c, ok := registry.caches[name]
	return c, ok
}

// ResetCaches empties every registered cache.
func ResetCaches() {
	_, caches := registeredCaches()
	for _, c := range caches {
		c.Reset()
	}
}

// AllCacheStats reports every registered cache's counters by name.
func AllCacheStats() map[string]CacheStats {
	names, caches := registeredCaches()
	out := make(map[string]CacheStats, len(names))
	for i, name := range names {
		out[name] = caches[i].Stats()
	}
	return out
}

// SetCacheCapacity rebounds a registered cache (n <= 0 means unbounded).
// An unknown name is an error that lists the registered ones.
func SetCacheCapacity(name string, n int) error {
	c, ok := lookup(name)
	if !ok {
		return fmt.Errorf("unknown cache %q (known: %s)", name, strings.Join(CacheCapacityNames(), ", "))
	}
	c.SetCapacity(n)
	return nil
}

// CacheCapacityNames lists the registered caches in sorted order.
func CacheCapacityNames() []string {
	names, _ := registeredCaches()
	return names
}

// CacheCapacity reports a registered cache's current capacity.
func CacheCapacity(name string) (int, bool) {
	c, ok := lookup(name)
	if !ok {
		return 0, false
	}
	return c.Capacity(), true
}
