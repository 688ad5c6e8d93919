package sim

import (
	"log/slog"
	"sync"
	"sync/atomic"

	"didt/internal/telemetry"
)

// cacheLogger receives app-level cache events (currently LRU evictions)
// from every Cache in the process. nil (the default) disables logging
// entirely; didtd installs its structured logger here at startup.
var cacheLogger atomic.Pointer[slog.Logger]

// SetCacheLogger installs the logger that receives cache eviction events;
// nil disables them. Safe for concurrent use.
func SetCacheLogger(l *slog.Logger) {
	if l == nil {
		cacheLogger.Store(nil)
		return
	}
	cacheLogger.Store(l)
}

// logEviction emits one app-level record for a completed eviction pass.
// Called outside the cache mutex: slog handlers may block on IO, and the
// eviction has already happened — the log is observation, not mechanism.
func logEviction(name string, evicted, remaining int) {
	l := cacheLogger.Load()
	if l == nil || evicted <= 0 {
		return
	}
	if name == "" {
		name = "cache"
	}
	l.Debug("cache eviction", "cache", name, "evicted", evicted, "entries", remaining)
}

// Cache memoizes a deterministic computation keyed by K with singleflight
// semantics: when several goroutines ask for the same key at once, exactly
// one runs the computation and the rest wait for its result. Values must
// be deterministic functions of their key (every cached artifact in this
// repository is — sampled PDN kernels, generated programs, measured
// envelopes), so it never matters which goroutine populated an entry.
//
// Capacity bounds the map for long-lived processes: inserting beyond it
// evicts completed entries in least-recently-used order. An entry whose
// computation is still running is pinned — it is never evicted and never
// recomputed by a concurrent Get — so the map may transiently exceed
// capacity while more than `capacity` keys are in flight at once. Errors
// are not cached; a failed key is recomputed on the next Get. A
// computation that panics fails with a *PanicError, for its caller and
// every waiter alike, and is not cached either.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*cacheEntry[K, V]
	// head/tail form the intrusive LRU list of *completed* entries
	// (head = most recent). In-flight entries are unlinked, which is
	// what pins them: eviction only walks this list.
	head, tail *cacheEntry[K, V]
	cap        int
	stats      CacheStats
	// name labels the cache in eviction logs; set by RegisterMetrics from
	// the metric prefix, "" until then.
	name string
}

// CacheStats is a point-in-time view of a cache's effectiveness. A Get
// that finds an entry (even one still being computed by another
// goroutine) counts as a hit; a Get that inserts counts as a miss;
// Evictions counts entries dropped by LRU capacity eviction, SetCapacity
// and Reset.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// HitRate is hits/(hits+misses), 0 for an untouched cache.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type cacheEntry[K comparable, V any] struct {
	key  K
	once sync.Once
	val  V
	err  error

	// LRU links, guarded by Cache.mu. linked reports membership in the
	// completed-entry list; an unlinked entry still in the map is in
	// flight and therefore pinned.
	prev, next *cacheEntry[K, V]
	linked     bool
}

// NewCache creates a cache holding at most capacity completed entries;
// capacity <= 0 means unbounded.
func NewCache[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{entries: map[K]*cacheEntry[K, V]{}, cap: capacity}
}

// Get returns the cached value for k, computing it via compute on first
// use. Concurrent Gets of the same key share one computation.
func (c *Cache[K, V]) Get(k K, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	e, ok := c.entries[k]
	evicted := 0
	if !ok {
		c.stats.Misses++
		e = &cacheEntry[K, V]{key: k}
		c.entries[k] = e
		evicted = c.evictLocked()
	} else {
		c.stats.Hits++
		if e.linked {
			c.unlinkLocked(e)
			c.linkFrontLocked(e)
		}
	}
	name, remaining := c.name, len(c.entries)
	c.mu.Unlock()
	logEviction(name, evicted, remaining)

	e.once.Do(func() {
		e.val, e.err = contain(compute)
		c.mu.Lock()
		evicted := 0
		// Only touch the map if this entry is still the resident one: a
		// Reset may have dropped it while the computation ran.
		if cur, ok := c.entries[k]; ok && cur == e {
			if e.err != nil {
				// Drop the failed entry so a later Get retries.
				delete(c.entries, k)
			} else {
				// Completion unpins the entry: link it as most recent
				// and let eviction see it from now on.
				c.linkFrontLocked(e)
				evicted = c.evictLocked()
			}
		}
		name, remaining := c.name, len(c.entries)
		c.mu.Unlock()
		logEviction(name, evicted, remaining)
	})
	return e.val, e.err
}

// Peek returns the value cached for k if its computation has completed.
// It never computes and never waits: an absent key, or one still being
// computed, reports false. A found entry counts as a hit and becomes the
// most recently used; an absent one counts nothing, so a caller that goes
// on to fill the key through Get counts the miss there.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok || !e.linked {
		var zero V
		return zero, false
	}
	c.stats.Hits++
	c.unlinkLocked(e)
	c.linkFrontLocked(e)
	return e.val, true
}

// evictLocked drops least-recently-used completed entries until the map
// fits the capacity again, returning how many it dropped (callers log
// after releasing the mutex). In-flight entries are unlinked and therefore
// invisible here, so the map may exceed cap while computations run.
func (c *Cache[K, V]) evictLocked() int {
	if c.cap <= 0 {
		return 0
	}
	n := 0
	for len(c.entries) > c.cap && c.tail != nil {
		e := c.tail
		c.unlinkLocked(e)
		delete(c.entries, e.key)
		c.stats.Evictions++
		n++
	}
	return n
}

func (c *Cache[K, V]) linkFrontLocked(e *cacheEntry[K, V]) {
	e.linked = true
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache[K, V]) unlinkLocked(e *cacheEntry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	e.linked = false
}

// Len reports the number of resident entries (completed plus in-flight).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Capacity reports the cache's bound on completed entries (<= 0 means
// unbounded).
func (c *Cache[K, V]) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cap
}

// SetCapacity rebounds the cache (n <= 0 means unbounded), evicting
// least-recently-used completed entries that no longer fit. In-flight
// entries stay pinned.
func (c *Cache[K, V]) SetCapacity(n int) {
	c.mu.Lock()
	if n < 0 {
		n = 0
	}
	c.cap = n
	evicted := c.evictLocked()
	name, remaining := c.name, len(c.entries)
	c.mu.Unlock()
	logEviction(name, evicted, remaining)
}

// Reset empties the cache. Unlike capacity eviction it drops in-flight
// entries too (their running computations finish but are not re-linked),
// so callers that need singleflight guarantees should not Reset while
// Gets are outstanding — it exists for benchmarks and tests that force
// recomputation.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Evictions += uint64(len(c.entries))
	c.entries = map[K]*cacheEntry[K, V]{}
	c.head, c.tail = nil, nil
}

// Stats reports the cache's cumulative hit/miss/eviction counts and
// current residency.
func (c *Cache[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}

// RegisterMetrics publishes the cache's statistics into a telemetry
// registry as callback gauges named <prefix>.hits, .misses, .evictions,
// .entries and .hit_rate, evaluated at snapshot time. The prefix also
// becomes the cache's name in eviction log records.
func (c *Cache[K, V]) RegisterMetrics(r *telemetry.Registry, prefix string) {
	c.mu.Lock()
	c.name = prefix
	c.mu.Unlock()
	r.RegisterGaugeFunc(prefix+".hits", func() float64 { return float64(c.Stats().Hits) })
	r.RegisterGaugeFunc(prefix+".misses", func() float64 { return float64(c.Stats().Misses) })
	r.RegisterGaugeFunc(prefix+".evictions", func() float64 { return float64(c.Stats().Evictions) })
	r.RegisterGaugeFunc(prefix+".entries", func() float64 { return float64(c.Stats().Entries) })
	r.RegisterGaugeFunc(prefix+".hit_rate", func() float64 { return c.Stats().HitRate() })
}
