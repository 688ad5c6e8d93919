// Package mem models the Table 1 memory hierarchy for timing: 64KB 2-way
// L1 instruction and data caches, a 2MB 4-way unified L2 with 16-cycle
// latency, and 300-cycle main memory. Caches track tags and LRU state
// only; architectural data lives in the functional memory (isa.Memory).
//
// The hierarchy also exposes the clock-gating hooks the dI/dt actuators
// need: a gated cache refuses access (the core must retry), modeling the
// paper's cache clock-gating that "merely disables the clock signal" and
// preserves state.
package mem

import "fmt"

// Cache is one set-associative, LRU, tag-only cache level.
type Cache struct {
	name      string
	sets      int
	ways      int
	lineShift uint

	// Set-major way arrays: set s occupies [s*ways, (s+1)*ways). Valid
	// bits are folded into tags via a +1 offset: tag 0 means invalid.
	tags []uint64
	lru  []uint64 // per-way last-use stamps
	use  uint64

	Accesses uint64
	Misses   uint64
}

// MaxCacheLines caps each cache's line count, 32 times Table 1's
// 32768-line L2, so that no configuration sizes the tag and LRU arrays
// without bound.
const MaxCacheLines = 1 << 20

// NewCache builds a cache of totalBytes capacity with the given
// associativity and line size (both powers of two).
func NewCache(name string, totalBytes, ways, lineBytes int) (*Cache, error) {
	lines, err := geometry(name, totalBytes, ways, lineBytes)
	if err != nil {
		return nil, err
	}
	c := &Cache{name: name, sets: lines / ways, ways: ways}
	for l := lineBytes; l > 1; l >>= 1 {
		c.lineShift++
	}
	c.tags = make([]uint64, lines)
	c.lru = make([]uint64, lines)
	return c, nil
}

// geometry checks a cache's shape and returns its line count.
func geometry(name string, totalBytes, ways, lineBytes int) (int, error) {
	if totalBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		return 0, fmt.Errorf("mem: %s: sizes must be positive", name)
	}
	if lineBytes&(lineBytes-1) != 0 {
		return 0, fmt.Errorf("mem: %s: line size %d not a power of two", name, lineBytes)
	}
	lines := totalBytes / lineBytes
	if lines > MaxCacheLines {
		return 0, fmt.Errorf("mem: %s: %d lines exceed the cap of %d", name, lines, MaxCacheLines)
	}
	if lines < ways || lines%ways != 0 {
		return 0, fmt.Errorf("mem: %s: %d lines not divisible into %d ways", name, lines, ways)
	}
	if sets := lines / ways; sets&(sets-1) != 0 {
		return 0, fmt.Errorf("mem: %s: %d sets not a power of two", name, sets)
	}
	return lines, nil
}

// Access looks up addr, updates LRU and fills on miss. It returns whether
// the access hit.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	c.use++
	line := addr >> c.lineShift
	set := int(line) & (c.sets - 1)
	tag := line + 1 // +1 so that 0 is never a valid tag
	lo := set * c.ways
	ts, ls := c.tags[lo:lo+c.ways], c.lru[lo:lo+c.ways]
	for w, t := range ts {
		if t == tag {
			ls[w] = c.use
			return true
		}
	}
	c.Misses++
	// Fill into LRU way.
	victim := 0
	for w := 1; w < c.ways; w++ {
		if ls[w] < ls[victim] {
			victim = w
		}
	}
	ts[victim] = tag
	ls[victim] = c.use
	return false
}

// Probe reports whether addr currently hits without updating any state.
func (c *Cache) Probe(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line) & (c.sets - 1)
	tag := line + 1
	lo := set * c.ways
	for _, t := range c.tags[lo : lo+c.ways] {
		if t == tag {
			return true
		}
	}
	return false
}

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Name returns the cache's label.
func (c *Cache) Name() string { return c.name }

// Config sizes the whole hierarchy. Zero values take Table 1 defaults.
type Config struct {
	L1IBytes, L1IWays int
	L1DBytes, L1DWays int
	L2Bytes, L2Ways   int
	LineBytes         int

	L1HitLat int // cycles for an L1 hit (load-use)
	L2HitLat int // additional cycles to fetch from L2
	MemLat   int // additional cycles to fetch from main memory
}

// DefaultConfig is the Table 1 memory hierarchy.
func DefaultConfig() Config {
	return Config{
		L1IBytes: 64 << 10, L1IWays: 2,
		L1DBytes: 64 << 10, L1DWays: 2,
		L2Bytes: 2 << 20, L2Ways: 4,
		LineBytes: 64,
		L1HitLat:  2,
		L2HitLat:  16,
		MemLat:    300,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.L1IBytes == 0 {
		c.L1IBytes, c.L1IWays = d.L1IBytes, d.L1IWays
	}
	if c.L1DBytes == 0 {
		c.L1DBytes, c.L1DWays = d.L1DBytes, d.L1DWays
	}
	if c.L2Bytes == 0 {
		c.L2Bytes, c.L2Ways = d.L2Bytes, d.L2Ways
	}
	if c.LineBytes == 0 {
		c.LineBytes = d.LineBytes
	}
	if c.L1HitLat == 0 {
		c.L1HitLat = d.L1HitLat
	}
	if c.L2HitLat == 0 {
		c.L2HitLat = d.L2HitLat
	}
	if c.MemLat == 0 {
		c.MemLat = d.MemLat
	}
	return c
}

// Validate checks every cache's shape, with zero fields resolved to the
// defaults as NewHierarchy resolves them, without building the caches.
func (c Config) Validate() error {
	c = c.withDefaults()
	for _, g := range []struct {
		name        string
		bytes, ways int
	}{{"l1i", c.L1IBytes, c.L1IWays}, {"l1d", c.L1DBytes, c.L1DWays}, {"l2", c.L2Bytes, c.L2Ways}} {
		if _, err := geometry(g.name, g.bytes, g.ways, c.LineBytes); err != nil {
			return err
		}
	}
	return nil
}

// Hierarchy is the three-level memory system with gating hooks.
type Hierarchy struct {
	cfg Config
	L1I *Cache
	L1D *Cache
	L2  *Cache

	// Gating state, driven by the dI/dt actuator. A gated cache cannot be
	// accessed this cycle; the requester must stall and retry.
	IL1Gated bool
	DL1Gated bool
}

// NewHierarchy builds the hierarchy; zero Config fields take defaults.
func NewHierarchy(cfg Config) (*Hierarchy, error) {
	cfg = cfg.withDefaults()
	l1i, err := NewCache("l1i", cfg.L1IBytes, cfg.L1IWays, cfg.LineBytes)
	if err != nil {
		return nil, err
	}
	l1d, err := NewCache("l1d", cfg.L1DBytes, cfg.L1DWays, cfg.LineBytes)
	if err != nil {
		return nil, err
	}
	l2, err := NewCache("l2", cfg.L2Bytes, cfg.L2Ways, cfg.LineBytes)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{cfg: cfg, L1I: l1i, L1D: l1d, L2: l2}, nil
}

// Config returns the hierarchy's resolved configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// AccessResult describes one access's timing and the levels it touched.
type AccessResult struct {
	Latency int
	L1Hit   bool
	L2Hit   bool // meaningful when !L1Hit
	L2Used  bool // the access went to L2 (i.e. L1 missed)
	MemUsed bool
}

// FetchInstr performs a timing access for an instruction fetch at the
// given byte address. ok is false when the I-cache is gated (the fetch
// stage must stall).
func (h *Hierarchy) FetchInstr(addr uint64) (AccessResult, bool) {
	if h.IL1Gated {
		return AccessResult{}, false
	}
	return h.access(h.L1I, addr), true
}

// AccessData performs a timing access for a load or store. ok is false
// when the D-cache is gated.
func (h *Hierarchy) AccessData(addr uint64, _ bool) (AccessResult, bool) {
	if h.DL1Gated {
		return AccessResult{}, false
	}
	return h.access(h.L1D, addr), true
}

func (h *Hierarchy) access(l1 *Cache, addr uint64) AccessResult {
	r := AccessResult{Latency: h.cfg.L1HitLat}
	if l1.Access(addr) {
		r.L1Hit = true
		return r
	}
	r.L2Used = true
	r.Latency += h.cfg.L2HitLat
	if h.L2.Access(addr) {
		r.L2Hit = true
		return r
	}
	r.MemUsed = true
	r.Latency += h.cfg.MemLat
	return r
}
