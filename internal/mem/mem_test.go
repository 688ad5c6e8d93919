package mem

import (
	"testing"
	"testing/quick"
)

func TestNewCacheValidation(t *testing.T) {
	cases := []struct {
		bytes, ways, line int
	}{
		{0, 2, 64},
		{1024, 0, 64},
		{1024, 2, 60},   // non-power-of-two line
		{1024, 32, 64},  // 16 lines < 32 ways
		{64 * 3, 2, 64}, // 3 lines not divisible / sets not pow2
	}
	for i, c := range cases {
		if _, err := NewCache("t", c.bytes, c.ways, c.line); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestCacheHitAfterFill(t *testing.T) {
	c, err := NewCache("t", 1024, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0x100) {
		t.Error("cold access must miss")
	}
	if !c.Access(0x100) {
		t.Error("second access must hit")
	}
	if !c.Access(0x13f) {
		t.Error("same line must hit")
	}
	if c.Access(0x140) {
		t.Error("next line must miss")
	}
	if c.Accesses != 4 || c.Misses != 2 {
		t.Errorf("stats: %d accesses %d misses", c.Accesses, c.Misses)
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	// 2 ways, 2 sets of 64B lines -> 256B cache. Addresses mapping to set 0:
	// lines 0, 2, 4 (line index even).
	c, err := NewCache("t", 256, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	addr := func(line int) uint64 { return uint64(line * 64) }
	c.Access(addr(0))
	c.Access(addr(2))
	c.Access(addr(0)) // touch 0, making 2 the LRU
	c.Access(addr(4)) // evicts 2
	if !c.Probe(addr(0)) {
		t.Error("line 0 should survive (MRU)")
	}
	if c.Probe(addr(2)) {
		t.Error("line 2 should be evicted (LRU)")
	}
	if !c.Probe(addr(4)) {
		t.Error("line 4 should be resident")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c, _ := NewCache("t", 256, 2, 64)
	c.Access(0)
	acc, miss := c.Accesses, c.Misses
	c.Probe(0)
	c.Probe(4096)
	if c.Accesses != acc || c.Misses != miss {
		t.Error("Probe changed statistics")
	}
}

func TestHierarchyDefaultsMatchTable1(t *testing.T) {
	h, err := NewHierarchy(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := h.Config()
	if cfg.L1DBytes != 64<<10 || cfg.L1DWays != 2 {
		t.Errorf("L1D: %+v", cfg)
	}
	if cfg.L2Bytes != 2<<20 || cfg.L2Ways != 4 {
		t.Errorf("L2: %+v", cfg)
	}
	if cfg.L2HitLat != 16 || cfg.MemLat != 300 {
		t.Errorf("latencies: %+v", cfg)
	}
}

// TestNewHierarchyAllocs pins the flat way arrays: building the Table 1
// hierarchy costs 10 allocations — the Hierarchy, three Caches and two
// set-major arrays each — not two slices per set (~18k for the 8192-set
// L2). The bound leaves room for the runtime's own allocations when a GC
// cycle lands inside the measurement.
func TestNewHierarchyAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := NewHierarchy(Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("NewHierarchy made %v allocations, want about 10", allocs)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h, err := NewHierarchy(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := h.Config()
	// Cold: L1 miss, L2 miss -> full memory latency.
	r, ok := h.AccessData(0x10000, false)
	if !ok {
		t.Fatal("unexpected gate")
	}
	if r.Latency != cfg.L1HitLat+cfg.L2HitLat+cfg.MemLat || !r.MemUsed {
		t.Errorf("cold access: %+v", r)
	}
	// Warm L1.
	r, _ = h.AccessData(0x10000, false)
	if r.Latency != cfg.L1HitLat || !r.L1Hit {
		t.Errorf("L1 hit: %+v", r)
	}
	// Evict from L1 but not L2: access enough conflicting lines.
	// L1D is 64KB 2-way with 64B lines -> 512 sets; stride 512*64 = 32KB
	// conflicts in the same set.
	for i := 1; i <= 4; i++ {
		h.AccessData(uint64(0x10000+i*32*1024), false)
	}
	r, _ = h.AccessData(0x10000, false)
	if r.L1Hit {
		t.Fatal("expected L1 eviction")
	}
	if !r.L2Hit || r.Latency != cfg.L1HitLat+cfg.L2HitLat {
		t.Errorf("L2 hit: %+v", r)
	}
}

func TestGatingBlocksAccess(t *testing.T) {
	h, _ := NewHierarchy(Config{})
	h.DL1Gated = true
	if _, ok := h.AccessData(0, false); ok {
		t.Error("gated D-cache must refuse access")
	}
	h.IL1Gated = true
	if _, ok := h.FetchInstr(0); ok {
		t.Error("gated I-cache must refuse access")
	}
	h.DL1Gated, h.IL1Gated = false, false
	if _, ok := h.AccessData(0, false); !ok {
		t.Error("ungated D-cache must serve")
	}
	if _, ok := h.FetchInstr(0); !ok {
		t.Error("ungated I-cache must serve")
	}
}

func TestGatingPreservesCacheState(t *testing.T) {
	h, _ := NewHierarchy(Config{})
	h.AccessData(0x2000, false)
	h.DL1Gated = true
	h.AccessData(0x2000, false) // refused
	h.DL1Gated = false
	r, _ := h.AccessData(0x2000, false)
	if !r.L1Hit {
		t.Error("gating must not disturb cache contents")
	}
}

func TestMissRate(t *testing.T) {
	c, _ := NewCache("t", 1024, 2, 64)
	if c.MissRate() != 0 {
		t.Error("empty cache miss rate should be 0")
	}
	c.Access(0)
	c.Access(0)
	if got := c.MissRate(); got != 0.5 {
		t.Errorf("miss rate = %g, want 0.5", got)
	}
}

func TestPropertySecondAccessAlwaysHits(t *testing.T) {
	c, _ := NewCache("t", 64<<10, 2, 64)
	f := func(addr uint64) bool {
		addr &= (1 << 30) - 1
		c.Access(addr)
		return c.Access(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyHierarchyLatencyIsOneOfThree(t *testing.T) {
	h, _ := NewHierarchy(Config{})
	cfg := h.Config()
	valid := map[int]bool{
		cfg.L1HitLat:                             true,
		cfg.L1HitLat + cfg.L2HitLat:              true,
		cfg.L1HitLat + cfg.L2HitLat + cfg.MemLat: true,
	}
	f := func(addr uint64) bool {
		r, ok := h.AccessData(addr&((1<<32)-1), false)
		return ok && valid[r.Latency]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
