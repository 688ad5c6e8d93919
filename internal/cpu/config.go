package cpu

import (
	"fmt"

	"didt/internal/bpred"
	"didt/internal/isa"
	"didt/internal/mem"
)

// Config describes the core, matching the paper's Table 1 by default.
type Config struct {
	FetchWidth  int // instructions fetched per cycle
	DecodeWidth int // instructions dispatched into the window per cycle
	IssueWidth  int // instructions issued to FUs per cycle
	CommitWidth int // instructions retired per cycle

	RUUSize int // register update unit (merged ROB + reservation stations)
	LSQSize int

	IntALU    int // functional unit counts
	IntMult   int // int multiply/divide units (shared, non-pipelined divide)
	FPALU     int
	FPMult    int // fp multiply/divide units (shared, non-pipelined divide)
	MemPorts  int
	FetchQLen int // fetch buffer depth

	// BranchPenalty is the extra front-end refill delay, in cycles, charged
	// after a mispredicted branch resolves (the paper's 10-cycle penalty
	// modeling super-pipelined fetch/decode).
	BranchPenalty int

	Bpred bpred.Config
	Mem   mem.Config

	// Latencies per FU class; zero fields take defaults.
	LatIntALU  int
	LatIntMult int
	LatIntDiv  int // non-pipelined
	LatFPAdd   int
	LatFPMult  int
	LatFPDiv   int // non-pipelined
}

// DefaultConfig returns the Table 1 processor.
func DefaultConfig() Config {
	return Config{
		FetchWidth:  8,
		DecodeWidth: 8,
		IssueWidth:  8,
		CommitWidth: 8,
		RUUSize:     256,
		LSQSize:     128,
		IntALU:      8,
		IntMult:     2,
		FPALU:       4,
		FPMult:      2,
		MemPorts:    4,
		FetchQLen:   16,

		BranchPenalty: 10,

		LatIntALU:  1,
		LatIntMult: 3,
		LatIntDiv:  20,
		LatFPAdd:   2,
		LatFPMult:  4,
		LatFPDiv:   12,
	}
}

// WithDefaults fills zero fields from the Table 1 configuration. The spec
// layer (internal/spec) is the canonical caller — it resolves the CPU
// section of a RunSpec through this — and cpu.New applies it again
// idempotently so direct package users keep the same semantics.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.FetchWidth == 0 {
		c.FetchWidth = d.FetchWidth
	}
	if c.DecodeWidth == 0 {
		c.DecodeWidth = d.DecodeWidth
	}
	if c.IssueWidth == 0 {
		c.IssueWidth = d.IssueWidth
	}
	if c.CommitWidth == 0 {
		c.CommitWidth = d.CommitWidth
	}
	if c.RUUSize == 0 {
		c.RUUSize = d.RUUSize
	}
	if c.LSQSize == 0 {
		c.LSQSize = d.LSQSize
	}
	if c.IntALU == 0 {
		c.IntALU = d.IntALU
	}
	if c.IntMult == 0 {
		c.IntMult = d.IntMult
	}
	if c.FPALU == 0 {
		c.FPALU = d.FPALU
	}
	if c.FPMult == 0 {
		c.FPMult = d.FPMult
	}
	if c.MemPorts == 0 {
		c.MemPorts = d.MemPorts
	}
	if c.FetchQLen == 0 {
		c.FetchQLen = d.FetchQLen
	}
	if c.BranchPenalty == 0 {
		c.BranchPenalty = d.BranchPenalty
	}
	if c.LatIntALU == 0 {
		c.LatIntALU = d.LatIntALU
	}
	if c.LatIntMult == 0 {
		c.LatIntMult = d.LatIntMult
	}
	if c.LatIntDiv == 0 {
		c.LatIntDiv = d.LatIntDiv
	}
	if c.LatFPAdd == 0 {
		c.LatFPAdd = d.LatFPAdd
	}
	if c.LatFPMult == 0 {
		c.LatFPMult = d.LatFPMult
	}
	if c.LatFPDiv == 0 {
		c.LatFPDiv = d.LatFPDiv
	}
	return c
}

// MaxFULatency is the longest functional-unit latency a Config may set.
// The power model spreads each operation's energy over a ring of this many
// cycles, so it must stay a power of two.
const MaxFULatency = 64

// Size caps. They sit far above Table 1 and every study (the window
// ablation's largest RUU has 256 entries), so that no configuration sizes
// the core's queues and unit pools, or the power model's per-unit tables,
// without bound.
const (
	MaxQueue = 4096 // RUUSize, LSQSize, FetchQLen
	MaxWidth = 64   // pipeline widths and functional-unit counts
)

// Validate checks structural invariants on a resolved configuration.
func (c Config) Validate() error {
	for _, v := range []struct {
		name      string
		n, lo, hi int
	}{
		{"RUUSize", c.RUUSize, 2, MaxQueue}, {"LSQSize", c.LSQSize, 1, MaxQueue},
		{"FetchQLen", c.FetchQLen, 1, MaxQueue},
		{"FetchWidth", c.FetchWidth, 1, MaxWidth}, {"DecodeWidth", c.DecodeWidth, 1, MaxWidth},
		{"IssueWidth", c.IssueWidth, 1, MaxWidth}, {"CommitWidth", c.CommitWidth, 1, MaxWidth},
		{"IntALU", c.IntALU, 1, MaxWidth}, {"IntMult", c.IntMult, 1, MaxWidth},
		{"FPALU", c.FPALU, 1, MaxWidth}, {"FPMult", c.FPMult, 1, MaxWidth},
		{"MemPorts", c.MemPorts, 1, MaxWidth},
	} {
		if v.n < v.lo || v.n > v.hi {
			return fmt.Errorf("cpu: %s %d outside [%d, %d]", v.name, v.n, v.lo, v.hi)
		}
	}
	if err := c.Bpred.Validate(); err != nil {
		return err
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	for _, l := range []struct {
		name string
		lat  int
	}{
		{"LatIntALU", c.LatIntALU}, {"LatIntMult", c.LatIntMult}, {"LatIntDiv", c.LatIntDiv},
		{"LatFPAdd", c.LatFPAdd}, {"LatFPMult", c.LatFPMult}, {"LatFPDiv", c.LatFPDiv},
	} {
		if l.lat < 1 || l.lat > MaxFULatency {
			return fmt.Errorf("cpu: %s %d outside [1, %d]", l.name, l.lat, MaxFULatency)
		}
	}
	// Every operation completes through the calendar, so no class's
	// latency may reach around it, even after a full memory miss. Zero
	// memory latencies take mem's defaults, as NewHierarchy resolves them.
	d := mem.DefaultConfig()
	memLat := 0
	for _, l := range []struct {
		name     string
		lat, def int
	}{
		{"L1HitLat", c.Mem.L1HitLat, d.L1HitLat}, {"L2HitLat", c.Mem.L2HitLat, d.L2HitLat},
		{"MemLat", c.Mem.MemLat, d.MemLat},
	} {
		if l.lat < 0 || l.lat >= calBuckets {
			return fmt.Errorf("cpu: Mem.%s %d outside [0, %d)", l.name, l.lat, calBuckets)
		}
		if l.lat == 0 {
			l.lat = l.def
		}
		memLat += l.lat
	}
	for cl := isa.Class(0); cl < isa.NumClasses; cl++ {
		if lat, _ := c.latency(cl); memLat+lat >= calBuckets {
			return fmt.Errorf("cpu: %s latency %d plus memory latency %d exceeds calendar capacity %d", cl, lat, memLat, calBuckets)
		}
	}
	return nil
}

// latency returns (execution latency, pipelined) for a class. New builds
// the core's per-class tables from it.
func (c Config) latency(cl isa.Class) (int, bool) {
	switch cl {
	case isa.ClassIntALU, isa.ClassBranch:
		return c.LatIntALU, true
	case isa.ClassIntMult:
		return c.LatIntMult, true
	case isa.ClassIntDiv:
		return c.LatIntDiv, false
	case isa.ClassFPAdd:
		return c.LatFPAdd, true
	case isa.ClassFPMult:
		return c.LatFPMult, true
	case isa.ClassFPDiv:
		return c.LatFPDiv, false
	}
	return 1, true
}

// fuPool maps a class to the functional-unit group that executes it.
type fuGroup uint8

const (
	fuIntALU fuGroup = iota
	fuIntMult
	fuFPALU
	fuFPMult
	fuMemPort
	numFUGroups
)

func groupOf(cl isa.Class) fuGroup {
	switch cl {
	case isa.ClassIntALU, isa.ClassBranch:
		return fuIntALU
	case isa.ClassIntMult, isa.ClassIntDiv:
		return fuIntMult
	case isa.ClassFPAdd:
		return fuFPALU
	case isa.ClassFPMult, isa.ClassFPDiv:
		return fuFPMult
	case isa.ClassLoad, isa.ClassStore:
		return fuMemPort
	}
	return fuIntALU
}

func (c Config) groupSize(g fuGroup) int {
	switch g {
	case fuIntALU:
		return c.IntALU
	case fuIntMult:
		return c.IntMult
	case fuFPALU:
		return c.FPALU
	case fuFPMult:
		return c.FPMult
	case fuMemPort:
		return c.MemPorts
	}
	return 0
}
