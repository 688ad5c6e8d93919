// Package bpred implements the branch prediction hardware of Table 1: a
// combined predictor (64Kbit bimodal + 64Kbit gshare selected by a 64Kbit
// chooser), a 1K-entry branch target buffer, and a 64-entry return-address
// stack.
//
// All predictor state is speculative in the same way SimpleScalar's is:
// counters update at resolution with the true outcome, and the RAS is
// checkpointed/recovered by the core on misprediction.
package bpred

import (
	"fmt"

	"didt/internal/isa"
)

// Config sizes the predictor structures. Table sizes are in two-bit
// counters (so 32768 counters = 64Kbit, the paper's "64Kb").
type Config struct {
	BimodalEntries int // power of two
	GshareEntries  int // power of two; history bits = log2
	ChooserEntries int // power of two
	BTBEntries     int // power of two, direct-mapped on PC
	RASEntries     int
}

// DefaultConfig is the Table 1 configuration.
func DefaultConfig() Config {
	return Config{
		BimodalEntries: 32768, // 64Kbit
		GshareEntries:  32768, // 64Kbit
		ChooserEntries: 32768, // 64Kbit
		BTBEntries:     1024,
		RASEntries:     64,
	}
}

// MaxEntries caps every predictor structure, 32 times Table 1's largest
// table, so that no configuration sizes one without bound.
const MaxEntries = 1 << 20

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.BimodalEntries == 0 {
		c.BimodalEntries = d.BimodalEntries
	}
	if c.GshareEntries == 0 {
		c.GshareEntries = d.GshareEntries
	}
	if c.ChooserEntries == 0 {
		c.ChooserEntries = d.ChooserEntries
	}
	if c.BTBEntries == 0 {
		c.BTBEntries = d.BTBEntries
	}
	if c.RASEntries == 0 {
		c.RASEntries = d.RASEntries
	}
	return c
}

// Validate checks the sizes, with zero fields resolved to the defaults as
// New resolves them, without building the predictor.
func (c Config) Validate() error { return c.withDefaults().validate() }

func (c Config) validate() error {
	for _, v := range []struct {
		name string
		n    int
	}{
		{"BimodalEntries", c.BimodalEntries},
		{"GshareEntries", c.GshareEntries},
		{"ChooserEntries", c.ChooserEntries},
		{"BTBEntries", c.BTBEntries},
	} {
		if v.n <= 0 || v.n&(v.n-1) != 0 || v.n > MaxEntries {
			return fmt.Errorf("bpred: %s must be a power of two in [1, %d], got %d", v.name, MaxEntries, v.n)
		}
	}
	if c.RASEntries <= 0 || c.RASEntries > MaxEntries {
		return fmt.Errorf("bpred: RASEntries must lie in [1, %d], got %d", MaxEntries, c.RASEntries)
	}
	return nil
}

// Predictor is the combined branch predictor. It is not safe for
// concurrent use.
type Predictor struct {
	cfg      Config
	bimodal  []uint8 // 2-bit counters
	gshare   []uint8
	chooser  []uint8 // 2-bit: high half prefers gshare
	history  uint64  // global history register (speculative)
	histBits uint

	btb []btbEntry

	ras    []int
	rasTop int // number of valid entries

	// Statistics.
	Lookups     uint64
	DirMispred  uint64 // conditional direction mispredictions
	TargMispred uint64 // target mispredictions (BTB / RAS misses)
}

type btbEntry struct {
	valid  bool
	pc     int
	target int
}

// New builds a predictor; zero-valued Config fields take defaults.
func New(cfg Config) (*Predictor, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &Predictor{
		cfg:     cfg,
		bimodal: make([]uint8, cfg.BimodalEntries),
		gshare:  make([]uint8, cfg.GshareEntries),
		chooser: make([]uint8, cfg.ChooserEntries),
		btb:     make([]btbEntry, cfg.BTBEntries),
		ras:     make([]int, cfg.RASEntries),
	}
	for n := cfg.GshareEntries; n > 1; n >>= 1 {
		p.histBits++
	}
	// Weakly taken initial state behaves best for loop-heavy code.
	for i := range p.bimodal {
		p.bimodal[i] = 2
	}
	for i := range p.gshare {
		p.gshare[i] = 2
	}
	for i := range p.chooser {
		p.chooser[i] = 1 // weakly prefer bimodal
	}
	return p, nil
}

// Prediction is the front end's view of one branch.
type Prediction struct {
	Taken  bool
	Target int  // meaningful if Taken
	HitBTB bool // whether a target was available

	// Snapshot for recovery and update.
	history uint64
	rasTop  int
	usedRAS bool
}

// Lookup predicts the branch at pc. The instruction is passed so the
// predictor can special-case unconditional jumps, calls and returns the way
// real front ends do (decode-assisted prediction).
func (p *Predictor) Lookup(pc int, in isa.Instr) Prediction {
	p.Lookups++
	pred := Prediction{history: p.history, rasTop: p.rasTop}
	switch in.Op {
	case isa.JMP, isa.CALL:
		pred.Taken = true
		pred.Target = int(in.Imm)
		pred.HitBTB = true
		if in.Op == isa.CALL {
			p.push(pc + 1)
		}
		return pred
	case isa.RET:
		pred.Taken = true
		pred.usedRAS = true
		if t, ok := p.pop(); ok {
			pred.Target = t
			pred.HitBTB = true
		}
		return pred
	}
	// Conditional: combined direction prediction.
	bi := p.bimodal[pc&(p.cfg.BimodalEntries-1)]
	gi := p.gshare[p.gshareIndex(pc)]
	ch := p.chooser[pc&(p.cfg.ChooserEntries-1)]
	var taken bool
	if ch >= 2 {
		taken = gi >= 2
	} else {
		taken = bi >= 2
	}
	pred.Taken = taken
	if taken {
		if e := p.btb[pc&(p.cfg.BTBEntries-1)]; e.valid && e.pc == pc {
			pred.Target = e.target
			pred.HitBTB = true
		} else {
			// No target known: front end cannot redirect; predict
			// fall-through and let resolution fix it up.
			pred.Taken = false
		}
	}
	// Speculative history update with the predicted direction.
	p.history = (p.history << 1) | b2u(pred.Taken)
	return pred
}

func (p *Predictor) gshareIndex(pc int) int {
	mask := uint64(p.cfg.GshareEntries - 1)
	return int((uint64(pc) ^ (p.history & ((1 << p.histBits) - 1))) & mask)
}

// Resolve updates predictor state with the true outcome of a previously
// looked-up branch. correct reports whether the front end's prediction
// (direction and target) matched.
func (p *Predictor) Resolve(pc int, in isa.Instr, pred Prediction, taken bool, target int) (correct bool) {
	correct = pred.Taken == taken && (!taken || pred.Target == target)
	if in.IsConditional() {
		// Update direction tables using the *lookup-time* history the
		// gshare index was computed with.
		savedHist := p.history
		p.history = pred.history
		gIdx := p.gshareIndex(pc)
		p.history = savedHist

		bIdx := pc & (p.cfg.BimodalEntries - 1)
		cIdx := pc & (p.cfg.ChooserEntries - 1)
		bCorrect := (p.bimodal[bIdx] >= 2) == taken
		gCorrect := (p.gshare[gIdx] >= 2) == taken
		p.bimodal[bIdx] = bump(p.bimodal[bIdx], taken)
		p.gshare[gIdx] = bump(p.gshare[gIdx], taken)
		if bCorrect != gCorrect {
			p.chooser[cIdx] = bump(p.chooser[cIdx], gCorrect)
		}
		if pred.Taken != taken {
			p.DirMispred++
		} else if taken && pred.Target != target {
			p.TargMispred++
		}
	} else if !correct {
		p.TargMispred++
	}
	if taken {
		e := &p.btb[pc&(p.cfg.BTBEntries-1)]
		e.valid, e.pc, e.target = true, pc, target
	}
	if !correct {
		// Squash wrong-path history and RAS speculation, then append the
		// true outcome.
		p.history = (pred.history << 1) | b2u(taken)
		p.rasTop = pred.rasTop
		if in.Op == isa.CALL {
			p.push(pc + 1)
		}
	}
	return correct
}

func (p *Predictor) push(ret int) {
	if p.rasTop < len(p.ras) {
		p.ras[p.rasTop] = ret
		p.rasTop++
	} else {
		// Overflow: shift (cheap for 64 entries, rare in practice).
		copy(p.ras, p.ras[1:])
		p.ras[len(p.ras)-1] = ret
	}
}

func (p *Predictor) pop() (int, bool) {
	if p.rasTop == 0 {
		return 0, false
	}
	p.rasTop--
	return p.ras[p.rasTop], true
}

func bump(c uint8, up bool) uint8 {
	if up {
		if c < 3 {
			return c + 1
		}
		return 3
	}
	if c > 0 {
		return c - 1
	}
	return 0
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// MispredRate returns the fraction of lookups that were mispredicted.
func (p *Predictor) MispredRate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.DirMispred+p.TargMispred) / float64(p.Lookups)
}
