// Package cpu implements the cycle-level out-of-order core of Table 1: an
// 8-wide machine with a 256-entry register update unit (RUU — the merged
// reorder buffer / reservation stations of SimpleScalar's sim-outorder), a
// 128-entry load/store queue, the Table 1 functional-unit mix, a combined
// branch predictor and the Table 1 memory hierarchy.
//
// The timing model uses SimpleScalar's execute-at-dispatch technique:
// instructions are functionally executed (against isa.ArchState) when they
// enter the window, so values, branch outcomes and effective addresses are
// exact, while the pipeline model charges realistic timing. On a branch
// misprediction the front end stops (no wrong-path dispatch) and resumes at
// resolution plus the configured refill penalty; the quiet front end during
// refill is precisely the current dip the paper's controller must manage.
//
// Every cycle Step returns an Activity report for the power model, and the
// Gating hooks let the dI/dt actuator clock-gate the execution units and
// the L1 caches without perturbing architectural state.
package cpu

import (
	"fmt"
	"math/bits"

	"didt/internal/bpred"
	"didt/internal/isa"
	"didt/internal/mem"
	"didt/internal/telemetry"
)

const (
	stWaiting uint8 = iota // in window, operands outstanding
	stReady                // operands available, not yet issued
	stIssued               // executing
	stDone                 // completed, awaiting commit
)

// calBuckets must exceed the longest possible operation latency.
const calBuckets = 1024

type prodRef struct {
	idx int32
	seq uint64
}

// decoded is one static instruction's decode, done once per program
// instruction in New, so fetch and the pipeline stages never re-run the
// opcode switches for a dynamic instruction.
type decoded struct {
	class isa.Class
	fu    fuGroup

	isBranch, isLoad, isStore bool
	writesInt, writesFP       bool // excluding the zero registers
	halt                      bool

	dst  uint8 // register written when writesInt/writesFP (LinkReg for CALL)
	nsrc uint8
	srcs [3]regRef
}

type entry struct {
	decoded

	in    isa.Instr
	pc    int
	seq   uint64
	out   isa.Outcome
	pred  bpred.Prediction
	state uint8

	mispred bool

	waitCnt   int
	consumers []prodRef // younger entries waiting on this result

	addrReady bool   // stores: address generated
	sqAt      uint64 // loads: stores dispatched before this load (sqTail)

	doneAt uint64
}

type fetchSlot struct {
	pc   int
	pred bpred.Prediction
}

// sqEntry is one in-flight store: its RUU index and the 8-byte word it
// writes (known at dispatch, since execution happens there).
type sqEntry struct {
	idx  int32
	word uint64
}

// CPU is one core instance. It is not safe for concurrent use.
type CPU struct {
	cfg  Config
	prog isa.Program
	dec  []decoded // dec[pc] decodes prog[pc]
	arch *isa.ArchState

	Pred *bpred.Predictor
	Mem  *mem.Hierarchy

	gating Gating

	// Window state. ruu is a ring: head is the oldest entry, count entries.
	// Both rings below advance by compare-and-reset, never by division.
	ruu   []entry
	head  int
	count int
	seq   uint64

	lsqCount int // in-flight loads and stores

	// Store queue: the in-flight stores in program order, in a ring indexed
	// by monotonic counters masked to its power-of-two length. Stores
	// [sqHead, sqTail) are in flight; sqUnres is the oldest one whose
	// address may still be unresolved, advanced lazily by loadOrder.
	sq                      []sqEntry
	sqMask                  uint64
	sqHead, sqTail, sqUnres uint64

	// Per-class execution latency and pipelining, built once from the
	// Config in New.
	classLat  [isa.NumClasses]int
	classPipe [isa.NumClasses]bool

	intProd [isa.NumRegs]prodRef
	fpProd  [isa.NumRegs]prodRef

	ready []int32 // ready-entry ring, kept in age order

	calendar [calBuckets][]int32
	calBusy  [calBuckets / 64]uint64 // bit b set: calendar[b] is non-empty

	fuBusy [numFUGroups][]uint64 // per-unit busy-until cycle

	// Front end. fetchQ is a fixed ring of FetchQLen slots (fqHead is the
	// oldest entry, fqLen the occupancy) so steady-state fetch/dispatch
	// traffic never reallocates or re-slices the queue.
	fetchPC      int
	fetchQ       []fetchSlot
	fqHead       int
	fqLen        int
	fetchBlocked bool // mispredicted branch in flight; no wrong-path fetch
	fetchHalted  bool // HALT fetched or PC ran off the program
	fetchReadyAt uint64
	curFetchLine uint64
	lineMask     uint64 // I-cache line address mask

	haltSeen   bool // HALT dispatched
	done       bool
	cycle      uint64
	idleStreak uint64 // consecutive no-progress cycles (deadlock guard)
	wedgeAfter uint64 // idleStreak beyond which the core is wedged
	lastDead   bool   // the last cycle was dead, under the current gating (see SkipDead)

	stats Stats
	err   error
}

// New builds a core for the given program. Zero Config fields take the
// Table 1 defaults.
func New(cfg Config, prog isa.Program) (*CPU, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if len(prog) == 0 {
		return nil, fmt.Errorf("cpu: empty program")
	}
	pred, err := bpred.New(cfg.Bpred)
	if err != nil {
		return nil, err
	}
	hier, err := mem.NewHierarchy(cfg.Mem)
	if err != nil {
		return nil, err
	}
	m := hier.Config()
	sqLen := 1
	for sqLen < cfg.LSQSize {
		sqLen <<= 1
	}
	c := &CPU{
		cfg:          cfg,
		prog:         prog,
		dec:          make([]decoded, len(prog)),
		arch:         isa.NewArchState(),
		Pred:         pred,
		Mem:          hier,
		ruu:          make([]entry, cfg.RUUSize),
		sq:           make([]sqEntry, sqLen),
		sqMask:       uint64(sqLen - 1),
		fetchQ:       make([]fetchSlot, cfg.FetchQLen),
		seq:          1,
		curFetchLine: ^uint64(0),
		lineMask:     ^uint64(int64(m.LineBytes - 1)),
		// The longest legitimate quiet period is a memory-latency stall
		// (or an actuator gate); anything much longer is a wedge.
		wedgeAfter: uint64(4 * (m.MemLat + calBuckets)),
	}
	for cl := isa.Class(0); cl < isa.NumClasses; cl++ {
		c.classLat[cl], c.classPipe[cl] = cfg.latency(cl)
	}
	for g := fuGroup(0); g < numFUGroups; g++ {
		c.fuBusy[g] = make([]uint64, cfg.groupSize(g))
	}
	for pc, in := range prog {
		c.dec[pc] = decode(in)
	}
	telemetry.Default().Counter("cpu.machines_built_total").Inc()
	return c, nil
}

// Arch exposes the architectural state (for workload setup and result
// inspection).
func (c *CPU) Arch() *isa.ArchState { return c.arch }

// Config returns the resolved configuration.
func (c *CPU) Config() Config { return c.cfg }

// SetGating installs the actuator's gating decision for subsequent cycles.
func (c *CPU) SetGating(g Gating) {
	if g != c.gating {
		c.lastDead = false // the next cycle's Activity reports the new gating
	}
	c.gating = g
	c.Mem.DL1Gated = g.DL1
	c.Mem.IL1Gated = g.IL1
}

// Flush models the pipeline-flush recovery alternative of the paper's
// Section 6 ("flushing the pipeline if execution cannot resume
// mid-stream"): the fetch queue is discarded and the front end restarts at
// the oldest discarded instruction after the given refill penalty. In-
// window instructions are unaffected (they hold architectural results).
// If a misprediction recovery is already pending, the flush is a no-op —
// that recovery will redirect fetch anyway. Discarded instructions are
// re-looked-up on re-fetch, so the branch predictor sees their history
// twice; this small inaccuracy is inherent to flush-style recovery.
func (c *CPU) Flush(penalty int) {
	if c.fetchBlocked || c.fetchHalted {
		return
	}
	if c.fqLen > 0 {
		c.fetchPC = c.fetchQ[c.fqHead].pc
		c.fqHead, c.fqLen = 0, 0
		c.curFetchLine = ^uint64(0)
	}
	if penalty < 0 {
		penalty = 0
	}
	if at := c.cycle + uint64(penalty); at > c.fetchReadyAt {
		c.fetchReadyAt = at
	}
}

// Gating returns the current gating state.
func (c *CPU) Gating() Gating { return c.gating }

// Done reports whether the program has fully retired (or the core wedged;
// see Err).
func (c *CPU) Done() bool { return c.done }

// Err reports an internal model error (deadlock); nil in normal operation.
func (c *CPU) Err() error { return c.err }

// Stats returns a snapshot of run statistics.
func (c *CPU) Stats() Stats {
	s := c.stats
	s.L1IMissRate = c.Mem.L1I.MissRate()
	s.L1DMissRate = c.Mem.L1D.MissRate()
	s.L2MissRate = c.Mem.L2.MissRate()
	s.BranchLookups = c.Pred.Lookups
	s.Mispredicts = c.Pred.DirMispred + c.Pred.TargMispred
	return s
}

// Cycle returns the current cycle number.
func (c *CPU) Cycle() uint64 { return c.cycle }

// Step advances the core one clock cycle and returns the structural
// activity of that cycle. done becomes true when the program has retired.
func (c *CPU) Step() (Activity, bool) {
	var act Activity
	done := c.StepInto(&act)
	return act, done
}

// StepInto is Step without the ~200-byte Activity return copy: it resets
// *act and fills it in place. The simulation loops call it once per
// machine cycle per lane, where the value-return copies (Step's return,
// the power model's argument) were a measurable slice of a cold sweep.
//
//didt:hotpath
func (c *CPU) StepInto(act *Activity) bool {
	*act = Activity{}
	if c.done {
		return true
	}
	act.FUsGated, act.DL1Gated, act.IL1Gated = c.gating.FUs, c.gating.DL1, c.gating.IL1
	if c.gating.FUs || c.gating.DL1 || c.gating.IL1 {
		c.stats.GatedCycles++
	}

	c.writeback(act)
	c.commit(act)
	c.issue(act)
	c.dispatch(act)
	c.fetch(act)

	act.RUUOccupancy = c.count
	act.LSQOccupancy = c.lsqCount
	c.stats.Cycles++
	if act.Issued == 0 {
		c.stats.IssueStallCycles++
	}
	if act.Fetched == 0 {
		c.stats.FetchStallCycles++
	}
	c.cycle++

	// Deadlock guard: the machine must eventually make progress somewhere
	// (fetch counts — an empty window waiting out a cold I-cache miss is
	// legitimate, but thousands of cycles with no events of any kind means
	// a model bug or a permanently-gated machine).
	if !c.done && act.Completed == 0 && act.Committed == 0 && act.Issued == 0 &&
		act.Dispatched == 0 && act.Fetched == 0 {
		c.idleStreak++
		c.lastDead = act.ICacheAccess == 0
		if c.idleStreak > c.wedgeAfter {
			c.err = fmt.Errorf("cpu: pipeline wedged at cycle %d (pc=%d, ruu=%d)", c.cycle, c.fetchPC, c.count) //didt:allow hotpath -- terminal wedge diagnostic, reached at most once per run
			c.done = true
		}
	} else {
		c.idleStreak = 0
		c.lastDead = false
	}

	if c.count == 0 && (c.fetchHalted || c.fetchBlocked) && c.fqLen == 0 && c.haltSeen {
		c.done = true
	}
	// A program that runs off the end without HALT also terminates once
	// drained.
	if c.count == 0 && c.fetchHalted && c.fqLen == 0 {
		c.done = true
	}
	return c.done
}

// SkipDead advances the core over the dead cycles that follow a dead one,
// at most limit of them, in O(1), and returns how many it skipped. A dead
// cycle fetches, dispatches, issues, completes and commits nothing and
// touches no cache: the core only waits, mostly out a memory miss. The
// last StepInto must have been dead, with the gating unchanged since, and
// the core must stay dead: nothing ready to issue, an RUU head that has
// not completed, dispatch blocked, and the front end idle or waiting on
// fetchReadyAt. Then nothing changes before the next non-empty completion
// bucket or fetchReadyAt, every skipped cycle's Activity equals the last
// one's, and SkipDead advances what each such StepInto would: the cycle,
// the idle streak and the stall counters. It stops short of the cycle on
// which the wedge guard fires, so that cycle is stepped as before.
//
//didt:hotpath
func (c *CPU) SkipDead(limit uint64) uint64 {
	if !c.lastDead || c.done || len(c.ready) > 0 || c.count > 0 && c.ruu[c.head].state == stDone {
		return 0
	}
	if !c.fetchBlocked && c.fqLen > 0 && c.count < c.cfg.RUUSize {
		d := &c.dec[c.fetchQ[c.fqHead].pc]
		if !(d.isLoad || d.isStore) || c.lsqCount < c.cfg.LSQSize {
			return 0 // dispatch would proceed
		}
	}
	n := min(limit, c.wedgeAfter-c.idleStreak)
	if !c.fetchBlocked && !c.fetchHalted && !c.gating.IL1 && c.fqLen < len(c.fetchQ) {
		if c.cycle >= c.fetchReadyAt {
			return 0 // fetch would run
		}
		n = min(n, c.fetchReadyAt-c.cycle)
	}
	n = c.calendarGap(n)
	c.cycle += n
	c.idleStreak += n
	c.stats.Cycles += n
	c.stats.IssueStallCycles += n
	c.stats.FetchStallCycles += n
	if c.count > 0 {
		c.stats.CommitStallCycles += n
	}
	if c.gating.FUs || c.gating.DL1 || c.gating.IL1 {
		c.stats.GatedCycles += n
	}
	return n
}

// DeadActivity writes into *act the Activity of a dead cycle under the
// current gating: the one each cycle SkipDead skips reports.
func (c *CPU) DeadActivity(act *Activity) {
	*act = Activity{RUUOccupancy: c.count, LSQOccupancy: c.lsqCount}
	act.FUsGated, act.DL1Gated, act.IL1Gated = c.gating.FUs, c.gating.DL1, c.gating.IL1
}

// calendarGap returns the number of cycles, at most limit, from the
// current one to the first whose completion bucket is non-empty.
func (c *CPU) calendarGap(limit uint64) uint64 {
	p := c.cycle % calBuckets
	for d := uint64(0); d < limit && d < calBuckets; {
		b := (p + d) % calBuckets
		if w := c.calBusy[b/64] >> (b % 64); w != 0 {
			return min(d+uint64(bits.TrailingZeros64(w)), limit)
		}
		d += 64 - b%64
	}
	return limit
}

func (c *CPU) writeback(act *Activity) {
	bucket := &c.calendar[c.cycle%calBuckets]
	if len(*bucket) == 0 {
		return
	}
	for _, idx := range *bucket {
		e := &c.ruu[idx]
		if e.state != stIssued || e.doneAt != c.cycle {
			continue // stale (squashed and slot reused)
		}
		e.state = stDone
		act.Completed++
		if e.writesInt || e.writesFP {
			act.RegWrites++
		}
		if e.isStore {
			e.addrReady = true
		}
		// Wake consumers.
		for _, cr := range e.consumers {
			t := &c.ruu[cr.idx]
			if t.seq != cr.seq || t.state != stWaiting {
				continue
			}
			act.WindowWakeups++
			t.waitCnt--
			if t.waitCnt == 0 {
				t.state = stReady
				c.ready = append(c.ready, cr.idx)
			}
		}
		e.consumers = e.consumers[:0]
		if e.isBranch {
			c.resolveBranch(e)
		}
	}
	*bucket = (*bucket)[:0]
	b := c.cycle % calBuckets
	c.calBusy[b/64] &^= 1 << (b % 64)
}

func (c *CPU) resolveBranch(e *entry) {
	taken := e.out.Taken
	c.Pred.Resolve(e.pc, e.in, e.pred, taken, e.out.NextPC)
	if e.mispred {
		// Recovery: drop the wrong-path fetch queue and restart the front
		// end at the correct target after the refill penalty.
		c.fqHead, c.fqLen = 0, 0
		c.fetchBlocked = false
		c.fetchPC = e.out.NextPC
		c.fetchReadyAt = c.cycle + 1 + uint64(c.cfg.BranchPenalty)
		c.curFetchLine = ^uint64(0)
		if c.fetchPC < 0 || c.fetchPC >= len(c.prog) {
			c.fetchHalted = true
			c.haltSeen = true
		} else {
			c.fetchHalted = false
		}
	}
}

func (c *CPU) commit(act *Activity) {
	for n := 0; n < c.cfg.CommitWidth && c.count > 0; n++ {
		idx := int32(c.head)
		e := &c.ruu[idx]
		if e.state != stDone {
			c.stats.CommitStallCycles++
			return
		}
		if e.isStore {
			// Stores update the D-cache at retirement; a gated cache
			// stalls commit (the clock is off).
			res, ok := c.Mem.AccessData(e.out.EA, true)
			if !ok {
				c.stats.CommitStallCycles++
				return
			}
			act.DCacheAccess++
			if res.L2Used {
				act.L2Access++
			}
			c.sqHead++ // stores commit in order: this is the oldest
		}
		// Free the register-status entry if it still points here.
		if e.writesInt {
			if p := &c.intProd[e.dst]; p.idx == idx && p.seq == e.seq {
				p.seq = 0
			}
		}
		if e.writesFP {
			if p := &c.fpProd[e.dst]; p.idx == idx && p.seq == e.seq {
				p.seq = 0
			}
		}
		if e.isLoad || e.isStore {
			c.lsqCount--
		}
		e.seq = 0
		if c.head++; c.head == len(c.ruu) {
			c.head = 0
		}
		c.count--
		act.Committed++
		c.stats.Instructions++
		if e.halt {
			c.done = true
			return
		}
	}
}

func (c *CPU) issue(act *Activity) {
	if len(c.ready) == 0 {
		return
	}
	// Keep age order so older instructions get FU priority.
	insertionSortReady(c.ready, c.ruu)
	budget := c.cfg.IssueWidth
	out := c.ready[:0]
	for _, idx := range c.ready {
		e := &c.ruu[idx]
		if e.state != stReady {
			continue // squashed or stale
		}
		if budget == 0 {
			out = append(out, idx)
			continue
		}
		if ok := c.tryIssue(idx, e, act); ok {
			budget--
			act.Issued++
			c.stats.Issued++
			act.IssuedByClass[e.class]++
		} else {
			out = append(out, idx)
		}
	}
	c.ready = out
}

func (c *CPU) tryIssue(idx int32, e *entry, act *Activity) bool {
	// Execution-unit gating from the dI/dt actuator: the int and fp
	// pipelines are clock-gated, so nothing can start executing on them.
	if c.gating.FUs {
		switch e.class {
		case isa.ClassIntALU, isa.ClassIntMult, isa.ClassIntDiv,
			isa.ClassFPAdd, isa.ClassFPMult, isa.ClassFPDiv, isa.ClassBranch:
			return false
		}
	}
	var lat int
	var dcache, l2 bool
	switch {
	case e.isLoad:
		if c.gating.DL1 {
			return false
		}
		fwd, ok := c.loadOrder(e)
		if !ok {
			return false
		}
		if fwd {
			lat = 1 // store-to-load forward inside the LSQ
		} else {
			res, ok := c.Mem.AccessData(e.out.EA, false)
			if !ok {
				return false
			}
			lat = res.Latency
			dcache = true
			l2 = res.L2Used
		}
	case e.isStore:
		lat = 1 // address generation only; data written at commit
	default:
		lat = c.classLat[e.class]
	}
	// Allocate a functional unit.
	grp := e.fu
	unit := -1
	for u, busy := range c.fuBusy[grp] {
		if busy <= c.cycle {
			unit = u
			break
		}
	}
	if unit < 0 {
		return false
	}
	if c.classPipe[e.class] { // loads and stores included
		c.fuBusy[grp][unit] = c.cycle + 1
	} else {
		c.fuBusy[grp][unit] = c.cycle + uint64(lat)
	}
	e.state = stIssued
	if lat < 1 {
		lat = 1
	}
	e.doneAt = c.cycle + uint64(lat)
	b := e.doneAt % calBuckets
	slot := &c.calendar[b]
	*slot = append(*slot, idx)
	c.calBusy[b/64] |= 1 << (b % 64)
	if dcache {
		act.DCacheAccess++
	}
	if l2 {
		act.L2Access++
	}
	// Register-file read traffic.
	act.RegReads += int(e.nsrc)
	return true
}

// loadOrder enforces conservative load/store ordering: a load may issue
// only after every older in-flight store has generated its address. It
// reports (forwarded, ok): forwarded means an older store to the same word
// supplies the data directly. The older in-flight stores are queue entries
// [sqHead, e.sqAt); sqUnres only moves forward, since a resolved store
// stays resolved until it commits.
func (c *CPU) loadOrder(e *entry) (bool, bool) {
	u := max(c.sqUnres, c.sqHead)
	for u < e.sqAt && c.ruu[c.sq[u&c.sqMask].idx].addrReady {
		u++
	}
	c.sqUnres = u
	if u < e.sqAt {
		return false, false
	}
	w := e.out.EA >> 3
	for k := e.sqAt; k > c.sqHead; k-- {
		if c.sq[(k-1)&c.sqMask].word == w {
			return true, true
		}
	}
	return false, true
}

func (c *CPU) dispatch(act *Activity) {
	if c.fetchBlocked {
		return
	}
	for n := 0; n < c.cfg.DecodeWidth && c.fqLen > 0; n++ {
		if c.count == c.cfg.RUUSize {
			return
		}
		slot := &c.fetchQ[c.fqHead]
		d := &c.dec[slot.pc]
		if (d.isLoad || d.isStore) && c.lsqCount == c.cfg.LSQSize {
			return
		}
		c.fqHead++
		if c.fqHead == len(c.fetchQ) {
			c.fqHead = 0
		}
		c.fqLen--

		tail := c.head + c.count
		if tail >= len(c.ruu) {
			tail -= len(c.ruu)
		}
		pos := int32(tail)
		c.count++
		e := &c.ruu[pos]
		// Reset the slot field-by-field rather than with a struct-literal
		// overwrite: that keeps the consumer list's capacity (writeback's
		// appends would otherwise reallocate per dispatched entry) and skips
		// re-zeroing the large out/pred fields that the assignments below
		// overwrite in full anyway.
		e.decoded = *d
		e.in = c.prog[slot.pc]
		e.pc = slot.pc
		e.seq = c.seq
		e.pred = slot.pred
		e.state = stWaiting
		e.mispred = false
		e.waitCnt = 0
		e.addrReady = false
		e.doneAt = 0
		e.consumers = e.consumers[:0]
		c.seq++
		// Functional execution: exact values, outcome and address.
		e.out = c.arch.Exec(e.in)
		if e.isLoad {
			e.sqAt = c.sqTail
			c.lsqCount++
		} else if e.isStore {
			c.sq[c.sqTail&c.sqMask] = sqEntry{pos, e.out.EA >> 3}
			c.sqTail++
			c.lsqCount++
		}

		// Collect operand dependencies against in-flight producers.
		for _, src := range e.srcs[:e.nsrc] {
			var p *prodRef
			if src.fp {
				p = &c.fpProd[src.reg]
			} else {
				p = &c.intProd[src.reg]
			}
			if p.seq == 0 {
				continue
			}
			pe := &c.ruu[p.idx]
			if pe.seq != p.seq || pe.state == stDone {
				continue
			}
			e.waitCnt++
			pe.consumers = append(pe.consumers, prodRef{pos, e.seq})
		}
		// Publish this entry as the new producer of its destination.
		if e.writesInt {
			c.intProd[e.dst] = prodRef{pos, e.seq}
		}
		if e.writesFP {
			c.fpProd[e.dst] = prodRef{pos, e.seq}
		}

		if e.waitCnt == 0 {
			e.state = stReady
			c.ready = append(c.ready, pos)
		}
		act.Dispatched++

		if e.isBranch {
			correct := e.pred.Taken == e.out.Taken && (!e.out.Taken || e.pred.Target == e.out.NextPC)
			if !correct {
				e.mispred = true
				c.fetchBlocked = true
				return
			}
		}
		if e.halt {
			c.haltSeen = true
			return
		}
	}
}

func (c *CPU) fetch(act *Activity) {
	if c.fetchBlocked || c.fetchHalted || c.gating.IL1 {
		return
	}
	if c.cycle < c.fetchReadyAt {
		return
	}
	lineMask := c.lineMask
	for n := 0; n < c.cfg.FetchWidth && c.fqLen < len(c.fetchQ); n++ {
		if c.fetchPC < 0 || c.fetchPC >= len(c.prog) {
			c.fetchHalted = true
			c.haltSeen = true
			return
		}
		addr := isa.PCByteAddr(c.fetchPC)
		if addr&lineMask != c.curFetchLine {
			res, ok := c.Mem.FetchInstr(addr)
			if !ok {
				return // I-cache gated
			}
			act.ICacheAccess++
			if res.L2Used {
				act.L2Access++
			}
			c.curFetchLine = addr & lineMask
			if !res.L1Hit {
				c.fetchReadyAt = c.cycle + uint64(res.Latency)
				return
			}
		}
		d := &c.dec[c.fetchPC]
		tail := c.fqHead + c.fqLen
		if tail >= len(c.fetchQ) {
			tail -= len(c.fetchQ)
		}
		// Fill the queue slot in place rather than copying a built one in.
		slot := &c.fetchQ[tail]
		slot.pc = c.fetchPC
		if d.isBranch {
			slot.pred = c.Pred.Lookup(c.fetchPC, c.prog[c.fetchPC])
			act.BpredLookups++
		} else {
			slot.pred = bpred.Prediction{}
		}
		c.fqLen++
		act.Fetched++
		c.stats.Fetched++
		if d.halt {
			c.fetchHalted = true
			return
		}
		if d.isBranch && slot.pred.Taken {
			c.fetchPC = slot.pred.Target
			return // taken branch ends the fetch group
		}
		c.fetchPC++
	}
}

// regRef names one register operand.
type regRef struct {
	fp  bool
	reg uint8
}

// decode predecodes one static instruction.
func decode(in isa.Instr) decoded {
	d := decoded{
		class:     isa.ClassOf(in.Op),
		isBranch:  in.IsBranch(),
		isLoad:    in.IsLoad(),
		isStore:   in.IsStore(),
		writesInt: in.WritesInt(),
		writesFP:  in.WritesFP(),
		halt:      in.Op == isa.HALT,
		dst:       in.Dst,
	}
	d.fu = groupOf(d.class)
	if in.Op == isa.CALL {
		d.dst = isa.LinkReg
	}
	// The register operands the instruction reads.
	switch in.Op {
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR,
		isa.CMPLT, isa.CMPEQ, isa.MUL, isa.DIV:
		d.srcs, d.nsrc = [3]regRef{{false, in.Src1}, {false, in.Src2}}, 2
	case isa.CMOVNZ:
		d.srcs, d.nsrc = [3]regRef{{false, in.Src1}, {false, in.Src2}, {false, in.Dst}}, 3
	case isa.ADDI, isa.LD, isa.FLD, isa.BEQZ, isa.BNEZ:
		d.srcs, d.nsrc = [3]regRef{{false, in.Src1}}, 1
	case isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV:
		d.srcs, d.nsrc = [3]regRef{{true, in.Src1}, {true, in.Src2}}, 2
	case isa.ST:
		d.srcs, d.nsrc = [3]regRef{{false, in.Src1}, {false, in.Src2}}, 2
	case isa.FST:
		d.srcs, d.nsrc = [3]regRef{{false, in.Src1}, {true, in.Src2}}, 2
	case isa.RET:
		d.srcs, d.nsrc = [3]regRef{{false, isa.LinkReg}}, 1
	}
	return d
}

// insertionSortReady keeps the ready list in ascending seq (age) order;
// the list is nearly sorted between cycles, so insertion sort is cheap.
func insertionSortReady(xs []int32, ruu []entry) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		sx := ruu[x].seq
		j := i - 1
		for j >= 0 && ruu[xs[j]].seq > sx {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = x
	}
}
