package cpu

import (
	"testing"

	"didt/internal/isa"
	"didt/internal/workload"
)

// scanLoadOrders is the reference for loadOrder: it walks the window once
// in age order and calls check with each load's RUU index and its
// (forwarded, ok) — not ok once any older store's address is unresolved,
// forwarded when an older store writes the load's word. words collects
// the resolved older stores' words; it is returned for reuse.
func scanLoadOrders(c *CPU, words []uint64, check func(k int, fwd, ok bool)) []uint64 {
	words = words[:0]
	blocked := false
	for i, k := 0, c.head; i < c.count; i, k = i+1, k+1 {
		if k == len(c.ruu) {
			k = 0
		}
		e := &c.ruu[k]
		switch {
		case e.isStore && !e.addrReady:
			blocked = true
		case e.isStore:
			words = append(words, e.out.EA>>3)
		case e.isLoad && blocked:
			check(k, false, false)
		case e.isLoad:
			fwd := false
			for _, w := range words {
				if w == e.out.EA>>3 {
					fwd = true
				}
			}
			check(k, fwd, true)
		}
	}
	return words
}

// gatingSchedule is the actuator input of one cycle in the driven pass:
// one rotating combination of FUs/DL1/IL1 gated for 40 cycles in every
// 500, and a flush with a rotating penalty every 1,009 cycles (penalty < 0
// means none). It is the core's half of the machine golden's schedule.
func gatingSchedule(i int) (g Gating, flush int) {
	if i%500 < 40 {
		m := i/500%7 + 1
		g = Gating{FUs: m&1 != 0, DL1: m&2 != 0, IL1: m&4 != 0}
	}
	flush = -1
	if i%1009 == 1008 {
		flush = i / 1009 % 12
	}
	return g, flush
}

// TestStoreQueueMatchesScan steps every benchmark profile and the
// stressmark, free-running and under gatingSchedule, and before every
// cycle checks each load in the window: the store queue's answer must
// equal the age-ordered window walk. Across the runs both outcomes the
// walk can give a load waiting to issue (blocked behind an unresolved
// store, forwarded from a resolved one) must occur, so the comparison is
// not vacuous.
func TestStoreQueueMatchesScan(t *testing.T) {
	const cycles = 12_000
	type prog struct {
		name string
		prog isa.Program
	}
	var progs []prog
	for _, name := range workload.Names() {
		p, err := workload.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{name, workload.GenerateCached(p)})
	}
	progs = append(progs, prog{"stressmark", workload.StressmarkCached(workload.StressmarkParams{})})

	var checked, blocked, forwarded int
	var words []uint64
	for _, driven := range []bool{false, true} {
		for _, p := range progs {
			c, err := New(Config{}, p.prog)
			if err != nil {
				t.Fatal(err)
			}
			var act Activity
			for i := 0; i < cycles; i++ {
				if driven {
					g, flush := gatingSchedule(i)
					c.SetGating(g)
					if flush >= 0 {
						c.Flush(flush)
					}
				}
				words = scanLoadOrders(c, words, func(k int, wantFwd, wantOK bool) {
					e := &c.ruu[k]
					gotFwd, gotOK := c.loadOrder(e)
					if gotFwd != wantFwd || gotOK != wantOK {
						t.Fatalf("%s driven=%v cycle %d: load seq %d: store queue (fwd %v, ok %v), window walk (fwd %v, ok %v)",
							p.name, driven, i, e.seq, gotFwd, gotOK, wantFwd, wantOK)
					}
					checked++
					if e.state == stReady {
						if !wantOK {
							blocked++
						} else if wantFwd {
							forwarded++
						}
					}
				})
				if c.StepInto(&act) {
					break
				}
			}
			if err := c.Err(); err != nil {
				t.Fatalf("%s driven=%v: %v", p.name, driven, err)
			}
		}
	}
	t.Logf("%d load checks: %d ready loads blocked, %d forwarded", checked, blocked, forwarded)
	if blocked == 0 || forwarded == 0 {
		t.Fatalf("vacuous: %d ready loads blocked, %d forwarded", blocked, forwarded)
	}
}
