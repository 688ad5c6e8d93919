package bpred

import (
	"testing"

	"didt/internal/isa"
)

func newP(t *testing.T) *Predictor {
	t.Helper()
	p, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{BimodalEntries: 3},
		{GshareEntries: 100},
		{BTBEntries: -4},
		{RASEntries: -1, BimodalEntries: 4, GshareEntries: 4, ChooserEntries: 4, BTBEntries: 4},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestUnconditionalAlwaysPredictedTaken(t *testing.T) {
	p := newP(t)
	in := isa.Instr{Op: isa.JMP, Imm: 42}
	pr := p.Lookup(7, in)
	if !pr.Taken || pr.Target != 42 || !pr.HitBTB {
		t.Errorf("jmp prediction: %+v", pr)
	}
	if ok := p.Resolve(7, in, pr, true, 42); !ok {
		t.Error("jmp must resolve correct")
	}
}

func TestLoopBranchLearnsTaken(t *testing.T) {
	p := newP(t)
	in := isa.Instr{Op: isa.BNEZ, Src1: 1, Imm: 3}
	pc := 10
	correct := 0
	for i := 0; i < 100; i++ {
		pr := p.Lookup(pc, in)
		if p.Resolve(pc, in, pr, true, 3) {
			correct++
		}
	}
	if correct < 95 {
		t.Errorf("loop branch: %d/100 correct, want >=95", correct)
	}
}

func TestBTBColdMissThenLearn(t *testing.T) {
	p := newP(t)
	in := isa.Instr{Op: isa.BNEZ, Src1: 1, Imm: 5}
	pr := p.Lookup(20, in)
	// Cold BTB: even if direction said taken, no target -> fall-through.
	if pr.Taken {
		t.Errorf("cold lookup should predict fall-through, got %+v", pr)
	}
	p.Resolve(20, in, pr, true, 5)
	// Warm it up past the counters.
	for i := 0; i < 4; i++ {
		pr = p.Lookup(20, in)
		p.Resolve(20, in, pr, true, 5)
	}
	pr = p.Lookup(20, in)
	if !pr.Taken || pr.Target != 5 {
		t.Errorf("after training: %+v", pr)
	}
}

func TestAlternatingPatternGshareLearns(t *testing.T) {
	// T,N,T,N... is hard for bimodal but trivial for gshare with history.
	p := newP(t)
	in := isa.Instr{Op: isa.BEQZ, Src1: 1, Imm: 2}
	pc := 30
	// Train BTB and counters.
	correct := 0
	for i := 0; i < 400; i++ {
		taken := i%2 == 0
		pr := p.Lookup(pc, in)
		tgt := 2
		if !taken {
			tgt = pc + 1
		}
		if p.Resolve(pc, in, pr, taken, tgt) && i >= 200 {
			correct++
		}
	}
	if correct < 180 {
		t.Errorf("alternating branch after warmup: %d/200 correct", correct)
	}
}

func TestCallRetUsesRAS(t *testing.T) {
	p := newP(t)
	call := isa.Instr{Op: isa.CALL, Imm: 100}
	ret := isa.Instr{Op: isa.RET}
	prCall := p.Lookup(5, call)
	if !prCall.Taken || prCall.Target != 100 {
		t.Fatalf("call prediction: %+v", prCall)
	}
	p.Resolve(5, call, prCall, true, 100)
	prRet := p.Lookup(100, ret)
	if !prRet.Taken || prRet.Target != 6 || !prRet.HitBTB {
		t.Errorf("ret should pop 6 from RAS: %+v", prRet)
	}
	p.Resolve(100, ret, prRet, true, 6)
}

func TestNestedCallsRAS(t *testing.T) {
	p := newP(t)
	// call from 1 -> 10, call from 11 -> 20, ret -> 12, ret -> 2.
	c1 := isa.Instr{Op: isa.CALL, Imm: 10}
	c2 := isa.Instr{Op: isa.CALL, Imm: 20}
	r := isa.Instr{Op: isa.RET}
	p.Resolve(1, c1, p.Lookup(1, c1), true, 10)
	p.Resolve(11, c2, p.Lookup(11, c2), true, 20)
	pr := p.Lookup(20, r)
	if pr.Target != 12 {
		t.Errorf("inner ret: got %d, want 12", pr.Target)
	}
	p.Resolve(20, r, pr, true, 12)
	pr = p.Lookup(12, r)
	if pr.Target != 2 {
		t.Errorf("outer ret: got %d, want 2", pr.Target)
	}
}

func TestRASRecoversOnMisprediction(t *testing.T) {
	p := newP(t)
	call := isa.Instr{Op: isa.CALL, Imm: 50}
	// A mispredicted conditional before the call squashes speculative RAS
	// pushes from the wrong path.
	cond := isa.Instr{Op: isa.BNEZ, Src1: 1, Imm: 9}
	prCond := p.Lookup(3, cond)
	// Wrong path executes a call speculatively.
	p.Lookup(4, call)
	// Now the conditional resolves mispredicted: RAS must rewind.
	p.Resolve(3, cond, prCond, !prCond.Taken, 9)
	if p.rasTop != 0 {
		t.Errorf("RAS not recovered: top=%d", p.rasTop)
	}
}

func TestRASOverflowShifts(t *testing.T) {
	p := newP(t)
	call := isa.Instr{Op: isa.CALL, Imm: 1}
	for i := 0; i < 70; i++ {
		pr := p.Lookup(i, call)
		p.Resolve(i, call, pr, true, 1)
	}
	// Stack holds the most recent 64 return addresses; next pop must be 70.
	pr := p.Lookup(1, isa.Instr{Op: isa.RET})
	if pr.Target != 70 {
		t.Errorf("after overflow, top = %d, want 70", pr.Target)
	}
}

func TestMispredRateCounts(t *testing.T) {
	p := newP(t)
	in := isa.Instr{Op: isa.BNEZ, Src1: 1, Imm: 1}
	pr := p.Lookup(8, in)
	p.Resolve(8, in, pr, !pr.Taken, 9) // force one mispredict
	if p.DirMispred+p.TargMispred != 1 {
		t.Errorf("mispredicts = %d+%d, want 1", p.DirMispred, p.TargMispred)
	}
	if p.Lookups != 1 {
		t.Errorf("lookups = %d", p.Lookups)
	}
}

func TestDistinctBranchesDoNotAlias(t *testing.T) {
	p := newP(t)
	a := isa.Instr{Op: isa.BNEZ, Src1: 1, Imm: 2}
	b := isa.Instr{Op: isa.BEQZ, Src1: 2, Imm: 4}
	// Train a taken, b not-taken at PCs that do not collide in the tables.
	for i := 0; i < 50; i++ {
		pra := p.Lookup(100, a)
		p.Resolve(100, a, pra, true, 2)
		prb := p.Lookup(200, b)
		p.Resolve(200, b, prb, false, 201)
	}
	if pr := p.Lookup(100, a); !pr.Taken {
		t.Error("branch a should predict taken")
	}
	if pr := p.Lookup(200, b); pr.Taken {
		t.Error("branch b should predict not-taken")
	}
}
