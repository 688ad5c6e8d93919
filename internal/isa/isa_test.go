package isa

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestClassOfCoversAllOps(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		c := ClassOf(op)
		if c >= NumClasses {
			t.Errorf("op %s: bad class %d", op, c)
		}
		switch op {
		case NOP:
			if c != ClassNop {
				t.Errorf("NOP class %s", c)
			}
		case FDIV:
			if c != ClassFPDiv {
				t.Errorf("FDIV class %s", c)
			}
		case LD, FLD:
			if c != ClassLoad {
				t.Errorf("%s class %s", op, c)
			}
		case ST, FST:
			if c != ClassStore {
				t.Errorf("%s class %s", op, c)
			}
		case BEQZ, BNEZ, JMP:
			if c != ClassBranch {
				t.Errorf("%s class %s", op, c)
			}
		}
	}
}

func TestZeroRegisterDiscardsWrites(t *testing.T) {
	s := NewArchState()
	s.Exec(Instr{Op: LDI, Dst: ZeroReg, Imm: 42})
	if s.R[ZeroReg] != 0 {
		t.Error("write to r31 not discarded")
	}
	s.Exec(Instr{Op: FLDI, Dst: ZeroReg, Imm: FloatImm(3.5)})
	if s.F[ZeroReg] != 0 {
		t.Error("write to f31 not discarded")
	}
	// Reads of r31 always yield zero even if forced.
	s.R[ZeroReg] = 99
	s.Exec(Instr{Op: ADD, Dst: 1, Src1: ZeroReg, Src2: ZeroReg})
	if s.R[1] != 0 {
		t.Error("read of r31 not zero")
	}
}

func TestIntegerALUSemantics(t *testing.T) {
	s := NewArchState()
	s.R[1], s.R[2] = 7, 3
	cases := []struct {
		in   Instr
		want int64
	}{
		{Instr{Op: ADD, Dst: 3, Src1: 1, Src2: 2}, 10},
		{Instr{Op: SUB, Dst: 3, Src1: 1, Src2: 2}, 4},
		{Instr{Op: AND, Dst: 3, Src1: 1, Src2: 2}, 3},
		{Instr{Op: OR, Dst: 3, Src1: 1, Src2: 2}, 7},
		{Instr{Op: XOR, Dst: 3, Src1: 1, Src2: 2}, 4},
		{Instr{Op: SHL, Dst: 3, Src1: 1, Src2: 2}, 56},
		{Instr{Op: SHR, Dst: 3, Src1: 1, Src2: 2}, 0},
		{Instr{Op: CMPLT, Dst: 3, Src1: 2, Src2: 1}, 1},
		{Instr{Op: CMPLT, Dst: 3, Src1: 1, Src2: 2}, 0},
		{Instr{Op: CMPEQ, Dst: 3, Src1: 1, Src2: 1}, 1},
		{Instr{Op: ADDI, Dst: 3, Src1: 1, Imm: -10}, -3},
		{Instr{Op: MUL, Dst: 3, Src1: 1, Src2: 2}, 21},
		{Instr{Op: DIV, Dst: 3, Src1: 1, Src2: 2}, 2},
		{Instr{Op: DIV, Dst: 3, Src1: 1, Src2: ZeroReg}, 0},
	}
	for _, c := range cases {
		s.Exec(c.in)
		if s.R[3] != c.want {
			t.Errorf("%s: got %d, want %d", c.in, s.R[3], c.want)
		}
	}
}

func TestCMovNZ(t *testing.T) {
	s := NewArchState()
	s.R[1], s.R[2], s.R[3] = 1, 42, 7
	s.Exec(Instr{Op: CMOVNZ, Dst: 3, Src1: 1, Src2: 2})
	if s.R[3] != 42 {
		t.Errorf("cmovnz taken: got %d", s.R[3])
	}
	s.R[1], s.R[3] = 0, 7
	s.Exec(Instr{Op: CMOVNZ, Dst: 3, Src1: 1, Src2: 2})
	if s.R[3] != 7 {
		t.Errorf("cmovnz not-taken: got %d", s.R[3])
	}
}

func TestFloatSemantics(t *testing.T) {
	s := NewArchState()
	s.Exec(Instr{Op: FLDI, Dst: 1, Imm: FloatImm(6.0)})
	s.Exec(Instr{Op: FLDI, Dst: 2, Imm: FloatImm(1.5)})
	s.Exec(Instr{Op: FDIV, Dst: 3, Src1: 1, Src2: 2})
	if s.F[3] != 4.0 {
		t.Errorf("fdiv: got %g", s.F[3])
	}
	s.Exec(Instr{Op: FMUL, Dst: 4, Src1: 3, Src2: 2})
	if s.F[4] != 6.0 {
		t.Errorf("fmul: got %g", s.F[4])
	}
	s.Exec(Instr{Op: FDIV, Dst: 5, Src1: 1, Src2: ZeroReg})
	if !math.IsInf(s.F[5], 1) {
		t.Errorf("fdiv by zero: got %g", s.F[5])
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	s := NewArchState()
	s.R[4] = 0x1000
	s.R[2] = -12345
	out := s.Exec(Instr{Op: ST, Src1: 4, Src2: 2, Imm: 16})
	if !out.IsMem || out.EA != 0x1010 {
		t.Fatalf("store EA: %+v", out)
	}
	s.Exec(Instr{Op: LD, Dst: 5, Src1: 4, Imm: 16})
	if s.R[5] != -12345 {
		t.Errorf("load after store: got %d", s.R[5])
	}
	// FP memory shares the address space.
	s.Exec(Instr{Op: FLDI, Dst: 1, Imm: FloatImm(2.75)})
	s.Exec(Instr{Op: FST, Src1: 4, Src2: 1, Imm: 24})
	s.Exec(Instr{Op: FLD, Dst: 2, Src1: 4, Imm: 24})
	if s.F[2] != 2.75 {
		t.Errorf("fld after fst: got %g", s.F[2])
	}
}

func TestSparseMemoryZeroDefault(t *testing.T) {
	m := NewMemory()
	if m.LoadWord(0xdeadbeef) != 0 {
		t.Error("untouched memory must read zero")
	}
	m.StoreWord(1<<40, 7)
	if m.LoadWord(1<<40) != 7 {
		t.Error("high-address store lost")
	}
	if m.Footprint() != 1 {
		t.Errorf("footprint = %d pages, want 1", m.Footprint())
	}
}

func TestBranchSemantics(t *testing.T) {
	s := NewArchState()
	s.PC = 5
	out := s.Exec(Instr{Op: BEQZ, Src1: 1, Imm: 2})
	if !out.Taken || s.PC != 2 {
		t.Errorf("beqz on zero: taken=%v pc=%d", out.Taken, s.PC)
	}
	s.R[1] = 1
	out = s.Exec(Instr{Op: BEQZ, Src1: 1, Imm: 0})
	if out.Taken || s.PC != 3 {
		t.Errorf("beqz on nonzero: taken=%v pc=%d", out.Taken, s.PC)
	}
	out = s.Exec(Instr{Op: JMP, Imm: 9})
	if !out.Taken || s.PC != 9 {
		t.Errorf("jmp: pc=%d", s.PC)
	}
}

func TestHaltStopsExecution(t *testing.T) {
	s := NewArchState()
	s.Exec(Instr{Op: HALT})
	if !s.Halt {
		t.Fatal("halt flag not set")
	}
	pc := s.PC
	s.Exec(Instr{Op: ADDI, Dst: 1, Src1: 1, Imm: 5})
	if s.R[1] != 0 || s.PC != pc {
		t.Error("execution continued after halt")
	}
}

func TestBuilderLoopProgram(t *testing.T) {
	b := NewBuilder()
	b.LdI(1, 5).LdI(2, 0)
	b.Label("loop")
	b.Add(2, 2, 1)
	b.AddI(1, 1, -1)
	b.BneZ(1, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s := NewArchState()
	for i := 0; i < 1000 && !s.Halt; i++ {
		s.Exec(p[s.PC])
	}
	if !s.Halt {
		t.Fatal("program did not halt")
	}
	if s.R[2] != 5+4+3+2+1 {
		t.Errorf("sum = %d, want 15", s.R[2])
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder()
	b.Jmp("nowhere").Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("want undefined-label error")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder()
	b.Label("x").Nop().Label("x").Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("want duplicate-label error")
	}
}

func TestValidateRejectsWildBranch(t *testing.T) {
	p := Program{{Op: JMP, Imm: 99}}
	if err := p.Validate(); err == nil {
		t.Fatal("want out-of-range branch error")
	}
}

func TestParseStressmarkStyleLoop(t *testing.T) {
	src := `
	; dI/dt stressmark inner loop (paper Figure 8 shape)
	  ldi  r4, 4096
	  ldi  r5, 3
	  fldi f2, 1.0001
	loop:
	  fld  f1, 0(r4)
	  fdiv f3, f1, f2
	  fdiv f3, f3, f2
	  fst  f3, 8(r4)
	  ld   r7, 8(r4)
	  cmovnz r3, r7, r31
	  st   r3, 0(r4)
	  addi r5, r5, -1
	  bnez r5, loop
	  halt
	`
	p, err := ParseString(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	s := NewArchState()
	for i := 0; i < 10000 && !s.Halt; i++ {
		s.Exec(p[s.PC])
	}
	if !s.Halt {
		t.Fatal("did not halt")
	}
	if s.R[5] != 0 {
		t.Errorf("loop counter = %d, want 0", s.R[5])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"frobnicate r1, r2",
		"add r1, r2",
		"add f1, r2, r3",
		"ld r1, r2",
		"ld r1, 0(f2)",
		"beqz r1, nowhere",
		"addi r1, r2, abc",
		"x: x: nop",
		"ldi r99, 5",
	}
	for _, src := range bad {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q): want error", src)
		}
	}
}

func TestDisassembleParseRoundTrip(t *testing.T) {
	b := NewBuilder()
	b.LdI(1, 10).FLdI(2, 2.5)
	b.Label("top")
	b.FAdd(3, 2, 2).Mul(4, 1, 1).Ld(5, 1, 8).St(5, 1, 16)
	b.FLd(6, 1, 24).FSt(6, 1, 32)
	b.CmpEQ(7, 4, 5).CMovNZ(8, 7, 4)
	b.AddI(1, 1, -1).BneZ(1, "top").Jmp("end")
	b.Label("end").Halt()
	p := b.MustBuild()

	var sb strings.Builder
	for _, in := range p {
		sb.WriteString(in.String())
		sb.WriteString("\n")
	}
	p2, err := ParseString(sb.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(p2) != len(p) {
		t.Fatalf("length mismatch: %d vs %d", len(p2), len(p))
	}
	for i := range p {
		if p[i] != p2[i] {
			t.Errorf("instr %d: %v != %v", i, p[i], p2[i])
		}
	}
}

func TestDisassembleIncludesIndices(t *testing.T) {
	p := Program{{Op: NOP}, {Op: HALT}}
	d := Disassemble(p)
	if !strings.Contains(d, "0:") || !strings.Contains(d, "halt") {
		t.Errorf("unexpected disassembly:\n%s", d)
	}
}

func TestPropertyFloatImmRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		got := ImmFloat(FloatImm(v))
		return got == v || (math.IsNaN(got) && math.IsNaN(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyMemoryStoreLoad(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, v uint64) bool {
		addr &= (1 << 34) - 1
		m.StoreWord(addr, v)
		return m.LoadWord(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyAddMatchesGo(t *testing.T) {
	f := func(a, b int64) bool {
		s := NewArchState()
		s.R[1], s.R[2] = a, b
		s.Exec(Instr{Op: ADD, Dst: 3, Src1: 1, Src2: 2})
		return s.R[3] == a+b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWritesIntFP(t *testing.T) {
	if !(Instr{Op: LD, Dst: 1}).WritesInt() {
		t.Error("LD writes int")
	}
	if (Instr{Op: LD, Dst: ZeroReg}).WritesInt() {
		t.Error("LD to r31 writes nothing")
	}
	if !(Instr{Op: FLD, Dst: 1}).WritesFP() {
		t.Error("FLD writes fp")
	}
	if (Instr{Op: ST}).WritesInt() || (Instr{Op: ST}).WritesFP() {
		t.Error("ST writes no register")
	}
	if !(Instr{Op: BNEZ}).IsConditional() || (Instr{Op: JMP}).IsConditional() {
		t.Error("conditional classification")
	}
}

func TestPCByteAddr(t *testing.T) {
	if PCByteAddr(3) != 24 {
		t.Errorf("PCByteAddr(3) = %d", PCByteAddr(3))
	}
}

// TestDigestCoversEveryField: equal programs share a digest, and changing
// any one field of any instruction, or the length, changes it.
func TestDigestCoversEveryField(t *testing.T) {
	base := Program{{Op: LDI, Dst: 1, Imm: 7}, {Op: ADD, Dst: 2, Src1: 1, Src2: 1}, {Op: HALT}}
	if base.Digest() != append(Program(nil), base...).Digest() {
		t.Fatal("equal programs have different digests")
	}
	edits := []func(p Program){
		func(p Program) { p[0].Op = ADDI },
		func(p Program) { p[1].Dst = 3 },
		func(p Program) { p[1].Src1 = 2 },
		func(p Program) { p[1].Src2 = 2 },
		func(p Program) { p[0].Imm = 8 },
		func(p Program) { p[0].Imm = -7 },
	}
	seen := map[[32]byte]int{base.Digest(): -1}
	for i, edit := range edits {
		p := append(Program(nil), base...)
		edit(p)
		d := p.Digest()
		if j, ok := seen[d]; ok {
			t.Errorf("edit %d shares a digest with %d", i, j)
		}
		seen[d] = i
	}
	if base[:2].Digest() == base.Digest() {
		t.Error("a prefix shares the program's digest")
	}
}
