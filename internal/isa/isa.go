// Package isa defines the small RISC instruction set executed by the cycle
// simulator. It stands in for SimpleScalar's Alpha ISA: the paper's
// experiments need an instruction stream whose microarchitectural activity
// (ILP, stalls, cache misses, branches, long-latency divides) can be shaped
// precisely, not binary compatibility with any real machine.
//
// The machine has 32 integer registers r0..r31 and 32 floating-point
// registers f0..f31. r31 and f31 are hardwired zero, mirroring Alpha's $31
// (the stressmark in the paper uses $31 as a discard target). Programs are
// slices of Instr addressed by instruction index; the fetch stage maps an
// index to a byte address (8 bytes per instruction) for the I-cache.
package isa

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
)

// NumRegs is the size of each register file.
const NumRegs = 32

// ZeroReg is the hardwired-zero register index in both files.
const ZeroReg = 31

// InstrBytes is the encoded size of one instruction, used to derive fetch
// addresses for the I-cache model.
const InstrBytes = 8

// Op enumerates the instruction opcodes.
type Op uint8

const (
	NOP Op = iota
	// Integer ALU.
	ADD  // Dst = Src1 + Src2
	ADDI // Dst = Src1 + Imm
	SUB  // Dst = Src1 - Src2
	AND  // Dst = Src1 & Src2
	OR   // Dst = Src1 | Src2
	XOR  // Dst = Src1 ^ Src2
	SHL  // Dst = Src1 << (Src2 & 63)
	SHR  // Dst = Src1 >> (Src2 & 63) (logical)
	CMPLT
	CMPEQ
	CMOVNZ // if Src1 != 0 { Dst = Src2 } (reads Dst as third operand)
	LDI    // Dst = Imm
	// Integer multiply / divide.
	MUL
	DIV // Src2 == 0 yields 0 (no faults in this machine)
	// Floating point.
	FADD
	FSUB
	FMUL
	FDIV // long-latency, non-pipelined: the stressmark's stall generator
	FLDI // FDst = float64 from Imm bits
	// Memory. Effective address = intreg Src1 + Imm.
	LD  // Dst  = mem[EA]   (integer)
	ST  // mem[EA] = Src2   (integer)
	FLD // FDst = mem[EA]   (float)
	FST // mem[EA] = FSrc2  (float)
	// Control. Branch target is the absolute instruction index in Imm.
	BEQZ // taken if intreg Src1 == 0
	BNEZ // taken if intreg Src1 != 0
	JMP  // unconditional
	CALL // r30 = PC+1; jump to Imm (return-address stack push)
	RET  // jump to r30 (return-address stack pop)
	HALT // stop the program

	numOps
)

// LinkReg receives the return address written by CALL and read by RET.
const LinkReg = 30

var opNames = [numOps]string{
	NOP: "nop", ADD: "add", ADDI: "addi", SUB: "sub", AND: "and", OR: "or",
	XOR: "xor", SHL: "shl", SHR: "shr", CMPLT: "cmplt", CMPEQ: "cmpeq",
	CMOVNZ: "cmovnz", LDI: "ldi", MUL: "mul", DIV: "div", FADD: "fadd",
	FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv", FLDI: "fldi", LD: "ld",
	ST: "st", FLD: "fld", FST: "fst", BEQZ: "beqz", BNEZ: "bnez",
	JMP: "jmp", CALL: "call", RET: "ret", HALT: "halt",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Class groups opcodes by the functional unit that executes them; the
// timing and power models dispatch on it.
type Class uint8

const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMult
	ClassIntDiv
	ClassFPAdd
	ClassFPMult
	ClassFPDiv
	ClassLoad
	ClassStore
	ClassBranch
	ClassHalt

	NumClasses
)

var classNames = [NumClasses]string{
	"nop", "int-alu", "int-mult", "int-div", "fp-add", "fp-mult", "fp-div",
	"load", "store", "branch", "halt",
}

// String names the class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ClassOf returns the functional-unit class for an opcode.
func ClassOf(op Op) Class {
	switch op {
	case NOP:
		return ClassNop
	case ADD, ADDI, SUB, AND, OR, XOR, SHL, SHR, CMPLT, CMPEQ, CMOVNZ, LDI:
		return ClassIntALU
	case MUL:
		return ClassIntMult
	case DIV:
		return ClassIntDiv
	case FADD, FSUB, FLDI:
		return ClassFPAdd
	case FMUL:
		return ClassFPMult
	case FDIV:
		return ClassFPDiv
	case LD, FLD:
		return ClassLoad
	case ST, FST:
		return ClassStore
	case BEQZ, BNEZ, JMP, CALL, RET:
		return ClassBranch
	case HALT:
		return ClassHalt
	}
	return ClassNop
}

// IsFP reports whether the opcode reads or writes the floating-point file.
func IsFP(op Op) bool {
	switch op {
	case FADD, FSUB, FMUL, FDIV, FLDI, FLD, FST:
		return true
	}
	return false
}

// Instr is one decoded instruction. Register fields index the integer file
// except where the opcode is floating point (then Dst/Src1/Src2 index the
// FP file, with memory ops keeping their base register Src1 in the integer
// file).
type Instr struct {
	Op   Op
	Dst  uint8
	Src1 uint8
	Src2 uint8
	Imm  int64
}

// FloatImm builds the Imm encoding for FLDI.
func FloatImm(v float64) int64 { return int64(math.Float64bits(v)) }

// ImmFloat decodes an FLDI immediate.
func ImmFloat(imm int64) float64 { return math.Float64frombits(uint64(imm)) }

// String renders assembly text round-trippable through Parse.
func (in Instr) String() string {
	switch in.Op {
	case NOP, HALT:
		return in.Op.String()
	case ADDI:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Dst, in.Src1, in.Imm)
	case LDI:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.Dst, in.Imm)
	case FLDI:
		return fmt.Sprintf("%s f%d, %g", in.Op, in.Dst, ImmFloat(in.Imm))
	case ADD, SUB, AND, OR, XOR, SHL, SHR, CMPLT, CMPEQ, CMOVNZ, MUL, DIV:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Dst, in.Src1, in.Src2)
	case FADD, FSUB, FMUL, FDIV:
		return fmt.Sprintf("%s f%d, f%d, f%d", in.Op, in.Dst, in.Src1, in.Src2)
	case LD:
		return fmt.Sprintf("ld r%d, %d(r%d)", in.Dst, in.Imm, in.Src1)
	case ST:
		return fmt.Sprintf("st r%d, %d(r%d)", in.Src2, in.Imm, in.Src1)
	case FLD:
		return fmt.Sprintf("fld f%d, %d(r%d)", in.Dst, in.Imm, in.Src1)
	case FST:
		return fmt.Sprintf("fst f%d, %d(r%d)", in.Src2, in.Imm, in.Src1)
	case BEQZ, BNEZ:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.Src1, in.Imm)
	case JMP:
		return fmt.Sprintf("jmp %d", in.Imm)
	case CALL:
		return fmt.Sprintf("call %d", in.Imm)
	case RET:
		return "ret"
	}
	return fmt.Sprintf("%s ?", in.Op)
}

// IsBranch reports whether the instruction can redirect fetch.
func (in Instr) IsBranch() bool {
	switch in.Op {
	case BEQZ, BNEZ, JMP, CALL, RET:
		return true
	}
	return false
}

// IsConditional reports whether the branch outcome depends on a register.
func (in Instr) IsConditional() bool { return in.Op == BEQZ || in.Op == BNEZ }

// IsLoad and IsStore classify memory operations.
func (in Instr) IsLoad() bool  { return in.Op == LD || in.Op == FLD }
func (in Instr) IsStore() bool { return in.Op == ST || in.Op == FST }

// WritesInt reports whether the instruction writes an integer register
// (excluding the discarding zero register).
func (in Instr) WritesInt() bool {
	switch in.Op {
	case ADD, ADDI, SUB, AND, OR, XOR, SHL, SHR, CMPLT, CMPEQ, CMOVNZ, LDI, MUL, DIV, LD:
		return in.Dst != ZeroReg
	case CALL:
		return true // writes LinkReg
	}
	return false
}

// WritesFP reports whether the instruction writes a floating-point
// register (excluding f31).
func (in Instr) WritesFP() bool {
	switch in.Op {
	case FADD, FSUB, FMUL, FDIV, FLDI, FLD:
		return in.Dst != ZeroReg
	}
	return false
}

// Program is a sequence of instructions addressed by index.
type Program []Instr

// Digest is the program's content hash: a SHA-256 over every
// instruction's opcode, registers and immediate in a fixed binary layout.
// Equal programs share a digest wherever they came from — a generator, the
// assembler or a hand-built slice — so it is the program's identity in
// every run-level cache.
func (p Program) Digest() [sha256.Size]byte {
	const instrLen = 12 // op, dst, src1, src2, imm
	buf := make([]byte, 0, instrLen*len(p))
	for _, in := range p {
		buf = append(buf, byte(in.Op), in.Dst, in.Src1, in.Src2)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(in.Imm))
	}
	return sha256.Sum256(buf)
}

// PCByteAddr converts an instruction index to a byte address for the
// I-cache model.
func PCByteAddr(pc int) uint64 { return uint64(pc) * InstrBytes }

// Validate checks that all branch targets are in range and the program is
// terminated (contains a HALT or ends with an unconditional backward jump).
func (p Program) Validate() error {
	for i, in := range p {
		if in.IsBranch() && in.Op != RET {
			if in.Imm < 0 || in.Imm >= int64(len(p)) {
				return fmt.Errorf("isa: instr %d (%s): branch target %d out of range [0,%d)", i, in, in.Imm, len(p))
			}
		}
		if in.Dst >= NumRegs || in.Src1 >= NumRegs || in.Src2 >= NumRegs {
			return fmt.Errorf("isa: instr %d (%s): register out of range", i, in)
		}
	}
	return nil
}
