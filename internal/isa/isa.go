// Package isa defines SG32, the synthetic 32-bit guest instruction set
// that the dynamic binary translator executes.
//
// SG32 stands in for IA-32 in the reproduction: the study's statistics
// depend only on the control-flow behaviour of guest code (conditional
// branches, loops, calls), not on the guest ISA's encoding details, so
// SG32 is a small fixed-width RISC-style ISA that is cheap to decode but
// still forces the translator to do real work: instructions are stored as
// encoded 32-bit words in a code image, and the translator must decode
// them, discover basic-block boundaries, and classify control transfers.
//
// Encoding (fixed 32-bit word):
//
//	bits 31..26  opcode
//	bits 25..22  rd
//	bits 21..18  rs
//	bits 17..14  rt
//	bits 13..0   imm14 (two's-complement signed)
//
// Control transfers are PC-relative in units of instruction words.
package isa

import (
	"fmt"
	"strings"
)

// NumRegs is the number of general-purpose guest registers r0..r15.
const NumRegs = 16

// Op is an SG32 opcode.
type Op uint8

// Opcode space. The comment after each opcode gives its semantics;
// rd/rs/rt are register indices and imm the signed 14-bit immediate.
const (
	OpNop   Op = iota // no operation
	OpHalt            // stop the guest program
	OpAdd             // rd = rs + rt
	OpSub             // rd = rs - rt
	OpMul             // rd = rs * rt
	OpAnd             // rd = rs & rt
	OpOr              // rd = rs | rt
	OpXor             // rd = rs ^ rt
	OpShl             // rd = rs << (rt & 31)
	OpShr             // rd = rs >> (rt & 31) (logical)
	OpAddi            // rd = rs + imm
	OpLoadi           // rd = imm (sign-extended)
	OpLuhi            // rd = rd<<13 | (imm & 0x1FFF) (shift in a 13-bit chunk)
	OpMov             // rd = rs
	OpLoad            // rd = mem[rs + imm]
	OpStore           // mem[rs + imm] = rt
	OpIn              // rd = next word of the input tape
	OpFadd            // rd = f32(rs) + f32(rt), float32 bit pattern
	OpFmul            // rd = f32(rs) * f32(rt)
	OpFdiv            // rd = f32(rs) / f32(rt)
	OpBeq             // if rs == rt: pc += imm
	OpBne             // if rs != rt: pc += imm
	OpBlt             // if int32(rs) < int32(rt): pc += imm
	OpBge             // if int32(rs) >= int32(rt): pc += imm
	OpJmp             // pc += imm (unconditional)
	OpJr              // pc = rs (absolute, register-indirect)
	OpCall            // push return pc; pc += imm
	OpRet             // pc = pop return pc
	opCount           // sentinel
)

// NumOps is the number of defined opcodes.
const NumOps = int(opCount)

var opNames = [...]string{
	OpNop: "nop", OpHalt: "halt",
	OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr",
	OpAddi: "addi", OpLoadi: "loadi", OpLuhi: "luhi", OpMov: "mov",
	OpLoad: "load", OpStore: "store", OpIn: "in",
	OpFadd: "fadd", OpFmul: "fmul", OpFdiv: "fdiv",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge",
	OpJmp: "jmp", OpJr: "jr", OpCall: "call", OpRet: "ret",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// OpByName maps a mnemonic back to its opcode; ok is false for unknown
// mnemonics.
func OpByName(name string) (Op, bool) {
	for op, n := range opNames {
		if n == name {
			return Op(op), true
		}
	}
	return 0, false
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return int(o) < NumOps }

// IsCondBranch reports whether o is a conditional branch (two-way control
// transfer with a fall-through successor). These are the instructions
// whose taken counts the profiling phase instruments.
func (o Op) IsCondBranch() bool {
	switch o {
	case OpBeq, OpBne, OpBlt, OpBge:
		return true
	}
	return false
}

// IsUncondJump reports whether o unconditionally transfers control to a
// statically known target (direct jump or call).
func (o Op) IsUncondJump() bool { return o == OpJmp || o == OpCall }

// IsIndirect reports whether o transfers control to a runtime-computed
// target.
func (o Op) IsIndirect() bool { return o == OpJr || o == OpRet }

// EndsBlock reports whether o terminates a basic block: any control
// transfer plus halt.
func (o Op) EndsBlock() bool {
	return o.IsCondBranch() || o.IsUncondJump() || o.IsIndirect() || o == OpHalt
}

// IsMemory reports whether o accesses guest data memory.
func (o Op) IsMemory() bool { return o == OpLoad || o == OpStore }

// IsFloat reports whether o is a floating-point arithmetic operation.
func (o Op) IsFloat() bool { return o == OpFadd || o == OpFmul || o == OpFdiv }

// Cost returns the nominal guest-machine cycle cost of the instruction,
// used by the performance model. The values follow a generic in-order
// core: FP and multiplies are slower, memory slower than ALU.
func (o Op) Cost() int {
	switch o {
	case OpNop:
		return 1
	case OpMul:
		return 3
	case OpLoad, OpStore:
		return 2
	case OpFadd, OpFmul:
		return 4
	case OpFdiv:
		return 12
	case OpIn:
		return 2
	case OpCall, OpRet, OpJr:
		return 2
	default:
		return 1
	}
}

// Instruction limits implied by the encoding.
const (
	ImmBits = 14
	MaxImm  = 1<<(ImmBits-1) - 1 // 8191
	MinImm  = -(1 << (ImmBits - 1))
)

// Inst is a decoded SG32 instruction.
type Inst struct {
	Op  Op
	Rd  uint8
	Rs  uint8
	Rt  uint8
	Imm int32 // sign-extended 14-bit immediate
}

// ErrBadEncoding is returned by Decode for words whose opcode field does
// not name a defined instruction.
type ErrBadEncoding struct {
	Word uint32
}

func (e *ErrBadEncoding) Error() string {
	return fmt.Sprintf("isa: invalid instruction word %#08x (opcode %d)", e.Word, e.Word>>26)
}

// Encode packs the instruction into its 32-bit word. It panics if any
// field is out of range; instructions are produced by builders that must
// respect the encoding limits.
func Encode(in Inst) uint32 {
	if !in.Op.Valid() {
		panic(fmt.Sprintf("isa: encode of invalid opcode %d", in.Op))
	}
	if in.Rd >= NumRegs || in.Rs >= NumRegs || in.Rt >= NumRegs {
		panic(fmt.Sprintf("isa: encode with register out of range: %+v", in))
	}
	if in.Imm < MinImm || in.Imm > MaxImm {
		panic(fmt.Sprintf("isa: encode with immediate %d out of 14-bit range", in.Imm))
	}
	w := uint32(in.Op) << 26
	w |= uint32(in.Rd) << 22
	w |= uint32(in.Rs) << 18
	w |= uint32(in.Rt) << 14
	w |= uint32(in.Imm) & 0x3FFF
	return w
}

// Decode unpacks a 32-bit word into an instruction.
func Decode(word uint32) (Inst, error) {
	op := Op(word >> 26)
	if !op.Valid() {
		return Inst{}, &ErrBadEncoding{Word: word}
	}
	imm := int32(word & 0x3FFF)
	if imm&(1<<(ImmBits-1)) != 0 {
		imm -= 1 << ImmBits
	}
	return Inst{
		Op:  op,
		Rd:  uint8(word >> 22 & 0xF),
		Rs:  uint8(word >> 18 & 0xF),
		Rt:  uint8(word >> 14 & 0xF),
		Imm: imm,
	}, nil
}

// String disassembles the instruction into assembler syntax.
func (in Inst) String() string {
	switch in.Op {
	case OpNop, OpHalt, OpRet:
		return in.Op.String()
	case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr, OpFadd, OpFmul, OpFdiv:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Rs, in.Rt)
	case OpAddi:
		return fmt.Sprintf("addi r%d, r%d, %d", in.Rd, in.Rs, in.Imm)
	case OpLoadi, OpLuhi:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.Rd, in.Imm)
	case OpMov:
		return fmt.Sprintf("mov r%d, r%d", in.Rd, in.Rs)
	case OpLoad:
		return fmt.Sprintf("load r%d, %d(r%d)", in.Rd, in.Imm, in.Rs)
	case OpStore:
		return fmt.Sprintf("store r%d, %d(r%d)", in.Rt, in.Imm, in.Rs)
	case OpIn:
		return fmt.Sprintf("in r%d", in.Rd)
	case OpBeq, OpBne, OpBlt, OpBge:
		return fmt.Sprintf("%s r%d, r%d, %+d", in.Op, in.Rs, in.Rt, in.Imm)
	case OpJmp, OpCall:
		return fmt.Sprintf("%s %+d", in.Op, in.Imm)
	case OpJr:
		return fmt.Sprintf("jr r%d", in.Rs)
	default:
		return fmt.Sprintf("%s rd=%d rs=%d rt=%d imm=%d", in.Op, in.Rd, in.Rs, in.Rt, in.Imm)
	}
}

// Disassemble renders a code slice as one instruction per line, prefixed
// with the word index starting at base.
func Disassemble(code []uint32, base int) string {
	var b strings.Builder
	for i, w := range code {
		in, err := Decode(w)
		if err != nil {
			fmt.Fprintf(&b, "%6d: .word %#08x ; invalid\n", base+i, w)
			continue
		}
		fmt.Fprintf(&b, "%6d: %s\n", base+i, in)
	}
	return b.String()
}
