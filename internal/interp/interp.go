// Package interp executes SG32 guest programs.
//
// It provides two layers:
//
//   - State + Exec: the single-instruction execution core. Both the
//     reference interpreter and the dynamic binary translator's
//     translated code execute through Exec, so guest semantics cannot
//     drift between the two engines.
//
//   - Machine: a straightforward fetch-decode-execute interpreter over a
//     guest image, with an optional per-block hook. It is the oracle the
//     DBT engine is cross-validated against.
//
// Guest programs obtain input through the `in` instruction, which reads
// the next word from a Tape. Tapes are deterministic; the INIP(T), AVEP
// and INIP(train) runs of a benchmark replay identical tapes, which is
// what makes the paper's three-way comparison meaningful.
package interp

import (
	"fmt"
	"math"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/rng"
)

// ProbScale is the resolution of tape-driven branch probabilities: a
// uniform tape yields words in [0, ProbScale), so comparing against a
// constant K realizes a branch probability of K/ProbScale. 13 bits keeps
// the constant within a single loadi immediate.
const ProbScale = 8192

// Tape is a deterministic source of guest input words.
type Tape interface {
	Next() uint32
}

// UniformTape yields uniform words in [0, ProbScale) from a seeded
// deterministic generator.
type UniformTape struct {
	src *rng.Source
}

// NewUniformTape returns a tape seeded from the given string, typically
// "<benchmark>/<input>".
func NewUniformTape(seed string) *UniformTape {
	return &UniformTape{src: rng.NewFromString(seed)}
}

// Next returns the next input word.
func (t *UniformTape) Next() uint32 { return uint32(t.src.Uint64() % ProbScale) }

// SliceTape replays a fixed sequence, then yields zeros. It is intended
// for tests that need exact control over guest input.
type SliceTape struct {
	words []uint32
	pos   int
}

// NewSliceTape returns a tape that replays words.
func NewSliceTape(words []uint32) *SliceTape {
	return &SliceTape{words: append([]uint32(nil), words...)}
}

// Next returns the next word, or 0 once the sequence is exhausted.
func (t *SliceTape) Next() uint32 {
	if t.pos >= len(t.words) {
		return 0
	}
	w := t.words[t.pos]
	t.pos++
	return w
}

// State is the architectural state of a running guest: registers, data
// memory, the return-address stack and the input tape.
type State struct {
	Regs [isa.NumRegs]uint32
	Mem  []uint32
	Ret  []int
	Tape Tape
}

// NewState allocates state sized for the image and applies its initial
// data.
func NewState(img *guest.Image, tape Tape) *State {
	st := &State{
		Mem:  make([]uint32, img.DataWords),
		Ret:  make([]int, 0, 64),
		Tape: tape,
	}
	copy(st.Mem, img.InitData)
	return st
}

// Execution faults. These indicate a malformed guest program (or a
// translator bug), not an I/O condition, so they carry the pc.
type Fault struct {
	PC   int
	Msg  string
	Inst isa.Inst
}

func (f *Fault) Error() string {
	return fmt.Sprintf("interp: fault at pc %d (%s): %s", f.PC, f.Inst, f.Msg)
}

func fault(pc int, in isa.Inst, format string, args ...any) error {
	return &Fault{PC: pc, Inst: in, Msg: fmt.Sprintf(format, args...)}
}

// Exec executes a single decoded instruction at pc against st and
// returns the next pc. halted reports OpHalt. The caller is responsible
// for bounds-checking nextPC against the code segment (Machine does; the
// DBT's block cache does it structurally).
func Exec(st *State, pc int, in isa.Inst) (nextPC int, halted bool, err error) {
	r := &st.Regs
	switch in.Op {
	case isa.OpNop:
	case isa.OpHalt:
		return pc, true, nil
	case isa.OpAdd:
		r[in.Rd] = r[in.Rs] + r[in.Rt]
	case isa.OpSub:
		r[in.Rd] = r[in.Rs] - r[in.Rt]
	case isa.OpMul:
		r[in.Rd] = r[in.Rs] * r[in.Rt]
	case isa.OpAnd:
		r[in.Rd] = r[in.Rs] & r[in.Rt]
	case isa.OpOr:
		r[in.Rd] = r[in.Rs] | r[in.Rt]
	case isa.OpXor:
		r[in.Rd] = r[in.Rs] ^ r[in.Rt]
	case isa.OpShl:
		r[in.Rd] = r[in.Rs] << (r[in.Rt] & 31)
	case isa.OpShr:
		r[in.Rd] = r[in.Rs] >> (r[in.Rt] & 31)
	case isa.OpAddi:
		r[in.Rd] = r[in.Rs] + uint32(in.Imm)
	case isa.OpLoadi:
		r[in.Rd] = uint32(in.Imm)
	case isa.OpLuhi:
		r[in.Rd] = r[in.Rd]<<13 | uint32(in.Imm)&0x1FFF
	case isa.OpMov:
		r[in.Rd] = r[in.Rs]
	case isa.OpLoad:
		addr := int(int32(r[in.Rs]) + in.Imm)
		if addr < 0 || addr >= len(st.Mem) {
			return 0, false, fault(pc, in, "load address %d outside memory [0,%d)", addr, len(st.Mem))
		}
		r[in.Rd] = st.Mem[addr]
	case isa.OpStore:
		addr := int(int32(r[in.Rs]) + in.Imm)
		if addr < 0 || addr >= len(st.Mem) {
			return 0, false, fault(pc, in, "store address %d outside memory [0,%d)", addr, len(st.Mem))
		}
		st.Mem[addr] = r[in.Rt]
	case isa.OpIn:
		r[in.Rd] = st.Tape.Next()
	case isa.OpFadd:
		r[in.Rd] = math.Float32bits(math.Float32frombits(r[in.Rs]) + math.Float32frombits(r[in.Rt]))
	case isa.OpFmul:
		r[in.Rd] = math.Float32bits(math.Float32frombits(r[in.Rs]) * math.Float32frombits(r[in.Rt]))
	case isa.OpFdiv:
		r[in.Rd] = math.Float32bits(math.Float32frombits(r[in.Rs]) / math.Float32frombits(r[in.Rt]))
	case isa.OpBeq:
		if r[in.Rs] == r[in.Rt] {
			return pc + int(in.Imm), false, nil
		}
	case isa.OpBne:
		if r[in.Rs] != r[in.Rt] {
			return pc + int(in.Imm), false, nil
		}
	case isa.OpBlt:
		if int32(r[in.Rs]) < int32(r[in.Rt]) {
			return pc + int(in.Imm), false, nil
		}
	case isa.OpBge:
		if int32(r[in.Rs]) >= int32(r[in.Rt]) {
			return pc + int(in.Imm), false, nil
		}
	case isa.OpJmp:
		return pc + int(in.Imm), false, nil
	case isa.OpJr:
		return int(r[in.Rs]), false, nil
	case isa.OpCall:
		if len(st.Ret) >= MaxCallDepth {
			return 0, false, fault(pc, in, "call stack overflow (depth %d)", len(st.Ret))
		}
		st.Ret = append(st.Ret, pc+1)
		return pc + int(in.Imm), false, nil
	case isa.OpRet:
		if len(st.Ret) == 0 {
			return 0, false, fault(pc, in, "ret with empty call stack")
		}
		nextPC = st.Ret[len(st.Ret)-1]
		st.Ret = st.Ret[:len(st.Ret)-1]
		return nextPC, false, nil
	default:
		return 0, false, fault(pc, in, "unimplemented opcode")
	}
	return pc + 1, false, nil
}

// MaxCallDepth bounds the guest return stack; synthetic programs never
// recurse deeply, so hitting it means a generator bug. It is exported so
// that pre-lowered execution paths (package dbt) can enforce the same
// limit the reference interpreter does.
const MaxCallDepth = 1 << 16

// Machine is the reference interpreter.
type Machine struct {
	img  *guest.Image
	code []isa.Inst // predecoded
	st   *State
	pc   int

	halted bool
	steps  uint64
	blocks uint64

	// BlockHook, when set, is invoked with the address of every basic
	// block the interpreter enters (the entry and each control-transfer
	// target or fall-through after a block-ending instruction).
	BlockHook func(pc int)
	// MaxSteps aborts the run after this many instructions when > 0.
	MaxSteps uint64
}

// NewMachine predecodes the image and prepares a machine starting at its
// entry point.
func NewMachine(img *guest.Image, tape Tape) (*Machine, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	code := make([]isa.Inst, len(img.Code))
	for pc, w := range img.Code {
		in, err := isa.Decode(w)
		if err != nil {
			return nil, err
		}
		code[pc] = in
	}
	return &Machine{img: img, code: code, st: NewState(img, tape), pc: img.Entry}, nil
}

// State exposes the architectural state, for tests.
func (m *Machine) State() *State { return m.st }

// PC returns the current program counter.
func (m *Machine) PC() int { return m.pc }

// Steps returns the number of instructions executed so far.
func (m *Machine) Steps() uint64 { return m.steps }

// Blocks returns the number of basic-block entries observed so far.
func (m *Machine) Blocks() uint64 { return m.blocks }

// Run executes until halt, a fault, or MaxSteps. It returns nil on a
// clean halt and an ErrMaxSteps sentinel error when the step budget is
// exhausted first.
func (m *Machine) Run() error {
	if m.halted {
		return nil
	}
	atBlockStart := true
	for {
		if atBlockStart {
			m.blocks++
			if m.BlockHook != nil {
				m.BlockHook(m.pc)
			}
			atBlockStart = false
		}
		if m.pc < 0 || m.pc >= len(m.code) {
			return fault(m.pc, isa.Inst{}, "pc outside code segment")
		}
		in := m.code[m.pc]
		next, halted, err := Exec(m.st, m.pc, in)
		if err != nil {
			return err
		}
		m.steps++
		if halted {
			m.halted = true
			return nil
		}
		if in.Op.EndsBlock() {
			atBlockStart = true
		}
		m.pc = next
		if m.MaxSteps > 0 && m.steps >= m.MaxSteps {
			return ErrMaxSteps
		}
	}
}

// ErrMaxSteps reports that Run stopped because the step budget was
// exhausted rather than because the guest halted.
var ErrMaxSteps = fmt.Errorf("interp: step budget exhausted")
