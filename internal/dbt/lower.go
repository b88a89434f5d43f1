// Pre-lowered block execution, the engine's one execution path: at
// translate time every decoded isa.Inst is lowered into a compact
// operation record, and the engine's hot loop executes those records
// through a dbt-local dispatch instead of re-entering interp.Exec's
// decode-switch for every dynamic instruction. Every SG32 opcode has a
// lowered form (a body op or a terminator class; a table test over
// isa.NumOps keeps it so), so every block that translates lowers.
// Block bodies carry no control flow, so the lowered body
// loop needs no per-instruction pc bookkeeping, next-pc tuple or halt
// flag; the terminator is lowered separately with its targets resolved
// once at translate time.
//
// Lowered code is arena-flattened: all blocks of an engine share one
// contiguous []lop arena, and each block's execution-hot state — its
// arena span, terminator kind, branch registers and resolved targets —
// lives in a packed record of the engine's flat block table (hot),
// dense in translation order. Steady-state dispatch therefore walks two
// dense arrays instead of pointer-chasing per-block heap objects: one
// hot record plus the block's arena span, which for consecutively
// translated (≈ consecutively executed) blocks are adjacent in memory.
// Spans are {off,len} indexes, so arena growth (append reallocation)
// never invalidates them, and translated blocks are never replaced, so
// the arena only grows. Shared-trace followers never execute guest code,
// so they build neither array.
//
// The lowered path is required to be bit-for-bit equivalent to the
// reference interpreter. Semantics are copied verbatim from interp.Exec,
// and every fault (memory bounds, call-stack depth, empty return stack)
// is reported by re-executing the faulting instruction through
// interp.Exec so the error value is exactly the interpreter's. Tests
// cross-validate it against interp.Machine (the equivalence suite over
// the spec guests, and the FuzzExecPaths random-program fuzzer).
package dbt

import (
	"fmt"
	"math"

	"repro/internal/interp"
	"repro/internal/isa"
)

// lkind is the lowered opcode of a block-body instruction. Body
// instructions never transfer control, so control ops have no lkind.
type lkind uint8

const (
	lNop lkind = iota
	lAdd
	lSub
	lMul
	lAnd
	lOr
	lXor
	lShl
	lShr
	lAddi
	lLoadi
	lLuhi
	lMov
	lLoad
	lStore
	lIn
	lFadd
	lFmul
	lFdiv
)

// lop is one lowered body instruction.
type lop struct {
	kind       lkind
	rd, rs, rt uint8
	imm        int32
}

// tkind is the lowered terminator class.
type tkind uint8

const (
	tHalt tkind = iota
	tBeq
	tBne
	tBlt
	tBge
	tJmp
	tJr
	tCall
	tRet
)

// hotrec is one row of the engine's flat block table: every field the
// lowered dispatch reads per block execution, packed into 24 bytes so
// two blocks share a cache line. It is a packed record rather than
// strict per-field columns because a dispatch reads every field of
// exactly one block — splitting the fields across parallel arrays would
// turn one cache-line touch into six.
type hotrec struct {
	off   uint32 // arena span start
	n     uint32 // arena span length (body instructions)
	taken int32  // resolved taken/jump/call target (-1 none)
	fall  int32  // resolved fall-through target (-1 none)
	end   int32  // terminator pc (halt result; call pushes end+1)
	tkind tkind
	brs   uint8 // terminator source registers, pre-masked by the decoder
	brt   uint8
}

// lowerBodyKind maps a non-control opcode to its lowered form.
func lowerBodyKind(op isa.Op) (lkind, bool) {
	switch op {
	case isa.OpNop:
		return lNop, true
	case isa.OpAdd:
		return lAdd, true
	case isa.OpSub:
		return lSub, true
	case isa.OpMul:
		return lMul, true
	case isa.OpAnd:
		return lAnd, true
	case isa.OpOr:
		return lOr, true
	case isa.OpXor:
		return lXor, true
	case isa.OpShl:
		return lShl, true
	case isa.OpShr:
		return lShr, true
	case isa.OpAddi:
		return lAddi, true
	case isa.OpLoadi:
		return lLoadi, true
	case isa.OpLuhi:
		return lLuhi, true
	case isa.OpMov:
		return lMov, true
	case isa.OpLoad:
		return lLoad, true
	case isa.OpStore:
		return lStore, true
	case isa.OpIn:
		return lIn, true
	case isa.OpFadd:
		return lFadd, true
	case isa.OpFmul:
		return lFmul, true
	case isa.OpFdiv:
		return lFdiv, true
	}
	return 0, false
}

// lowerTermKind maps a terminator opcode to its lowered class.
func lowerTermKind(op isa.Op) (tkind, bool) {
	switch op {
	case isa.OpHalt:
		return tHalt, true
	case isa.OpBeq:
		return tBeq, true
	case isa.OpBne:
		return tBne, true
	case isa.OpBlt:
		return tBlt, true
	case isa.OpBge:
		return tBge, true
	case isa.OpJmp:
		return tJmp, true
	case isa.OpJr:
		return tJr, true
	case isa.OpCall:
		return tCall, true
	case isa.OpRet:
		return tRet, true
	}
	return 0, false
}

// lower appends the body of the block decoded as insts to the engine's
// lowered-op arena and its row to the flat block table. The block came
// from decodeBlock, so its body ops and its terminator all have lowered
// forms.
func (e *Engine) lower(tb *tblock, insts []isa.Inst) {
	term := insts[len(insts)-1]
	tk, _ := lowerTermKind(term.Op)
	body := insts[:len(insts)-1]
	start := len(e.arena)
	for _, in := range body {
		k, _ := lowerBodyKind(in.Op)
		e.arena = append(e.arena, lop{kind: k, rd: in.Rd, rs: in.Rs, rt: in.Rt, imm: in.Imm})
	}
	tb.id = int32(len(e.hot))
	e.hot = append(e.hot, hotrec{
		off:   uint32(start),
		n:     uint32(len(body)),
		taken: int32(tb.takenTarget),
		fall:  int32(tb.fallTarget),
		end:   int32(tb.end),
		tkind: tk,
		brs:   term.Rs,
		brt:   term.Rt,
	})
}

// faultAt reproduces the fault of instruction i of tb by re-executing it
// through the reference interpreter, so execBlock returns exactly the
// error interp.Exec would have. The block keeps no decoded body, so the
// word is decoded again from the image (it decoded at translation).
func (e *Engine) faultAt(tb *tblock, i int) error {
	in, _ := isa.Decode(e.img.Code[tb.addr+i])
	_, _, err := interp.Exec(e.st, tb.addr+i, in)
	if err == nil {
		// The lowered path saw a fault condition the interpreter does
		// not: a lowering bug, not a guest bug.
		return fmt.Errorf("dbt: internal: lowered path faulted at pc %d but interpreter did not", tb.addr+i)
	}
	return err
}

// execBlock executes the block body and terminator through its lowered
// records: one flat-table row load, then a walk of the
// block's contiguous arena span. Its contract matches running
// interp.Exec over every instruction of the block: it returns the
// interpreter's next pc and halt flag, and fault errors are the
// interpreter's own.
func (e *Engine) execBlock(tb *tblock) (nextPC int, halted bool, err error) {
	h := &e.hot[tb.id]
	st := e.st
	r := &st.Regs
	body := e.arena[h.off : h.off+h.n : h.off+h.n]
	// Register fields come from a 4-bit encoding, so masking with 15 is
	// a no-op semantically and lets the compiler elide the array bounds
	// checks in the hot loop.
	for i := 0; i < len(body); i++ {
		op := body[i]
		switch op.kind {
		case lNop:
		case lAdd:
			r[op.rd&15] = r[op.rs&15] + r[op.rt&15]
		case lSub:
			r[op.rd&15] = r[op.rs&15] - r[op.rt&15]
		case lMul:
			r[op.rd&15] = r[op.rs&15] * r[op.rt&15]
		case lAnd:
			r[op.rd&15] = r[op.rs&15] & r[op.rt&15]
		case lOr:
			r[op.rd&15] = r[op.rs&15] | r[op.rt&15]
		case lXor:
			r[op.rd&15] = r[op.rs&15] ^ r[op.rt&15]
		case lShl:
			r[op.rd&15] = r[op.rs&15] << (r[op.rt&15] & 31)
		case lShr:
			r[op.rd&15] = r[op.rs&15] >> (r[op.rt&15] & 31)
		case lAddi:
			r[op.rd&15] = r[op.rs&15] + uint32(op.imm)
		case lLoadi:
			r[op.rd&15] = uint32(op.imm)
		case lLuhi:
			r[op.rd&15] = r[op.rd&15]<<13 | uint32(op.imm)&0x1FFF
		case lMov:
			r[op.rd&15] = r[op.rs&15]
		case lLoad:
			addr := int(int32(r[op.rs&15]) + op.imm)
			if uint(addr) >= uint(len(st.Mem)) {
				return 0, false, e.faultAt(tb, i)
			}
			r[op.rd&15] = st.Mem[addr]
		case lStore:
			addr := int(int32(r[op.rs&15]) + op.imm)
			if uint(addr) >= uint(len(st.Mem)) {
				return 0, false, e.faultAt(tb, i)
			}
			st.Mem[addr] = r[op.rt&15]
		case lIn:
			r[op.rd&15] = st.Tape.Next()
		case lFadd:
			r[op.rd&15] = math.Float32bits(math.Float32frombits(r[op.rs&15]) + math.Float32frombits(r[op.rt&15]))
		case lFmul:
			r[op.rd&15] = math.Float32bits(math.Float32frombits(r[op.rs&15]) * math.Float32frombits(r[op.rt&15]))
		case lFdiv:
			r[op.rd&15] = math.Float32bits(math.Float32frombits(r[op.rs&15]) / math.Float32frombits(r[op.rt&15]))
		}
	}
	switch h.tkind {
	case tBeq:
		if r[h.brs&15] == r[h.brt&15] {
			return int(h.taken), false, nil
		}
		return int(h.fall), false, nil
	case tBne:
		if r[h.brs&15] != r[h.brt&15] {
			return int(h.taken), false, nil
		}
		return int(h.fall), false, nil
	case tBlt:
		if int32(r[h.brs&15]) < int32(r[h.brt&15]) {
			return int(h.taken), false, nil
		}
		return int(h.fall), false, nil
	case tBge:
		if int32(r[h.brs&15]) >= int32(r[h.brt&15]) {
			return int(h.taken), false, nil
		}
		return int(h.fall), false, nil
	case tJmp:
		return int(h.taken), false, nil
	case tJr:
		return int(r[h.brs&15]), false, nil
	case tCall:
		if len(st.Ret) >= interp.MaxCallDepth {
			return 0, false, e.faultAt(tb, int(h.n))
		}
		st.Ret = append(st.Ret, int(h.end)+1)
		return int(h.taken), false, nil
	case tRet:
		n := len(st.Ret)
		if n == 0 {
			return 0, false, e.faultAt(tb, int(h.n))
		}
		nextPC = st.Ret[n-1]
		st.Ret = st.Ret[:n-1]
		return nextPC, false, nil
	default: // tHalt
		return int(h.end), true, nil
	}
}
