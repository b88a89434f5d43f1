package interp

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/guest"
	"repro/internal/isa"
)

func mustAssemble(t *testing.T, src string) *guest.Image {
	t.Helper()
	img, err := guest.Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return img
}

func run(t *testing.T, src string, tape Tape) *Machine {
	t.Helper()
	img := mustAssemble(t, src)
	m, err := NewMachine(img, tape)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m
}

func TestCountedLoop(t *testing.T) {
	m := run(t, `
.entry main
main:
	loadi r1, 10
	loadi r2, 0
	loadi r3, 0
loop:
	addi r3, r3, 1
	addi r1, r1, -1
	bne r1, r2, loop
	halt
`, NewSliceTape(nil))
	if got := m.State().Regs[3]; got != 10 {
		t.Fatalf("loop body executed %d times, want 10", got)
	}
	if !m.halted {
		t.Fatal("machine did not halt")
	}
}

func TestArithmeticOps(t *testing.T) {
	m := run(t, `
.entry main
main:
	loadi r1, 6
	loadi r2, 7
	mul r3, r1, r2
	add r4, r3, r1
	sub r5, r3, r2
	and r6, r1, r2
	or r7, r1, r2
	xor r8, r1, r2
	loadi r9, 2
	shl r10, r1, r9
	shr r11, r3, r9
	halt
`, NewSliceTape(nil))
	r := m.State().Regs
	checks := map[int]uint32{3: 42, 4: 48, 5: 35, 6: 6, 7: 7, 8: 1, 10: 24, 11: 10}
	for reg, want := range checks {
		if r[reg] != want {
			t.Errorf("r%d = %d, want %d", reg, r[reg], want)
		}
	}
}

func TestMemoryAndTape(t *testing.T) {
	m := run(t, `
.entry main
.data 8
main:
	in r1
	in r2
	loadi r3, 0
	store r1, 0(r3)
	store r2, 1(r3)
	load r4, 0(r3)
	load r5, 1(r3)
	halt
`, NewSliceTape([]uint32{111, 222}))
	r := m.State().Regs
	if r[4] != 111 || r[5] != 222 {
		t.Fatalf("memory round trip failed: r4=%d r5=%d", r[4], r[5])
	}
}

func TestCallRet(t *testing.T) {
	m := run(t, `
.entry main
main:
	loadi r1, 5
	call double
	call double
	halt
double:
	add r1, r1, r1
	ret
`, NewSliceTape(nil))
	if got := m.State().Regs[1]; got != 20 {
		t.Fatalf("r1 = %d, want 20", got)
	}
}

func TestIndirectJump(t *testing.T) {
	// Jump to label 'b' via a register holding its address; the symbol
	// table gives us the address to load.
	img := mustAssemble(t, `
.entry main
main:
	loadi r1, 0
	loadi r2, 6
	jr r2, [a, b]
a:
	loadi r3, 1
	halt
b:
	loadi r3, 2
	halt
`)
	addrB := img.Symbols["b"]
	// Patch r2's constant to b's address (the literal 6 above is a
	// placeholder; recompute to be robust to layout changes).
	in, err := img.Decode(1)
	if err != nil {
		t.Fatal(err)
	}
	in.Imm = int32(addrB)
	img.Code[1] = isa.Encode(in)
	m, err := NewMachine(img, NewSliceTape(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.State().Regs[3]; got != 2 {
		t.Fatalf("r3 = %d, want 2 (jumped to b)", got)
	}
}

func TestFloatOps(t *testing.T) {
	img := mustAssemble(t, `
.entry main
main:
	fadd r3, r1, r2
	fmul r4, r1, r2
	fdiv r5, r1, r2
	halt
`)
	m, err := NewMachine(img, NewSliceTape(nil))
	if err != nil {
		t.Fatal(err)
	}
	m.State().Regs[1] = math.Float32bits(6)
	m.State().Regs[2] = math.Float32bits(1.5)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	r := m.State().Regs
	if got := math.Float32frombits(r[3]); got != 7.5 {
		t.Errorf("fadd = %v, want 7.5", got)
	}
	if got := math.Float32frombits(r[4]); got != 9 {
		t.Errorf("fmul = %v, want 9", got)
	}
	if got := math.Float32frombits(r[5]); got != 4 {
		t.Errorf("fdiv = %v, want 4", got)
	}
}

func TestBranchConditions(t *testing.T) {
	// Each branch kind with both outcomes, via signed comparisons.
	m := run(t, `
.entry main
main:
	loadi r1, -1
	loadi r2, 1
	loadi r9, 0
	blt r1, r2, t1   ; signed: -1 < 1, taken
	halt
t1:
	addi r9, r9, 1
	bge r2, r1, t2   ; 1 >= -1, taken
	halt
t2:
	addi r9, r9, 1
	blt r2, r1, bad  ; not taken
	addi r9, r9, 1
	beq r1, r1, t3   ; taken
bad:
	halt
t3:
	addi r9, r9, 1
	bne r1, r1, bad  ; not taken
	addi r9, r9, 1
	halt
`, NewSliceTape(nil))
	if got := m.State().Regs[9]; got != 5 {
		t.Fatalf("r9 = %d, want 5", got)
	}
}

func TestFaultOnBadLoad(t *testing.T) {
	img := mustAssemble(t, `
.entry main
.data 4
main:
	loadi r1, 100
	load r2, 0(r1)
	halt
`)
	m, err := NewMachine(img, NewSliceTape(nil))
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run()
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("Run = %v, want Fault", err)
	}
	if f.PC != img.Symbols["main"]+1 {
		t.Fatalf("fault pc = %d", f.PC)
	}
}

func TestFaultOnRetWithEmptyStack(t *testing.T) {
	img := mustAssemble(t, ".entry main\nmain:\nret\n")
	m, err := NewMachine(img, NewSliceTape(nil))
	if err != nil {
		t.Fatal(err)
	}
	var f *Fault
	if err := m.Run(); !errors.As(err, &f) {
		t.Fatalf("Run = %v, want Fault", err)
	}
}

func TestMaxStepsStopsRunaway(t *testing.T) {
	img := mustAssemble(t, ".entry main\nmain:\nloop:\njmp loop\n")
	m, err := NewMachine(img, NewSliceTape(nil))
	if err != nil {
		t.Fatal(err)
	}
	m.MaxSteps = 1000
	if err := m.Run(); !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("Run = %v, want ErrMaxSteps", err)
	}
	if m.Steps() != 1000 {
		t.Fatalf("steps = %d, want 1000", m.Steps())
	}
}

func TestBlockHookSeesBlockEntries(t *testing.T) {
	img := mustAssemble(t, `
.entry main
main:
	loadi r1, 3
	loadi r2, 0
loop:
	addi r1, r1, -1
	bne r1, r2, loop
	halt
`)
	m, err := NewMachine(img, NewSliceTape(nil))
	if err != nil {
		t.Fatal(err)
	}
	var entries []int
	m.BlockHook = func(pc int) { entries = append(entries, pc) }
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	loop := img.Symbols["loop"]
	// The entry block runs from main through the bne (the loop label is
	// reached by fall-through, which does not start a new dynamic
	// block); the two taken back edges re-enter at loop; the final
	// not-taken branch falls through to the halt block.
	want := []int{img.Entry, loop, loop, loop + 2}
	if len(entries) != len(want) {
		t.Fatalf("block entries = %v, want %v", entries, want)
	}
	for i := range want {
		if entries[i] != want[i] {
			t.Fatalf("block entries = %v, want %v", entries, want)
		}
	}
	if m.Blocks() != uint64(len(want)) {
		t.Fatalf("Blocks() = %d, want %d", m.Blocks(), len(want))
	}
}

func TestTapeDrivenBranchProbability(t *testing.T) {
	// in r1; blt r1, r6, taken realizes p = K/ProbScale within
	// statistical tolerance when the tape is uniform.
	img := mustAssemble(t, `
.entry main
main:
	loadi r5, 2000   ; iterations
	loadi r6, 2048   ; K -> p = 0.25
	loadi r7, 0      ; taken counter
	loadi r8, 0
loop:
	in r1
	blt r1, r6, taken
	jmp next
taken:
	addi r7, r7, 1
next:
	addi r5, r5, -1
	bne r5, r8, loop
	halt
`)
	m, err := NewMachine(img, NewUniformTape("test/branch"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	p := float64(m.State().Regs[7]) / 2000
	if p < 0.2 || p > 0.3 {
		t.Fatalf("observed taken rate %v, want ~0.25", p)
	}
}

func TestUniformTapeRange(t *testing.T) {
	tape := NewUniformTape("x")
	for i := 0; i < 10000; i++ {
		if w := tape.Next(); w >= ProbScale {
			t.Fatalf("tape word %d out of range", w)
		}
	}
}

func TestUniformTapeDeterminism(t *testing.T) {
	a, b := NewUniformTape("mcf/ref"), NewUniformTape("mcf/ref")
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed tapes diverged")
		}
	}
	c := NewUniformTape("mcf/train")
	same := true
	a2 := NewUniformTape("mcf/ref")
	for i := 0; i < 100; i++ {
		if a2.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Fatal("ref and train tapes identical")
	}
}

func TestSliceTapeExhaustion(t *testing.T) {
	tape := NewSliceTape([]uint32{5})
	if tape.Next() != 5 || tape.Next() != 0 || tape.Next() != 0 {
		t.Fatal("SliceTape exhaustion semantics wrong")
	}
}

// Property: Exec on pure ALU ops never faults and never moves pc by
// anything but +1.
func TestQuickALUAdvancesPC(t *testing.T) {
	ops := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpMov, isa.OpLoadi, isa.OpAddi}
	f := func(opIdx, rd, rs, rt uint8, imm int16, a, b uint32) bool {
		st := &State{Tape: NewSliceTape(nil)}
		st.Regs[rs%isa.NumRegs] = a
		st.Regs[rt%isa.NumRegs] = b
		in := isa.Inst{
			Op:  ops[int(opIdx)%len(ops)],
			Rd:  rd % isa.NumRegs,
			Rs:  rs % isa.NumRegs,
			Rt:  rt % isa.NumRegs,
			Imm: int32(imm) % (isa.MaxImm + 1),
		}
		next, halted, err := Exec(st, 40, in)
		return err == nil && !halted && next == 41
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInterpLoop(b *testing.B) {
	img, err := guest.Assemble(`
.entry main
main:
	loadi r2, 0
loop:
	in r1
	addi r3, r3, 1
	bne r1, r2, loop
	halt
`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := NewMachine(img, NewUniformTape("bench"))
		if err != nil {
			b.Fatal(err)
		}
		m.MaxSteps = 10000
		if err := m.Run(); err != nil && !errors.Is(err, ErrMaxSteps) {
			b.Fatal(err)
		}
	}
}
