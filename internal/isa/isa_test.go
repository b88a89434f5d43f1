package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Inst{
		{Op: OpNop},
		{Op: OpHalt},
		{Op: OpAdd, Rd: 1, Rs: 2, Rt: 3},
		{Op: OpAddi, Rd: 15, Rs: 14, Imm: MaxImm},
		{Op: OpAddi, Rd: 0, Rs: 0, Imm: MinImm},
		{Op: OpLoadi, Rd: 7, Imm: -1},
		{Op: OpBeq, Rs: 3, Rt: 4, Imm: -100},
		{Op: OpJmp, Imm: 4000},
		{Op: OpCall, Imm: -4000},
		{Op: OpRet},
		{Op: OpJr, Rs: 9},
		{Op: OpLoad, Rd: 2, Rs: 5, Imm: 40},
		{Op: OpStore, Rs: 5, Rt: 2, Imm: 40},
		{Op: OpIn, Rd: 11},
		{Op: OpFdiv, Rd: 1, Rs: 1, Rt: 1},
	}
	for _, in := range cases {
		got, err := Decode(Encode(in))
		if err != nil {
			t.Fatalf("Decode(Encode(%+v)): %v", in, err)
		}
		if got != in {
			t.Fatalf("round trip %+v -> %+v", in, got)
		}
	}
}

func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	f := func(op uint8, rd, rs, rt uint8, imm int16) bool {
		in := Inst{
			Op:  Op(int(op) % NumOps),
			Rd:  rd % NumRegs,
			Rs:  rs % NumRegs,
			Rt:  rt % NumRegs,
			Imm: int32(imm) % (MaxImm + 1),
		}
		got, err := Decode(Encode(in))
		return err == nil && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeInvalidOpcode(t *testing.T) {
	bad := uint32(uint32(NumOps) << 26)
	if _, err := Decode(bad); err == nil {
		t.Fatal("Decode of invalid opcode succeeded")
	} else if !strings.Contains(err.Error(), "invalid instruction") {
		t.Fatalf("unexpected error text: %v", err)
	}
}

func TestEncodePanicsOutOfRange(t *testing.T) {
	cases := []Inst{
		{Op: Op(200)},
		{Op: OpAdd, Rd: 16},
		{Op: OpAddi, Imm: MaxImm + 1},
		{Op: OpAddi, Imm: MinImm - 1},
	}
	for _, in := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Encode(%+v) did not panic", in)
				}
			}()
			Encode(in)
		}()
	}
}

func TestOpClassification(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		cond := op.IsCondBranch()
		uncond := op.IsUncondJump()
		ind := op.IsIndirect()
		n := 0
		if cond {
			n++
		}
		if uncond {
			n++
		}
		if ind {
			n++
		}
		if n > 1 {
			t.Fatalf("%v claims multiple control-transfer classes", op)
		}
		if cond && !op.EndsBlock() {
			t.Fatalf("%v is a branch but does not end a block", op)
		}
	}
	if !OpHalt.EndsBlock() {
		t.Fatal("halt must end a block")
	}
	if OpAdd.EndsBlock() {
		t.Fatal("add must not end a block")
	}
}

func TestOpNamesComplete(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		name := op.String()
		if strings.HasPrefix(name, "op(") {
			t.Fatalf("opcode %d has no mnemonic", op)
		}
		back, ok := OpByName(name)
		if !ok || back != op {
			t.Fatalf("OpByName(%q) = %v, %v; want %v", name, back, ok, op)
		}
	}
	if _, ok := OpByName("bogus"); ok {
		t.Fatal("OpByName accepted an unknown mnemonic")
	}
}

func TestCostsPositive(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		if op.Cost() <= 0 {
			t.Fatalf("%v has non-positive cost", op)
		}
	}
	if OpFdiv.Cost() <= OpAdd.Cost() {
		t.Fatal("fdiv should cost more than add")
	}
	if OpLoad.Cost() <= OpNop.Cost() {
		t.Fatal("load should cost more than nop")
	}
}

func TestDisassembleFormats(t *testing.T) {
	cases := map[string]Inst{
		"add r1, r2, r3":   {Op: OpAdd, Rd: 1, Rs: 2, Rt: 3},
		"addi r5, r5, -3":  {Op: OpAddi, Rd: 5, Rs: 5, Imm: -3},
		"loadi r2, 77":     {Op: OpLoadi, Rd: 2, Imm: 77},
		"mov r3, r9":       {Op: OpMov, Rd: 3, Rs: 9},
		"load r1, 8(r2)":   {Op: OpLoad, Rd: 1, Rs: 2, Imm: 8},
		"store r4, -4(r6)": {Op: OpStore, Rt: 4, Rs: 6, Imm: -4},
		"in r8":            {Op: OpIn, Rd: 8},
		"beq r1, r2, +5":   {Op: OpBeq, Rs: 1, Rt: 2, Imm: 5},
		"blt r1, r2, -9":   {Op: OpBlt, Rs: 1, Rt: 2, Imm: -9},
		"jmp +100":         {Op: OpJmp, Imm: 100},
		"call -7":          {Op: OpCall, Imm: -7},
		"jr r12":           {Op: OpJr, Rs: 12},
		"ret":              {Op: OpRet},
		"halt":             {Op: OpHalt},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String(%+v) = %q, want %q", in, got, want)
		}
	}
}

func TestDisassembleListing(t *testing.T) {
	code := []uint32{
		Encode(Inst{Op: OpLoadi, Rd: 1, Imm: 10}),
		Encode(Inst{Op: OpHalt}),
		0xFFFFFFFF, // invalid
	}
	text := Disassemble(code, 100)
	for _, want := range []string{"100: loadi r1, 10", "101: halt", "102: .word", "invalid"} {
		if !strings.Contains(text, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, text)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	w := Encode(Inst{Op: OpBeq, Rs: 1, Rt: 2, Imm: -100})
	for i := 0; i < b.N; i++ {
		if _, err := Decode(w); err != nil {
			b.Fatal(err)
		}
	}
}
