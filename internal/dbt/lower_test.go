package dbt

import (
	"testing"

	"repro/internal/isa"
)

// TestLowererCoversISA: every valid opcode has exactly one lowered form,
// a body op when it does not end a block and a terminator class when it
// does, and no two opcodes share one. So every block translate accepts
// lowers, and a future opcode cannot reach execBlock without a lowering.
func TestLowererCoversISA(t *testing.T) {
	bodies := map[lkind]isa.Op{}
	terms := map[tkind]isa.Op{}
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		lk, body := lowerBodyKind(op)
		tk, term := lowerTermKind(op)
		if body == op.EndsBlock() || term != op.EndsBlock() {
			t.Errorf("%v: body lowering %t, terminator lowering %t, EndsBlock %t", op, body, term, op.EndsBlock())
			continue
		}
		if body {
			if prev, dup := bodies[lk]; dup {
				t.Errorf("%v and %v lower to the same body op %d", prev, op, lk)
			}
			bodies[lk] = op
		} else {
			if prev, dup := terms[tk]; dup {
				t.Errorf("%v and %v lower to the same terminator class %d", prev, op, tk)
			}
			terms[tk] = op
		}
	}
	if len(bodies)+len(terms) != isa.NumOps {
		t.Fatalf("%d body and %d terminator lowerings for %d opcodes", len(bodies), len(terms), isa.NumOps)
	}
}
