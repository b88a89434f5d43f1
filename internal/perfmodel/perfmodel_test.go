package perfmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultParamsOrdering(t *testing.T) {
	p := DefaultParams()
	if p.OptFactor >= p.QuickFactor {
		t.Fatal("optimized code must be faster than quick-translated code")
	}
	if p.OptFactor >= p.OffTraceFactor {
		t.Fatal("on-trace execution must beat off-trace execution")
	}
	if p.OptPerInst <= p.ColdPerInst {
		t.Fatal("optimization must cost more than quick translation")
	}
	if p.SideExitPenalty <= 0 || p.ProfOverhead <= 0 {
		t.Fatal("penalties must be positive")
	}
}

func TestChargesAccumulate(t *testing.T) {
	p := Params{
		ColdPerInst: 10, OptPerInst: 100, QuickFactor: 2,
		ProfOverhead: 3, OptFactor: 1, OffTraceFactor: 1.5, SideExitPenalty: 7,
	}
	a := NewAccumulator(p)
	a.ChargeTranslate(5)                                 // 50
	a.ChargeOptimize(4)                                  // 400
	a.ChargeBlocks(BlockSums{Quick: 10, Profiled: 1})    // 20 + 3
	a.ChargeBlocks(BlockSums{Optimized: 8, OffTrace: 8}) // 8 + 12
	a.ChargeSideExits(1)                                 // 7
	if a.Cycles != 0 {
		t.Fatalf("Cycles = %v before Finish, want 0", a.Cycles)
	}
	a.Finish()
	want := 50.0 + 400 + 23 + 8 + 12 + 7
	if math.Abs(a.Cycles-want) > 1e-9 {
		t.Fatalf("Cycles = %v, want %v", a.Cycles, want)
	}
	if a.TranslateCycles != 50 || a.OptimizeCycles != 400 {
		t.Fatalf("one-time breakdown wrong: %+v", a)
	}
	if a.QuickCycles != 20 || a.ProfileCycles != 3 {
		t.Fatalf("quick breakdown wrong: %+v", a)
	}
	if a.OptimizedCycles != 8 || a.OffTraceCycles != 12 || a.PenaltyCycles != 7 {
		t.Fatalf("optimized breakdown wrong: %+v", a)
	}
	// Finish is a function of the sums: a second call after another
	// charge, here two side exits at once, recomputes the totals.
	a.ChargeSideExits(2)
	a.Finish()
	if a.PenaltyCycles != 21 || math.Abs(a.Cycles-(want+14)) > 1e-9 {
		t.Fatalf("refinished breakdown wrong: %+v", a)
	}
}

// charge is one recorded accumulator call, so a sequence can be
// replayed in another order.
type charge struct {
	kind int
	n    int
}

func (c charge) apply(a *Accumulator) {
	switch c.kind {
	case 0:
		a.ChargeTranslate(c.n)
	case 1:
		a.ChargeOptimize(c.n)
	case 2:
		a.ChargeBlocks(BlockSums{Quick: uint64(c.n), Profiled: 1})
	case 3:
		a.ChargeBlocks(BlockSums{Optimized: uint64(c.n)})
	case 4:
		a.ChargeBlocks(BlockSums{OffTrace: uint64(c.n)})
	case 5:
		a.ChargeSideExits(1)
	}
}

// TestChargeOrderIndependent: the cycle total is a function of the class
// sums alone, so a seeded random charge sequence and a shuffle of it
// give bit-identical Cycles and breakdown. This is what lets a replay
// loop charge a whole batch at once.
func TestChargeOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		seq := make([]charge, 2000)
		for i := range seq {
			seq[i] = charge{kind: r.Intn(6), n: r.Intn(40) + 1}
		}
		a := NewAccumulator(DefaultParams())
		for _, c := range seq {
			c.apply(a)
		}
		r.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		b := NewAccumulator(DefaultParams())
		for _, c := range seq {
			c.apply(b)
		}
		a.Finish()
		b.Finish()
		if *a != *b {
			t.Fatalf("trial %d: shuffled charges differ:\n %+v\n %+v", trial, *a, *b)
		}
	}
}

func TestParamsAccessor(t *testing.T) {
	p := DefaultParams()
	a := NewAccumulator(p)
	if a.Params() != p {
		t.Fatal("Params() does not round-trip")
	}
}

// Property: total cycles always equal the sum of the breakdown terms.
func TestQuickBreakdownSums(t *testing.T) {
	f := func(ops []uint8) bool {
		a := NewAccumulator(DefaultParams())
		for _, op := range ops {
			cost := int(op%16) + 1
			switch op % 6 {
			case 0:
				a.ChargeTranslate(cost)
			case 1:
				a.ChargeOptimize(cost)
			case 2:
				a.ChargeBlocks(BlockSums{Quick: uint64(cost), Profiled: 1})
			case 3:
				a.ChargeBlocks(BlockSums{Optimized: uint64(cost)})
			case 4:
				a.ChargeBlocks(BlockSums{OffTrace: uint64(cost)})
			case 5:
				a.ChargeSideExits(1)
			}
		}
		a.Finish()
		sum := a.TranslateCycles + a.OptimizeCycles + a.QuickCycles +
			a.ProfileCycles + a.OptimizedCycles + a.OffTraceCycles + a.PenaltyCycles
		return math.Abs(sum-a.Cycles) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: charges are monotone: more work never reduces cycles.
func TestQuickMonotone(t *testing.T) {
	f := func(costs []uint8) bool {
		a := NewAccumulator(DefaultParams())
		prev := 0.0
		for _, c := range costs {
			a.ChargeBlocks(BlockSums{Quick: uint64(c%32) + 1, Profiled: 1})
			a.Finish()
			if a.Cycles < prev {
				return false
			}
			prev = a.Cycles
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
