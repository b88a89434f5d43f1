package markov

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestPaperFigure4Propagation(t *testing.T) {
	// The paper's Figure 4: blocks b1 (1000), b3 (6000), b4 (44000) are
	// not duplicated; block b2 has three copies:
	//   b2a fed by b1 with probability 1 (trace region entry edge),
	//   b2b fed by b4's back edge with probability 0.9 (inner loop),
	//   b2c fed by b3's back edge with probability... chosen so the
	// copies sum to 50000: the figure shows 1000 + 43000 + 6000.
	sys := NewSystem(0, nil)
	b1 := sys.AddNode()
	b3 := sys.AddNode()
	b4 := sys.AddNode()
	b2a := sys.AddNode()
	b2b := sys.AddNode()
	b2c := sys.AddNode()
	if err := sys.Pin(b1, 1000); err != nil {
		t.Fatal(err)
	}
	if err := sys.Pin(b3, 6000); err != nil {
		t.Fatal(err)
	}
	if err := sys.Pin(b4, 44000); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{b2a, b2b, b2c} {
		if err := sys.Inflow(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.AddEdge(b2a, b1, 1.0); err != nil {
		t.Fatal(err)
	}
	// Inner loop back edge: 44000 * (43000/44000) lands on b2b.
	if err := sys.AddEdge(b2b, b4, 43000.0/44000.0); err != nil {
		t.Fatal(err)
	}
	// Outer loop back edge: all of b3 returns to b2c.
	if err := sys.AddEdge(b2c, b3, 1.0); err != nil {
		t.Fatal(err)
	}
	x, err := sys.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1000, 6000, 44000, 1000, 43000, 6000}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-6 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
	// The copies of b2 sum to the AVEP frequency of b2 (50000), as the
	// paper requires.
	if sum := x[b2a] + x[b2b] + x[b2c]; math.Abs(sum-50000) > 1e-6 {
		t.Fatalf("b2 copies sum to %v, want 50000", sum)
	}
}

func TestChainedUnknowns(t *testing.T) {
	// copy2 depends on copy1 which depends on a pinned node: the linear
	// system must propagate through the chain.
	sys := NewSystem(0, nil)
	p := sys.AddNode()
	c1 := sys.AddNode()
	c2 := sys.AddNode()
	if err := sys.Pin(p, 100); err != nil {
		t.Fatal(err)
	}
	if err := sys.Inflow(c1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Inflow(c2); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddEdge(c1, p, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddEdge(c2, c1, 0.8); err != nil {
		t.Fatal(err)
	}
	x, err := sys.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[c1]-50) > 1e-9 || math.Abs(x[c2]-40) > 1e-9 {
		t.Fatalf("x = %v, want [100 50 40]", x)
	}
}

func TestRemainderEquation(t *testing.T) {
	// Entry copy absorbs the AVEP total minus the interior copies.
	sys := NewSystem(0, nil)
	p := sys.AddNode()
	interior := sys.AddNode()
	entry := sys.AddNode()
	if err := sys.Pin(p, 1000); err != nil {
		t.Fatal(err)
	}
	if err := sys.Inflow(interior); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddEdge(interior, p, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := sys.Remainder(entry, 5000, []int{interior}); err != nil {
		t.Fatal(err)
	}
	x, err := sys.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[interior]-300) > 1e-9 {
		t.Fatalf("interior = %v, want 300", x[interior])
	}
	if math.Abs(x[entry]-4700) > 1e-9 {
		t.Fatalf("entry = %v, want 4700", x[entry])
	}
}

func TestRemainderClampsNegative(t *testing.T) {
	// If interior copies already exceed the total (an artefact of the
	// approximation), the remainder clamps at zero instead of going
	// negative.
	sys := NewSystem(0, nil)
	p := sys.AddNode()
	interior := sys.AddNode()
	entry := sys.AddNode()
	if err := sys.Pin(p, 1000); err != nil {
		t.Fatal(err)
	}
	if err := sys.Inflow(interior); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddEdge(interior, p, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Remainder(entry, 500, []int{interior}); err != nil {
		t.Fatal(err)
	}
	x, err := sys.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if x[entry] != 0 {
		t.Fatalf("entry = %v, want clamped 0", x[entry])
	}
}

func TestCyclicUnknowns(t *testing.T) {
	// Two copies feeding each other plus an external source: a genuine
	// linear system (not just forward substitution).
	//   x = 100 + 0.5*y
	//   y = 0.5*x
	// => x = 100 + 0.25x => x = 133.33, y = 66.67.
	sys := NewSystem(0, nil)
	src := sys.AddNode()
	x := sys.AddNode()
	y := sys.AddNode()
	if err := sys.Pin(src, 200); err != nil {
		t.Fatal(err)
	}
	if err := sys.Inflow(x); err != nil {
		t.Fatal(err)
	}
	if err := sys.Inflow(y); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddEdge(x, src, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddEdge(x, y, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddEdge(y, x, 0.5); err != nil {
		t.Fatal(err)
	}
	got, err := sys.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[x]-400.0/3) > 1e-9 || math.Abs(got[y]-200.0/3) > 1e-9 {
		t.Fatalf("x, y = %v, %v; want 133.33, 66.67", got[x], got[y])
	}
}

func TestErrors(t *testing.T) {
	sys := NewSystem(0, nil)
	n := sys.AddNode()
	if err := sys.Pin(99, 1); err == nil {
		t.Fatal("Pin out of range accepted")
	}
	if err := sys.Pin(n, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Pin(n, 2); err == nil {
		t.Fatal("double constraint accepted")
	}
	if err := sys.AddEdge(0, 5, 1); err == nil {
		t.Fatal("bad edge accepted")
	}
	if err := sys.AddEdge(0, 0, -1); err == nil {
		t.Fatal("negative probability accepted")
	}
	if err := sys.AddEdge(0, 0, math.NaN()); err == nil {
		t.Fatal("NaN probability accepted")
	}
	sys3 := NewSystem(0, nil)
	m := sys3.AddNode()
	if err := sys3.Pin(m, math.Inf(1)); err == nil {
		t.Fatal("infinite pin accepted")
	}
	if err := sys3.Remainder(m, math.NaN(), nil); err == nil {
		t.Fatal("NaN remainder total accepted")
	}
	sys2 := NewSystem(0, nil)
	sys2.AddNode()
	if _, err := sys2.Solve(); err == nil {
		t.Fatal("Solve accepted unconstrained node")
	}
}

func TestEmptySystem(t *testing.T) {
	x, err := NewSystem(0, nil).Solve()
	if err != nil || x != nil {
		t.Fatalf("empty system: %v, %v", x, err)
	}
}

// TestErrorLabels: a node's label is formatted only when an error names
// the node, and a system without a labeller names nodes by index.
func TestErrorLabels(t *testing.T) {
	calls := 0
	sys := NewSystem(2, func(id int) string {
		calls++
		return fmt.Sprintf("copy%d", id)
	})
	a, b := sys.AddNode(), sys.AddNode()
	if err := sys.Pin(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddEdge(b, a, 0.5); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("labeller called %d times before any error", calls)
	}
	if err := sys.Pin(a, 2); err == nil || !strings.Contains(err.Error(), `"copy0" already constrained`) {
		t.Fatalf("double constraint: %v", err)
	}
	if _, err := sys.Solve(); err == nil || !strings.Contains(err.Error(), `"copy1" has no equation`) {
		t.Fatalf("unconstrained node: %v", err)
	}
	if calls != 2 {
		t.Fatalf("labeller called %d times for two errors", calls)
	}
	plain := NewSystem(0, nil)
	plain.AddNode()
	if _, err := plain.Solve(); err == nil || !strings.Contains(err.Error(), `"#0" has no equation`) {
		t.Fatalf("unlabelled node: %v", err)
	}
}
