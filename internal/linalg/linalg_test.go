package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestSolveDenseKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := SolveDense(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestSolveDenseIdentity(t *testing.T) {
	n := 5
	a := NewMatrix(n, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
		b[i] = float64(i * i)
	}
	x, err := SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if x[i] != b[i] {
			t.Fatalf("identity solve x = %v", x)
		}
	}
}

func TestSolveDenseNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := SolveDense(a, []float64{7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 9 || x[1] != 7 {
		t.Fatalf("x = %v, want [9 7]", x)
	}
}

func TestSolveDenseSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := SolveDense(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveDenseRejectsShapes(t *testing.T) {
	if _, err := SolveDense(NewMatrix(2, 3), []float64{1, 2}); err == nil {
		t.Fatal("accepted non-square matrix")
	}
	if _, err := SolveDense(NewMatrix(2, 2), []float64{1}); err == nil {
		t.Fatal("accepted mismatched rhs")
	}
}

func TestSolveDenseDoesNotMutateInputs(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	b := []float64{5, 10}
	orig := a.Clone()
	if _, err := SolveDense(a, b); err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != orig.Data[i] {
			t.Fatal("SolveDense mutated its matrix")
		}
	}
	if b[0] != 5 || b[1] != 10 {
		t.Fatal("SolveDense mutated its rhs")
	}
}

// randomDominant builds a strictly diagonally dominant system, which is
// guaranteed non-singular and Gauss–Seidel-convergent.
func randomDominant(r *rng.Source, n int) (*Matrix, *Sparse, []float64) {
	dense := NewMatrix(n, n)
	sparse := NewSparse(n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if r.Float64() < 0.3 {
				v := r.Float64()*2 - 1
				dense.Set(i, j, v)
				sparse.Add(i, j, v)
				rowSum += math.Abs(v)
			}
		}
		d := rowSum + 1 + r.Float64()
		dense.Set(i, i, d)
		sparse.Add(i, i, d)
		b[i] = r.Float64() * 10
	}
	return dense, sparse, b
}

func TestQuickDenseSolveSatisfiesSystem(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		r := rng.New(seed)
		a, _, b := randomDominant(r, n)
		x, err := SolveDense(a, b)
		if err != nil {
			return false
		}
		return Residual(a.MulVec, x, b) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGaussSeidelMatchesDense(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(30)
		dense, sparse, b := randomDominant(r, n)
		want, err := SolveDense(dense, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveGaussSeidel(sparse, b, GaussSeidelOptions{})
		if err != nil {
			t.Fatalf("Gauss–Seidel failed on dominant system: %v", err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestGaussSeidelZeroDiagonal(t *testing.T) {
	s := NewSparse(2)
	s.Add(0, 1, 1)
	s.Add(1, 0, 1)
	s.Add(1, 1, 1)
	if _, err := SolveGaussSeidel(s, []float64{1, 1}, GaussSeidelOptions{}); err == nil {
		t.Fatal("accepted zero diagonal")
	}
}

// TestGaussSeidelDivergenceIsNotConvergence: a cyclic system whose
// iterate overflows to +Inf must not read as converged once every
// delta turns NaN; SolveFlow must fall back to the finite dense
// solution a = -1/3, b = -2/3 of a = 1 + 2b, b = 2a.
func TestGaussSeidelDivergenceIsNotConvergence(t *testing.T) {
	s := NewSparse(2)
	s.Add(0, 0, 1)
	s.Add(0, 1, -2)
	s.Add(1, 1, 1)
	s.Add(1, 0, -2)
	b := []float64{1, 0}
	if x, err := SolveGaussSeidel(s, b, GaussSeidelOptions{}); err == nil {
		t.Fatalf("divergent Gauss–Seidel reported convergence at %v", x)
	}
	x, err := SolveFlow(s, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]+1.0/3) > 1e-12 || math.Abs(x[1]+2.0/3) > 1e-12 {
		t.Fatalf("x = %v, want [-1/3 -2/3]", x)
	}
}

func TestSolveFlowFallsBackToDense(t *testing.T) {
	// An anti-diagonal permutation system: Gauss–Seidel cannot run
	// (zero diagonal), the dense path must solve it.
	s := NewSparse(2)
	s.Add(0, 1, 1)
	s.Add(1, 0, 1)
	x, err := SolveFlow(s, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-4) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [4 3]", x)
	}
}

func TestSolveFlowTypicalFlowSystem(t *testing.T) {
	// The paper's Figure 4 system: three copies of block b2 with
	// frequencies x0, x1, x2 determined by flows from fixed blocks:
	//   x0 = 1000 (flow from b1)
	//   x1 = 0.9 * 44000 (loop back into b2')
	//   x2 = 0.1 * 44000 + ... see navep tests for the full model; here
	// just check a chained system solves exactly.
	s := NewSparse(3)
	s.Add(0, 0, 1)
	s.Add(1, 1, 1)
	s.Add(1, 0, -0.5) // x1 = 0.5*x0 + 10
	s.Add(2, 2, 1)
	s.Add(2, 1, -2) // x2 = 2*x1
	b := []float64{1000, 10, 0}
	x, err := SolveFlow(s, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1000, 510, 1020}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSparseAtAndMerge(t *testing.T) {
	s := NewSparse(3)
	s.Add(0, 1, 2)
	s.Add(0, 1, 3)
	if got := s.At(0, 1); got != 5 {
		t.Fatalf("merged entry = %v, want 5", got)
	}
	if got := s.At(2, 2); got != 0 {
		t.Fatalf("missing entry = %v, want 0", got)
	}
}

func TestSparseDenseConversion(t *testing.T) {
	s := NewSparse(2)
	s.Add(0, 0, 1)
	s.Add(1, 0, 2)
	s.Add(1, 1, 3)
	d := s.Dense()
	if d.At(0, 0) != 1 || d.At(1, 0) != 2 || d.At(1, 1) != 3 || d.At(0, 1) != 0 {
		t.Fatalf("dense conversion wrong: %+v", d)
	}
}

func TestMulVecMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MulVec with wrong length did not panic")
		}
	}()
	NewMatrix(2, 2).MulVec([]float64{1})
}

func BenchmarkSolveDense50(b *testing.B) {
	r := rng.New(3)
	a, _, rhs := randomDominant(r, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveDense(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGaussSeidel200(b *testing.B) {
	r := rng.New(3)
	_, s, rhs := randomDominant(r, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveGaussSeidel(s, rhs, GaussSeidelOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
