// Package linalg provides the linear-equation solvers used to propagate
// block frequencies through normalized control-flow graphs.
//
// The paper's offline analysis tool uses Intel's Math Kernel Library to
// solve the flow-conservation systems that arise when AVEP is normalized
// to INIP(T)'s duplicated CFG ("Markov Modelling of Control Flow",
// Wagner et al., PLDI'94). This package is the stdlib-only substitution:
// a dense LU solver with partial pivoting for exact solutions, and a
// Gauss–Seidel iteration that exploits the near-triangular structure of
// flow systems for speed on larger graphs.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when elimination encounters a pivot too small
// to divide by, i.e. the system has no unique solution.
var ErrSingular = errors.New("linalg: singular matrix")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add adds v to element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %d vs %d", len(x), m.Cols))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
	return y
}

// SolveDense solves A·x = b by Gaussian elimination with partial
// pivoting, destroying neither input. It returns ErrSingular when no
// unique solution exists, and an error when the solution is not
// finite (overflow, or a NaN or infinite input).
func SolveDense(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("linalg: SolveDense needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs length %d != %d", len(b), n)
	}
	// Work on copies; callers reuse their matrices across experiments.
	m := a.Clone()
	x := append([]float64(nil), b...)
	const pivotEps = 1e-12
	for col := 0; col < n; col++ {
		// Partial pivoting: find the largest magnitude in this column.
		pivotRow := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best = v
				pivotRow = r
			}
		}
		if best < pivotEps {
			return nil, ErrSingular
		}
		if pivotRow != col {
			for j := 0; j < n; j++ {
				m.Data[col*n+j], m.Data[pivotRow*n+j] = m.Data[pivotRow*n+j], m.Data[col*n+j]
			}
			x[col], x[pivotRow] = x[pivotRow], x[col]
		}
		pivot := m.At(col, col)
		for r := col + 1; r < n; r++ {
			factor := m.At(r, col) / pivot
			if factor == 0 {
				continue
			}
			m.Set(r, col, 0)
			for j := col + 1; j < n; j++ {
				m.Add(r, j, -factor*m.At(col, j))
			}
			x[r] -= factor * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
		if !finite(x[i]) {
			return nil, fmt.Errorf("linalg: non-finite solution component %d", i)
		}
	}
	return x, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Sparse is a square sparse matrix in per-row coordinate form, suited to
// the flow systems (a handful of non-zeros per row).
type Sparse struct {
	N    int
	rows [][]entry
}

type entry struct {
	col int
	val float64
}

// NewSparse allocates an n×n zero sparse matrix.
func NewSparse(n int) *Sparse {
	if n < 0 {
		panic("linalg: negative dimension")
	}
	return &Sparse{N: n, rows: make([][]entry, n)}
}

// Add adds v to element (i, j), merging with an existing entry if
// present.
func (s *Sparse) Add(i, j int, v float64) {
	for k := range s.rows[i] {
		if s.rows[i][k].col == j {
			s.rows[i][k].val += v
			return
		}
	}
	s.rows[i] = append(s.rows[i], entry{col: j, val: v})
}

// At returns element (i, j).
func (s *Sparse) At(i, j int) float64 {
	for _, e := range s.rows[i] {
		if e.col == j {
			return e.val
		}
	}
	return 0
}

// MulVec returns s·x.
func (s *Sparse) MulVec(x []float64) []float64 {
	y := make([]float64, s.N)
	for i, row := range s.rows {
		sum := 0.0
		for _, e := range row {
			sum += e.val * x[e.col]
		}
		y[i] = sum
	}
	return y
}

// Dense converts to a dense matrix (for fallback solving and tests).
func (s *Sparse) Dense() *Matrix {
	m := NewMatrix(s.N, s.N)
	for i, row := range s.rows {
		for _, e := range row {
			m.Add(i, e.col, e.val)
		}
	}
	return m
}

// GaussSeidelOptions tunes the iterative solver.
type GaussSeidelOptions struct {
	// MaxIters bounds the number of sweeps (default 10000).
	MaxIters int
	// Tol is the max-norm change below which iteration stops
	// (default 1e-12).
	Tol float64
}

// SolveGaussSeidel solves A·x = b iteratively. It requires non-zero
// diagonal entries and converges for the diagonally dominant /
// substochastic systems produced by flow conservation. When convergence
// stalls it returns the best iterate along with a wrapped error so
// callers can fall back to the dense solver; an iterate that stops
// being finite is divergence, reported as an error with no iterate.
func SolveGaussSeidel(a *Sparse, b []float64, opts GaussSeidelOptions) ([]float64, error) {
	n := a.N
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs length %d != %d", len(b), n)
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 10000
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-12
	}
	diag := make([]float64, n)
	for i, row := range a.rows {
		for _, e := range row {
			if e.col == i {
				diag[i] = e.val
			}
		}
		if diag[i] == 0 {
			return nil, fmt.Errorf("linalg: zero diagonal at row %d: %w", i, ErrSingular)
		}
	}
	x := make([]float64, n)
	for iter := 0; iter < opts.MaxIters; iter++ {
		maxDelta := 0.0
		for i, row := range a.rows {
			sum := b[i]
			for _, e := range row {
				if e.col != i {
					sum -= e.val * x[e.col]
				}
			}
			next := sum / diag[i]
			if !finite(next) {
				// Past this point every delta is NaN, which no
				// comparison sees: stop before it reads as converged.
				return nil, fmt.Errorf("linalg: Gauss–Seidel diverged in sweep %d", iter+1)
			}
			if d := math.Abs(next - x[i]); d > maxDelta {
				maxDelta = d
			}
			x[i] = next
		}
		if maxDelta < opts.Tol {
			return x, nil
		}
	}
	return x, fmt.Errorf("linalg: Gauss–Seidel did not converge in %d iterations", opts.MaxIters)
}

// SolveFlow solves a flow-conservation system, preferring Gauss–Seidel
// and falling back to dense LU when iteration fails (e.g. for systems
// with cyclic dependencies that are not diagonally dominant).
func SolveFlow(a *Sparse, b []float64) ([]float64, error) {
	if x, err := SolveGaussSeidel(a, b, GaussSeidelOptions{}); err == nil {
		return x, nil
	}
	return SolveDense(a.Dense(), b)
}

// Residual returns the max-norm of A·x - b, a convenience for tests and
// verification passes.
func Residual(mul func([]float64) []float64, x, b []float64) float64 {
	ax := mul(x)
	worst := 0.0
	for i := range b {
		if d := math.Abs(ax[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}
