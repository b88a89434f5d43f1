package markov

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

// fuzzValue decodes a pin or remainder total: small integers, plus the
// non-finite values the builders must refuse.
func fuzzValue(v byte) float64 {
	switch v {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	}
	return float64(v)
}

// fuzzProb decodes an edge probability in [0, 4) in steps of 1/64, plus
// the non-finite and negative values AddEdge must refuse.
func fuzzProb(p byte) float64 {
	switch p {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return -1
	}
	return float64(p) / 64
}

// buildFuzzSystem decodes a System from fuzz bytes: byte 0 picks 1-8
// nodes, then three bytes per node (kind: pin, inflow or remainder;
// value; remainder group bitmask), then (dst, src, prob) edge triples.
// A builder error leaves its node or edge out, so Solve must cope with
// whatever survives.
func buildFuzzSystem(t *testing.T, data []byte) *System {
	n := 1 + int(data[0]%8)
	data = data[1:]
	if len(data) < 3*n {
		return nil
	}
	sys := NewSystem(0, nil)
	for i := 0; i < n; i++ {
		sys.AddNode()
	}
	for i := 0; i < n; i++ {
		kind, v, mask := data[3*i], data[3*i+1], data[3*i+2]
		var err error
		switch kind % 3 {
		case 0:
			err = sys.Pin(i, fuzzValue(v))
		case 1:
			err = sys.Inflow(i)
		case 2:
			var others []int
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					others = append(others, j)
				}
			}
			err = sys.Remainder(i, fuzzValue(v), others)
		}
		if kind%3 != 1 && v >= 253 && err == nil {
			t.Fatalf("node %d accepted non-finite value %v", i, fuzzValue(v))
		}
	}
	for rest := data[3*n:]; len(rest) >= 3; rest = rest[3:] {
		dst, src, p := int(rest[0])%n, int(rest[1])%n, fuzzProb(rest[2])
		if err := sys.AddEdge(dst, src, p); err == nil && (p < 0 || math.IsNaN(p) || math.IsInf(p, 0)) {
			t.Fatalf("edge %d<-%d accepted probability %v", dst, src, p)
		}
	}
	return sys
}

// FuzzFlowSolve checks the flow solve end to end over arbitrary
// systems: markov.Solve either fails or returns finite, non-negative
// frequencies, and linalg.SolveFlow on the same matrix either fails or
// returns x with a residual ≤ 1e-6·(1+‖A‖∞·‖x‖∞). A divergent
// Gauss–Seidel iterate must never pass for a converged one.
func FuzzFlowSolve(f *testing.F) {
	// pin p=1, a ← p (1), a ← b (2), b ← a (2): Gauss–Seidel blows up
	// to +Inf while the dense solve is finite.
	f.Add([]byte{2, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 64, 1, 2, 128, 2, 1, 128})
	// The paper's Figure-4 shape: a pinned entry feeding a loop.
	f.Add([]byte{2, 0, 100, 0, 1, 0, 0, 2, 200, 2, 1, 0, 64, 1, 1, 32})
	f.Add([]byte{0, 0, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sys := buildFuzzSystem(t, data)
		if sys == nil {
			return
		}
		if x, err := sys.Solve(); err == nil {
			for i, v := range x {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("Solve returned x[%d] = %v in %v with no error", i, v, x)
				}
			}
		}
		a, b, err := sys.assemble()
		if err != nil {
			return
		}
		x, err := linalg.SolveFlow(a, b)
		if err != nil {
			return
		}
		normA := 0.0
		dense := a.Dense()
		for i := 0; i < dense.Rows; i++ {
			row := 0.0
			for j := 0; j < dense.Cols; j++ {
				row += math.Abs(dense.At(i, j))
			}
			normA = math.Max(normA, row)
		}
		normX := 0.0
		for _, v := range x {
			normX = math.Max(normX, math.Abs(v))
		}
		bound := 1e-6 * (1 + normA*normX)
		if r := linalg.Residual(a.MulVec, x, b); !(r <= bound) {
			t.Fatalf("SolveFlow returned x = %v with residual %v > %v and no error", x, r, bound)
		}
	})
}
