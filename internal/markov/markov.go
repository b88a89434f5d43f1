// Package markov implements the "Markov Modelling of Control Flow"
// frequency-propagation method (Wagner et al., PLDI'94) that the paper
// uses to recover block frequencies for duplicated blocks when the
// average profile is normalized to the initial profile's CFG.
//
// The caller describes a set of nodes (block copies) and, for each,
// exactly one of three kinds of knowledge:
//
//   - Pin: the node's frequency is known (a non-duplicated block whose
//     frequency comes straight from AVEP);
//   - Inflow: the node's frequency equals the probability-weighted sum
//     of its incoming edges (an interior copy of a region);
//   - Remainder: the node absorbs whatever is left of a known total
//     after the other copies of the same original block are accounted
//     for (a region entry whose original block was duplicated).
//
// Solve assembles the corresponding linear system — frequencies of
// non-duplicated blocks as constant coefficients, duplicated-block
// frequencies as unknowns — and solves it with the linalg package.
package markov

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

type eqKind int

const (
	eqUnset eqKind = iota
	eqPin
	eqInflow
	eqRemainder
)

type node struct {
	kind  eqKind
	pin   float64
	total float64 // remainder: group total
	group []int   // remainder: the other nodes in the group
}

type edge struct {
	dst, src int
	prob     float64
}

// System is a flow-conservation system under construction.
type System struct {
	nodes []node
	edges []edge
	name  func(id int) string
}

// NewSystem returns an empty system with room for n nodes of two
// out-edges each. name, when non-nil, labels a node in error messages
// and is called only when one needs it; nodes are otherwise labelled by
// index.
func NewSystem(n int, name func(id int) string) *System {
	return &System{nodes: make([]node, 0, n), edges: make([]edge, 0, 2*n), name: name}
}

// AddNode registers a node and returns its index.
func (s *System) AddNode() int {
	s.nodes = append(s.nodes, node{})
	return len(s.nodes) - 1
}

// label names node id for an error message.
func (s *System) label(id int) string {
	if s.name != nil {
		return s.name(id)
	}
	return fmt.Sprintf("#%d", id)
}

func (s *System) setKind(id int, k eqKind) error {
	if id < 0 || id >= len(s.nodes) {
		return fmt.Errorf("markov: node %d out of range", id)
	}
	if s.nodes[id].kind != eqUnset {
		return fmt.Errorf("markov: node %q already constrained", s.label(id))
	}
	s.nodes[id].kind = k
	return nil
}

// checkFinite rejects a NaN or infinite coefficient, which would
// otherwise flow into the solve and out as a NaN frequency.
func checkFinite(what string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("markov: non-finite %s %v", what, v)
	}
	return nil
}

// Pin fixes the node's frequency to a known value.
func (s *System) Pin(id int, freq float64) error {
	if err := checkFinite("pinned frequency", freq); err != nil {
		return err
	}
	if err := s.setKind(id, eqPin); err != nil {
		return err
	}
	s.nodes[id].pin = freq
	return nil
}

// Inflow declares that the node's frequency is the sum of its incoming
// AddEdge flows.
func (s *System) Inflow(id int) error {
	return s.setKind(id, eqInflow)
}

// Remainder declares that the node's frequency is total minus the sum of
// the frequencies of the other nodes in its duplication group.
func (s *System) Remainder(id int, total float64, others []int) error {
	if err := checkFinite("remainder total", total); err != nil {
		return err
	}
	if err := s.setKind(id, eqRemainder); err != nil {
		return err
	}
	s.nodes[id].total = total
	s.nodes[id].group = append([]int(nil), others...)
	return nil
}

// AddEdge records flow prob*freq(src) into dst. Edges into Pin or
// Remainder nodes are permitted and ignored by those equations (their
// frequency is determined by other knowledge).
func (s *System) AddEdge(dst, src int, prob float64) error {
	if dst < 0 || dst >= len(s.nodes) || src < 0 || src >= len(s.nodes) {
		return fmt.Errorf("markov: edge %d<-%d out of range", dst, src)
	}
	if err := checkFinite("edge probability", prob); err != nil {
		return err
	}
	if prob < 0 {
		return fmt.Errorf("markov: negative edge probability %v", prob)
	}
	s.edges = append(s.edges, edge{dst: dst, src: src, prob: prob})
	return nil
}

// Solve computes all node frequencies. Every node must have been
// constrained with exactly one of Pin, Inflow or Remainder.
func (s *System) Solve() ([]float64, error) {
	if len(s.nodes) == 0 {
		return nil, nil
	}
	a, b, err := s.assemble()
	if err != nil {
		return nil, err
	}
	x, err := linalg.SolveFlow(a, b)
	if err != nil {
		return nil, fmt.Errorf("markov: %w", err)
	}
	// Frequencies are physically non-negative; clamp the tiny negative
	// values that the remainder approximation can produce.
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
	return x, nil
}

// assemble lowers the system to A·x = b: one row per node, with the
// Inflow edges as negative coefficients.
func (s *System) assemble() (*linalg.Sparse, []float64, error) {
	n := len(s.nodes)
	a := linalg.NewSparse(n)
	b := make([]float64, n)
	for i, nd := range s.nodes {
		switch nd.kind {
		case eqPin:
			a.Add(i, i, 1)
			b[i] = nd.pin
		case eqInflow:
			a.Add(i, i, 1)
			// Edge terms are subtracted below.
		case eqRemainder:
			a.Add(i, i, 1)
			for _, j := range nd.group {
				if j == i {
					continue
				}
				a.Add(i, j, 1)
			}
			b[i] = nd.total
		default:
			return nil, nil, fmt.Errorf("markov: node %q has no equation", s.label(i))
		}
	}
	for _, e := range s.edges {
		if s.nodes[e.dst].kind != eqInflow {
			continue
		}
		a.Add(e.dst, e.src, -e.prob)
	}
	return a, b, nil
}
