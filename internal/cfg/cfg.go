// Package cfg recovers a static control-flow graph from a guest image:
// basic blocks, successor edges, dominators and natural loops.
//
// The dynamic translator does not need this — it discovers blocks
// lazily at run time, like IA32EL — but the offline tooling does: the
// profile comparison tool annotates static structure, the disassembler
// prints block boundaries, and tests cross-check the translator's
// dynamic block discovery against the static decomposition.
package cfg

import (
	"fmt"
	"sort"

	"repro/internal/guest"
	"repro/internal/isa"
)

// Block is a static basic block [Start, End] (End is the terminator's
// address).
type Block struct {
	Start int
	End   int
	// Succs lists static successor block start addresses. Indirect
	// transfers contribute their jump-table targets; returns contribute
	// nothing (the callers' return sites are successors of call blocks
	// instead).
	Succs []int
	// Term is the terminating instruction.
	Term isa.Inst
}

// Graph is the static CFG of an image.
type Graph struct {
	Entry  int
	Blocks map[int]*Block
	// Preds maps a block start to its predecessors' starts.
	Preds map[int][]int
}

// Build recovers the static CFG of the image.
func Build(img *guest.Image) (*Graph, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	code := make([]isa.Inst, len(img.Code))
	for pc, w := range img.Code {
		in, err := isa.Decode(w)
		if err != nil {
			return nil, err
		}
		code[pc] = in
	}
	// Leaders: entry, control-transfer targets, fall-throughs after
	// block enders, call return sites, jump-table targets.
	leader := make([]bool, len(code))
	leader[img.Entry] = true
	for pc, in := range code {
		switch {
		case in.Op.IsCondBranch():
			leader[pc+int(in.Imm)] = true
			if pc+1 < len(code) {
				leader[pc+1] = true
			}
		case in.Op == isa.OpJmp:
			leader[pc+int(in.Imm)] = true
			if pc+1 < len(code) {
				leader[pc+1] = true
			}
		case in.Op == isa.OpCall:
			leader[pc+int(in.Imm)] = true
			if pc+1 < len(code) {
				leader[pc+1] = true
			}
		case in.Op == isa.OpJr:
			for _, t := range img.JumpTables[pc] {
				leader[t] = true
			}
			if pc+1 < len(code) {
				leader[pc+1] = true
			}
		case in.Op == isa.OpRet || in.Op == isa.OpHalt:
			if pc+1 < len(code) {
				leader[pc+1] = true
			}
		}
	}
	g := &Graph{Entry: img.Entry, Blocks: make(map[int]*Block), Preds: make(map[int][]int)}
	for start := 0; start < len(code); start++ {
		if !leader[start] && start != 0 {
			continue
		}
		// A block runs to the first terminator or next leader.
		end := start
		for end < len(code) {
			if code[end].Op.EndsBlock() {
				break
			}
			if end+1 < len(code) && leader[end+1] {
				break
			}
			end++
		}
		if end >= len(code) {
			return nil, fmt.Errorf("cfg: block at %d falls off the code segment", start)
		}
		b := &Block{Start: start, End: end, Term: code[end]}
		in := code[end]
		switch {
		case in.Op.IsCondBranch():
			b.Succs = append(b.Succs, end+int(in.Imm), end+1)
		case in.Op == isa.OpJmp:
			b.Succs = append(b.Succs, end+int(in.Imm))
		case in.Op == isa.OpCall:
			// Both the callee and the return site are reachable.
			b.Succs = append(b.Succs, end+int(in.Imm), end+1)
		case in.Op == isa.OpJr:
			b.Succs = append(b.Succs, img.JumpTables[end]...)
		case in.Op == isa.OpRet, in.Op == isa.OpHalt:
			// no static successors
		default:
			// Block split at a leader: falls through.
			b.Succs = append(b.Succs, end+1)
		}
		g.Blocks[start] = b
	}
	for start, b := range g.Blocks {
		for _, s := range b.Succs {
			g.Preds[s] = append(g.Preds[s], start)
		}
	}
	for _, preds := range g.Preds {
		sort.Ints(preds)
	}
	return g, nil
}

// Starts returns all block start addresses in ascending order.
func (g *Graph) Starts() []int {
	out := make([]int, 0, len(g.Blocks))
	for s := range g.Blocks {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// ReversePostorder returns block starts in reverse postorder from the
// entry; unreachable blocks are omitted.
func (g *Graph) ReversePostorder() []int {
	seen := make(map[int]bool, len(g.Blocks))
	var post []int
	var dfs func(int)
	dfs = func(s int) {
		if seen[s] || g.Blocks[s] == nil {
			return
		}
		seen[s] = true
		b := g.Blocks[s]
		for _, succ := range b.Succs {
			dfs(succ)
		}
		post = append(post, s)
	}
	dfs(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// dominators computes the immediate dominator of every reachable block
// (the entry dominates itself), using the Cooper–Harvey–Kennedy
// iterative algorithm over reverse postorder. It also returns the
// reverse postorder and each reachable block's position in it.
//
// Defined behavior on pathological graphs: blocks unreachable from the
// entry are absent from the result (they have no dominator), and
// irreducible graphs converge like any other — CHK iterates to the
// maximal fixed point and terminates because every intersection walks
// strictly down the already-computed RPO prefix. Callers holding a
// block start that is missing from the map must treat it as
// unreachable, not as an error.
func (g *Graph) dominators() (idom map[int]int, rpo []int, index map[int]int) {
	rpo = g.ReversePostorder()
	index = make(map[int]int, len(rpo))
	for i, s := range rpo {
		index[s] = i
	}
	idom = make(map[int]int, len(rpo))
	idom[g.Entry] = g.Entry
	intersect := func(a, b int) int {
		for a != b {
			for index[a] > index[b] {
				a = idom[a]
			}
			for index[b] > index[a] {
				b = idom[b]
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for _, s := range rpo {
			if s == g.Entry {
				continue
			}
			newIdom := -1
			for _, p := range g.Preds[s] {
				if _, ok := idom[p]; !ok {
					continue // unreachable or not yet processed
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom == -1 {
				continue
			}
			if cur, ok := idom[s]; !ok || cur != newIdom {
				idom[s] = newIdom
				changed = true
			}
		}
	}
	return idom, rpo, index
}

// Dominates reports whether a dominates b under the given idom map.
// For a block missing from the map (unreachable from the entry) the
// walk stops immediately, so the defined result degenerates to a == b:
// an unanalyzed block dominates only itself.
func Dominates(idom map[int]int, a, b int) bool {
	for {
		if a == b {
			return true
		}
		next, ok := idom[b]
		if !ok || next == b {
			return a == b
		}
		b = next
	}
}

// Loop is a natural loop: a back edge tail->Head whose Head dominates
// the tail, with Body the set of blocks that reach the tail without
// passing through the head.
type Loop struct {
	Head int
	Body map[int]bool
}

// NaturalLoops finds all natural loops, merging loops that share a head.
//
// Defined behavior on pathological graphs: only back edges whose head
// dominates the tail form loops, so irreducible cycles (two-entry
// loops, where neither header dominates the other) simply contribute
// no Loop — the call terminates and returns the reducible subset.
// Blocks unreachable from the entry can neither head a loop nor join a
// body: the body walk is clamped to the dominator-analyzed region, so
// an unreachable block with an edge into a loop is skipped rather than
// absorbed.
//
// A dominator precedes every block it dominates in reverse postorder,
// so only a retreating edge, one whose target sits at or before its
// source in that order, can be a back edge; forward edges skip the
// dominator walk, which would otherwise climb to the entry for each of
// them.
func (g *Graph) NaturalLoops() []Loop {
	idom, rpo, index := g.dominators()
	byHead := make(map[int]map[int]bool)
	for _, s := range rpo {
		for _, succ := range g.Blocks[s].Succs {
			if i, ok := index[succ]; ok && i <= index[s] && Dominates(idom, succ, s) {
				// Back edge s -> succ.
				body := byHead[succ]
				if body == nil {
					body = map[int]bool{succ: true}
					byHead[succ] = body
				}
				// Walk predecessors from the tail, clamped to blocks the
				// dominator analysis reached: an unreachable predecessor
				// cannot be part of the loop.
				stack := []int{s}
				for len(stack) > 0 {
					n := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if body[n] {
						continue
					}
					body[n] = true
					for _, p := range g.Preds[n] {
						if _, ok := idom[p]; ok {
							stack = append(stack, p)
						}
					}
				}
			}
		}
	}
	heads := make([]int, 0, len(byHead))
	for h := range byHead {
		heads = append(heads, h)
	}
	sort.Ints(heads)
	out := make([]Loop, 0, len(heads))
	for _, h := range heads {
		out = append(out, Loop{Head: h, Body: byHead[h]})
	}
	return out
}
