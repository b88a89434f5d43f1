package cfg_test

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/cfg"
	"repro/internal/spec"
)

// finishes guards against analysis livelock: the satellite contract is
// that dominators/loops on pathological graphs terminate, so a hang is
// a failure, not a timeout flake.
func finishes(t *testing.T, name string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not terminate", name)
	}
}

// Unreachable code (after the halt, referenced by no one) jumps into
// the middle of a live loop. The loop body must not absorb it: an
// unreachable block is outside the dominator-analyzed region.
const unreachableIntoLoopSrc = `
.entry main
main:
	loadi r1, 10
loop:
	addi r1, r1, -1
body:
	bne r1, r0, loop
	halt
dead:
	nop
	jmp body
`

func TestNaturalLoopsSkipUnreachablePreds(t *testing.T) {
	img := mustAssemble(t, unreachableIntoLoopSrc)
	g, err := cfg.Build(img)
	if err != nil {
		t.Fatal(err)
	}
	dead := img.Symbols["dead"]
	idom := g.Dominators()
	if _, ok := idom[dead]; ok {
		t.Fatalf("unreachable block %d must be absent from the dominator map", dead)
	}
	var loops []cfg.Loop
	finishes(t, "NaturalLoops", func() { loops = g.NaturalLoops() })
	if len(loops) != 1 {
		t.Fatalf("loops = %+v, want exactly the live loop", loops)
	}
	l := loops[0]
	if l.Head != img.Symbols["loop"] {
		t.Fatalf("loop head = %d, want %d", l.Head, img.Symbols["loop"])
	}
	if l.Body[dead] {
		t.Fatalf("loop body %v absorbed the unreachable block %d", l.Body, dead)
	}
	if !l.Body[img.Symbols["body"]] {
		t.Fatalf("loop body %v lost its reachable member", l.Body)
	}
}

func TestDominatesOnUnreachableBlocks(t *testing.T) {
	img := mustAssemble(t, unreachableIntoLoopSrc)
	g, err := cfg.Build(img)
	if err != nil {
		t.Fatal(err)
	}
	idom := g.Dominators()
	dead := img.Symbols["dead"]
	// Defined degenerate result: an unanalyzed block dominates only
	// itself, and nothing else dominates it.
	if !cfg.Dominates(idom, dead, dead) {
		t.Fatal("a block must dominate itself even when unreachable")
	}
	if cfg.Dominates(idom, g.Entry, dead) {
		t.Fatal("the entry must not claim dominance over an unreachable block")
	}
	if cfg.Dominates(idom, dead, g.Entry) {
		t.Fatal("an unreachable block must not dominate the entry")
	}
}

// Irreducible CFG: the aa<->bb cycle has two entries (the branch's
// taken and fall-through arms), so neither header dominates the other.
// The analyses must terminate and report no natural loop for it.
func TestIrreducibleCycleTerminates(t *testing.T) {
	img := mustAssemble(t, `
.entry main
main:
	loadi r1, 1
	beq r1, r0, bb
aa:
	nop
	jmp bb
bb:
	nop
	jmp aa
`)
	g, err := cfg.Build(img)
	if err != nil {
		t.Fatal(err)
	}
	var idom map[int]int
	finishes(t, "Dominators", func() { idom = g.Dominators() })
	aa, bb := img.Symbols["aa"], img.Symbols["bb"]
	// Both cycle members are reachable; their only common dominator is
	// the entry block.
	if cfg.Dominates(idom, aa, bb) || cfg.Dominates(idom, bb, aa) {
		t.Fatalf("irreducible cycle members must not dominate each other (idom=%v)", idom)
	}
	var loops []cfg.Loop
	finishes(t, "NaturalLoops", func() { loops = g.NaturalLoops() })
	if len(loops) != 0 {
		t.Fatalf("irreducible cycle produced natural loops: %+v", loops)
	}
}

func TestSelfLoopIsItsOwnBody(t *testing.T) {
	img := mustAssemble(t, `
.entry main
main:
	loadi r1, 10
loop:
	bne r1, r0, loop
	halt
`)
	g, err := cfg.Build(img)
	if err != nil {
		t.Fatal(err)
	}
	loops := g.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("loops = %+v, want the self-loop", loops)
	}
	l := loops[0]
	if l.Head != img.Symbols["loop"] || !l.Body[l.Head] || len(l.Body) != 1 {
		t.Fatalf("self-loop = %+v, want body exactly {head}", l)
	}
}

// Hand-built graphs (no image) exercise shapes the assembler cannot
// produce, including a dangling entry and an unreachable cycle.
func handGraph(entry int, edges map[int][]int) *cfg.Graph {
	g := &cfg.Graph{Entry: entry, Blocks: map[int]*cfg.Block{}, Preds: map[int][]int{}}
	for s, succs := range edges {
		g.Blocks[s] = &cfg.Block{Start: s, End: s, Succs: succs}
	}
	for s, b := range g.Blocks {
		for _, succ := range b.Succs {
			g.Preds[succ] = append(g.Preds[succ], s)
		}
	}
	return g
}

func TestHandBuiltUnreachableCycle(t *testing.T) {
	// 0 -> 1; unreachable cycle 10 <-> 11 feeding block 1.
	g := handGraph(0, map[int][]int{
		0:  {1},
		1:  {},
		10: {11, 1},
		11: {10},
	})
	var idom map[int]int
	finishes(t, "Dominators", func() { idom = g.Dominators() })
	if len(idom) != 2 {
		t.Fatalf("idom = %v, want only the two reachable blocks", idom)
	}
	var loops []cfg.Loop
	finishes(t, "NaturalLoops", func() { loops = g.NaturalLoops() })
	if len(loops) != 0 {
		t.Fatalf("unreachable cycle produced loops: %+v", loops)
	}
}

func TestHandBuiltDanglingEntry(t *testing.T) {
	// The entry names a block that does not exist; every analysis must
	// degrade to the empty result instead of panicking.
	g := handGraph(99, map[int][]int{0: {0}})
	finishes(t, "analyses", func() {
		if rpo := g.ReversePostorder(); len(rpo) != 0 {
			t.Errorf("rpo = %v, want empty", rpo)
		}
		g.Dominators()
		if loops := g.NaturalLoops(); len(loops) != 0 {
			t.Errorf("loops = %+v, want none", loops)
		}
	})
}

// unfilteredLoops is NaturalLoops without the reverse-postorder edge
// filter: it asks the dominator walk about every edge.
func unfilteredLoops(g *cfg.Graph) []cfg.Loop {
	idom := g.Dominators()
	byHead := make(map[int]map[int]bool)
	for _, s := range g.ReversePostorder() {
		for _, succ := range g.Blocks[s].Succs {
			if !cfg.Dominates(idom, succ, s) {
				continue
			}
			body := byHead[succ]
			if body == nil {
				body = map[int]bool{succ: true}
				byHead[succ] = body
			}
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
	heads := make([]int, 0, len(byHead))
	for h := range byHead {
		heads = append(heads, h)
	}
	sort.Ints(heads)
	out := make([]cfg.Loop, 0, len(heads))
	for _, h := range heads {
		out = append(out, cfg.Loop{Head: h, Body: byHead[h]})
	}
	return out
}

// TestNaturalLoopsMatchUnfilteredWalk pins the edge filter: on every
// spec image and on the pathological graphs, NaturalLoops finds the
// same loops as the walk that tests every edge for dominance.
func TestNaturalLoopsMatchUnfilteredWalk(t *testing.T) {
	graphs := map[string]*cfg.Graph{
		"unreachable cycle": handGraph(0, map[int][]int{0: {1}, 1: {}, 10: {11, 1}, 11: {10}}),
		"dangling entry":    handGraph(99, map[int][]int{0: {0}}),
		"dangling target":   handGraph(0, map[int][]int{0: {1, 7}, 1: {0, 2}, 2: {2, 1}}),
		"two-entry cycle":   handGraph(0, map[int][]int{0: {1, 2}, 1: {2}, 2: {1, 3}, 3: {0}}),
	}
	for name, src := range map[string]string{
		"unreachable into loop": unreachableIntoLoopSrc,
		"self loop":             "\n.entry main\nmain:\n\tloadi r1, 10\nloop:\n\tbne r1, r0, loop\n\thalt\n",
	} {
		g, err := cfg.Build(mustAssemble(t, src))
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = g
	}
	for _, b := range spec.Suite() {
		img, _, err := b.Build("ref", 0.005)
		if err != nil {
			t.Fatal(err)
		}
		if graphs[b.Name], err = cfg.Build(img); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
	}
	for name, g := range graphs {
		got, want := g.NaturalLoops(), unfilteredLoops(g)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: NaturalLoops = %+v, unfiltered walk %+v", name, got, want)
		}
	}
}
