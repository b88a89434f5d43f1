package region

import (
	"math"
	"testing"

	"repro/internal/profile"
)

// mapProvider is a Provider over a fixed block table.
type mapProvider map[int]BlockInfo

func (m mapProvider) Info(addr int) (BlockInfo, bool) {
	b, ok := m[addr]
	return b, ok
}

// branch constructs a hot conditional-branch block.
func branch(addr int, use, taken uint64, takenTgt, fallTgt int) BlockInfo {
	return BlockInfo{Addr: addr, End: addr + 2, Use: use, Taken: taken, Term: TermBranch, TakenTarget: takenTgt, FallTarget: fallTgt}
}

func jump(addr int, use uint64, tgt int) BlockInfo {
	return BlockInfo{Addr: addr, End: addr + 1, Use: use, Term: TermJump, TakenTarget: tgt, FallTarget: -1}
}

func other(addr int, use uint64) BlockInfo {
	return BlockInfo{Addr: addr, End: addr, Use: use, Term: TermOther, TakenTarget: -1, FallTarget: -1}
}

func TestFormLinearTrace(t *testing.T) {
	// 10 -(0.9 taken)-> 20 -(0.8 not taken)-> 23 -> call (stop).
	p := mapProvider{
		10: branch(10, 1000, 900, 20, 13),
		20: branch(20, 950, 190, 50, 23), // taken prob 0.2 -> follow fall
		23: other(23, 900),
		50: other(50, 10),
	}
	f := NewFormer(Config{MinProb: 0.7, MaxBlocks: 16, MinUse: 500})
	regions := f.Form(p, []int{10})
	if len(regions) != 1 {
		t.Fatalf("formed %d regions, want 1", len(regions))
	}
	r := regions[0]
	if r.Kind != profile.RegionTrace {
		t.Fatalf("kind = %v, want trace", r.Kind)
	}
	if len(r.Blocks) != 3 {
		t.Fatalf("blocks = %+v, want 3", r.Blocks)
	}
	if r.Blocks[0].Addr != 10 || r.Blocks[1].Addr != 20 || r.Blocks[2].Addr != 23 {
		t.Fatalf("trace path wrong: %+v", r.Blocks)
	}
	if r.Blocks[0].TakenNext != r.Blocks[1].ID || r.Blocks[0].FallNext != -1 {
		t.Fatalf("edge 10->20 wrong: %+v", r.Blocks[0])
	}
	if r.Blocks[1].FallNext != r.Blocks[2].ID || r.Blocks[1].TakenNext != -1 {
		t.Fatalf("edge 20->23 wrong: %+v", r.Blocks[1])
	}
	// Frozen counters copied.
	if r.Blocks[0].Use != 1000 || r.Blocks[0].Taken != 900 {
		t.Fatalf("frozen counters wrong: %+v", r.Blocks[0])
	}
}

func TestFormLoopRegion(t *testing.T) {
	// 10 -(taken 0.95)-> 10: a self loop.
	p := mapProvider{10: branch(10, 1000, 950, 10, 13), 13: other(13, 50)}
	f := NewFormer(DefaultConfig(1000))
	regions := f.Form(p, []int{10})
	if len(regions) != 1 {
		t.Fatalf("formed %d regions, want 1", len(regions))
	}
	r := regions[0]
	if r.Kind != profile.RegionLoop {
		t.Fatalf("kind = %v, want loop", r.Kind)
	}
	if len(r.Blocks) != 1 || r.Blocks[0].TakenNext != r.Entry {
		t.Fatalf("self loop shape wrong: %+v", r.Blocks)
	}
	lp, err := LoopBackProb(r, FrozenProb)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lp-0.95) > 1e-12 {
		t.Fatalf("LP = %v, want 0.95", lp)
	}
}

func TestFormMultiBlockLoop(t *testing.T) {
	// 10 -> 20 -> back to 10 (both biased).
	p := mapProvider{
		10: branch(10, 1000, 900, 20, 13),
		20: branch(20, 900, 855, 10, 23),
		13: other(13, 10),
		23: other(23, 10),
	}
	f := NewFormer(Config{MinProb: 0.7, MaxBlocks: 16, MinUse: 400})
	regions := f.Form(p, []int{10, 20})
	if len(regions) != 1 {
		t.Fatalf("formed %d regions (%+v), want 1: block 20 should be consumed", len(regions), regions)
	}
	r := regions[0]
	if r.Kind != profile.RegionLoop || len(r.Blocks) != 2 {
		t.Fatalf("loop shape wrong: %+v", r)
	}
	if r.Blocks[1].TakenNext != r.Entry {
		t.Fatalf("back edge wrong: %+v", r.Blocks[1])
	}
	// LP = 0.9 * 0.95.
	lp, err := LoopBackProb(r, FrozenProb)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lp-0.9*0.95) > 1e-12 {
		t.Fatalf("LP = %v, want 0.855", lp)
	}
}

func TestFormStopsAtUnbiasedBranchWithoutDiamond(t *testing.T) {
	p := mapProvider{
		10: branch(10, 1000, 500, 20, 30), // 0.5/0.5
		20: other(20, 600),
		30: other(30, 400),
	}
	f := NewFormer(Config{MinProb: 0.7, MaxBlocks: 16, MinUse: 100, Diamonds: false})
	regions := f.Form(p, []int{10})
	if len(regions) != 0 {
		t.Fatalf("formed %d regions from a lone unbiased branch, want 0", len(regions))
	}
}

func TestFormAbsorbsDiamond(t *testing.T) {
	// 10 branches 50/50 to 20 and 30, both jump to 40, which jumps on.
	p := mapProvider{
		10: branch(10, 1000, 500, 20, 30),
		20: jump(20, 500, 40),
		30: jump(30, 500, 40),
		40: branch(40, 1000, 50, 90, 43), // biased fall-through
		43: other(43, 950),
		90: other(90, 50),
	}
	f := NewFormer(Config{MinProb: 0.7, MaxBlocks: 16, MinUse: 300, Diamonds: true})
	regions := f.Form(p, []int{10})
	if len(regions) != 1 {
		t.Fatalf("formed %d regions, want 1", len(regions))
	}
	r := regions[0]
	// Expect 10, 20, 30, 40, 43.
	if len(r.Blocks) != 5 {
		t.Fatalf("diamond region has %d blocks: %+v", len(r.Blocks), r.Blocks)
	}
	b10 := r.Blocks[0]
	if b10.TakenNext == -1 || b10.FallNext == -1 {
		t.Fatalf("diamond split edges missing: %+v", b10)
	}
	// CP with symmetric 0.5 probabilities and no side exits before 43:
	// all mass reaches the last block except block 40's taken side exit
	// (p=0.05): CP = 0.95.
	cp, err := CompletionProb(r, FrozenProb)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cp-0.95) > 1e-12 {
		t.Fatalf("CP = %v, want 0.95", cp)
	}
}

func TestFormRespectsMaxBlocks(t *testing.T) {
	// A long chain of biased branches.
	p := mapProvider{}
	for i := 0; i < 40; i++ {
		p[i*10] = branch(i*10, 1000, 950, (i+1)*10, i*10+5)
		p[i*10+5] = other(i*10+5, 10)
	}
	p[400] = other(400, 1000)
	f := NewFormer(Config{MinProb: 0.7, MaxBlocks: 8, MinUse: 500})
	regions := f.Form(p, []int{0})
	if len(regions) != 1 || len(regions[0].Blocks) != 8 {
		t.Fatalf("MaxBlocks not honoured: %d blocks", len(regions[0].Blocks))
	}
}

func TestFormSkipsColdSuccessors(t *testing.T) {
	p := mapProvider{
		10: branch(10, 1000, 900, 20, 13),
		20: other(20, 5), // cold
		13: other(13, 100),
	}
	f := NewFormer(Config{MinProb: 0.7, MaxBlocks: 16, MinUse: 500})
	regions := f.Form(p, []int{10})
	if len(regions) != 0 {
		t.Fatalf("formed %d regions through a cold successor, want 0", len(regions))
	}
}

func TestFormDuplicationAcrossRegions(t *testing.T) {
	// The Mcf shape: block 30 is shared by an inner loop (20->30->20)
	// and an outer path (10->...); once placed in the inner loop it must
	// be duplicated, not stolen, when the outer region forms.
	p := mapProvider{
		20: branch(20, 50000, 47500, 30, 25),
		30: branch(30, 50600, 44000, 20, 35), // taken 0.87 -> back to 20
		10: branch(10, 6000, 5700, 30, 15),   // outer path enters 30 too
		25: other(25, 100),
		35: other(35, 100),
		15: other(15, 100),
	}
	f := NewFormer(Config{MinProb: 0.7, MaxBlocks: 16, MinUse: 3000})
	// Hottest-first ordering forms the inner loop first.
	regions := f.Form(p, []int{20, 30, 10})
	if len(regions) != 2 {
		t.Fatalf("formed %d regions, want 2 (inner loop + outer trace)", len(regions))
	}
	inner, outer := regions[0], regions[1]
	if inner.Kind != profile.RegionLoop {
		t.Fatalf("inner kind = %v", inner.Kind)
	}
	// 30 appears in both regions with distinct copy IDs.
	var copies []int
	for _, r := range regions {
		for i := range r.Blocks {
			if r.Blocks[i].Addr == 30 {
				copies = append(copies, r.Blocks[i].ID)
			}
		}
	}
	if len(copies) != 2 || copies[0] == copies[1] {
		t.Fatalf("block 30 copies = %v, want two distinct", copies)
	}
	if outer.EntryBlock().Addr != 10 {
		t.Fatalf("outer entry = %+v", outer.EntryBlock())
	}
}

func TestFormSeedsHottestFirst(t *testing.T) {
	p := mapProvider{
		10: branch(10, 100, 90, 20, 13),
		20: branch(20, 5000, 4500, 10, 23), // hotter: seeds first, loops back through 10
		13: other(13, 1),
		23: other(23, 1),
	}
	f := NewFormer(Config{MinProb: 0.7, MaxBlocks: 16, MinUse: 50})
	regions := f.Form(p, []int{10, 20})
	if len(regions) == 0 {
		t.Fatal("no regions formed")
	}
	if regions[0].EntryBlock().Addr != 20 {
		t.Fatalf("first region entry %d, want 20 (hottest)", regions[0].EntryBlock().Addr)
	}
}

// figure6Region is the paper's Figure 6: b5 splits 0.4/0.6 to b6/b7,
// which rejoin at b8 with probabilities 0.8 and 0.9; CP = 0.4*0.8 +
// 0.6*0.9 = 0.86.
func figure6Region() *profile.Region {
	return &profile.Region{
		ID:    0,
		Kind:  profile.RegionTrace,
		Entry: 5,
		Blocks: []profile.RegionBlock{
			{ID: 5, Addr: 5, HasBranch: true, Use: 100, Taken: 40, TakenNext: 6, FallNext: 7},
			{ID: 6, Addr: 6, HasBranch: true, Use: 40, Taken: 32, TakenNext: 8, FallNext: -1},
			{ID: 7, Addr: 7, HasBranch: true, Use: 60, Taken: 54, TakenNext: 8, FallNext: -1},
			{ID: 8, Addr: 8, HasBranch: false, TakenNext: -1, FallNext: -1, TakenTarget: -1, FallTarget: -1},
		},
	}
}

// figure7Region is the paper's Figure 7: entry b5 splits 0.6 to b7 and
// 0.4 to b6; b6 reaches b8 with 0.9625 (so b8 carries ~0.385); b7 and
// b8 branch back to the entry with probability 0.9 each. The dummy node
// receives 0.6*0.9 + 0.385*0.9 = 0.8865 ~= the paper's 0.886.
func figure7Region() *profile.Region {
	return &profile.Region{
		ID:    1,
		Kind:  profile.RegionLoop,
		Entry: 5,
		Blocks: []profile.RegionBlock{
			{ID: 5, Addr: 5, HasBranch: true, Use: 10000, Taken: 6000, TakenNext: 7, FallNext: 6},
			{ID: 6, Addr: 6, HasBranch: true, Use: 4000, Taken: 3850, TakenNext: 8, FallNext: -1},
			{ID: 7, Addr: 7, HasBranch: true, Use: 6000, Taken: 5400, TakenNext: 5, FallNext: -1},
			{ID: 8, Addr: 8, HasBranch: true, Use: 3850, Taken: 3465, TakenNext: 5, FallNext: -1},
		},
	}
}

func TestPaperFigure6CompletionProbability(t *testing.T) {
	cp, err := CompletionProb(figure6Region(), FrozenProb)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cp-0.86) > 1e-12 {
		t.Fatalf("CP = %v, want 0.86 (paper Figure 6)", cp)
	}
}

func TestPaperFigure7LoopBackProbability(t *testing.T) {
	lp, err := LoopBackProb(figure7Region(), FrozenProb)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lp-0.8865) > 1e-9 {
		t.Fatalf("LP = %v, want 0.8865 (paper Figure 7, unrounded)", lp)
	}
}

func TestCompletionProbRejectsLoop(t *testing.T) {
	r := &profile.Region{Kind: profile.RegionLoop, Entry: 0, Blocks: []profile.RegionBlock{{ID: 0, TakenNext: 0, FallNext: -1, HasBranch: true, Use: 1, Taken: 1}}}
	if _, err := CompletionProb(r, FrozenProb); err == nil {
		t.Fatal("CompletionProb accepted a loop region")
	}
}

func TestLoopBackProbRejectsTrace(t *testing.T) {
	r := &profile.Region{Kind: profile.RegionTrace, Entry: 0, Blocks: []profile.RegionBlock{{ID: 0, TakenNext: -1, FallNext: -1}}}
	if _, err := LoopBackProb(r, FrozenProb); err == nil {
		t.Fatal("LoopBackProb accepted a trace region")
	}
}

func TestProbFuncSubstitution(t *testing.T) {
	// The same region evaluated under frozen vs substituted
	// probabilities (the NAVEP view) must differ accordingly.
	r := &profile.Region{
		Kind:  profile.RegionLoop,
		Entry: 0,
		Blocks: []profile.RegionBlock{
			{ID: 0, Addr: 100, HasBranch: true, Use: 1000, Taken: 900, TakenNext: 0, FallNext: -1},
		},
	}
	lpFrozen, err := LoopBackProb(r, FrozenProb)
	if err != nil {
		t.Fatal(err)
	}
	if lpFrozen != 0.9 {
		t.Fatalf("frozen LP = %v", lpFrozen)
	}
	lpAvg, err := LoopBackProb(r, func(rb *profile.RegionBlock) float64 { return 0.5 })
	if err != nil {
		t.Fatal(err)
	}
	if lpAvg != 0.5 {
		t.Fatalf("substituted LP = %v", lpAvg)
	}
}

func TestFlowRejectsForwardOrderViolation(t *testing.T) {
	// An edge pointing backward (not to the entry) must be rejected.
	r := &profile.Region{
		Kind:  profile.RegionTrace,
		Entry: 0,
		Blocks: []profile.RegionBlock{
			{ID: 0, HasBranch: true, Use: 10, Taken: 5, TakenNext: 1, FallNext: -1},
			{ID: 1, HasBranch: true, Use: 10, Taken: 5, TakenNext: 2, FallNext: -1},
			{ID: 2, HasBranch: true, Use: 10, Taken: 5, TakenNext: 1, FallNext: -1},
		},
	}
	if _, err := CompletionProb(r, FrozenProb); err == nil {
		t.Fatal("flow accepted a backward edge")
	}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig(1000)
	if c.MinProb != 0.7 || c.MaxBlocks != 16 || c.MinUse != 500 || !c.Diamonds {
		t.Fatalf("DefaultConfig = %+v", c)
	}
}
