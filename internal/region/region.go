// Package region implements the optimization phase's region former and
// the probability computations defined in sections 3.2 and 3.3 of the
// paper.
//
// The former groups hot blocks into two region shapes:
//
//   - traces (non-loop regions): grown from a seed by repeatedly
//     following the dominant branch direction while it is biased at
//     least MinProb (the classic "minimum branch probability" rule of
//     Chang & Hwu trace selection). An if/else diamond whose branch is
//     unbiased may be absorbed whole when both arms rejoin immediately,
//     which yields hyperblock-shaped regions.
//
//   - loop regions: a growth path that branches back to its seed closes
//     into a loop region whose back edges target the region entry.
//
// Blocks already placed in an earlier region may be absorbed again into
// a later one; each placement is a fresh copy (tail duplication), which
// is exactly the duplication the paper's NAVEP normalization exists to
// handle.
package region

import (
	"fmt"
	"sort"

	"repro/internal/profile"
)

// TermKind classifies how a block ends, as needed by the former.
type TermKind int

const (
	// TermBranch is a two-way conditional branch.
	TermBranch TermKind = iota
	// TermJump is a direct unconditional jump.
	TermJump
	// TermOther is anything the former will not grow through: calls,
	// returns, indirect jumps, halt.
	TermOther
)

// BlockInfo is the former's view of one translated block.
type BlockInfo struct {
	Addr int
	End  int
	// Use and Taken are the live profiling counters at formation time;
	// they become the region copy's frozen counters.
	Use   uint64
	Taken uint64
	Term  TermKind
	// TakenTarget is the branch/jump target (-1 if none); FallTarget is
	// the fall-through successor (-1 if none).
	TakenTarget int
	FallTarget  int
}

// HasBranch reports whether the block ends in a conditional branch.
func (b *BlockInfo) HasBranch() bool { return b.Term == TermBranch }

// BranchProb returns the live taken probability.
func (b *BlockInfo) BranchProb() float64 {
	if b.Term != TermBranch || b.Use == 0 {
		return 0
	}
	return float64(b.Taken) / float64(b.Use)
}

// Provider resolves block addresses to formation-time info. The DBT's
// translation cache implements this.
type Provider interface {
	// Info returns the block at addr, or ok=false if the address has
	// never been translated.
	Info(addr int) (BlockInfo, bool)
}

// Config tunes region formation.
type Config struct {
	// MinProb is the minimum branch probability for following a branch
	// direction (default 0.7, the paper's reference value).
	MinProb float64
	// MaxBlocks caps region size in block copies (default 16).
	MaxBlocks int
	// MinUse is the hotness floor for absorbing successor blocks;
	// typically half the retranslation threshold.
	MinUse uint64
	// Diamonds enables absorbing unbiased if/else diamonds
	// (default true via DefaultConfig).
	Diamonds bool
}

// DefaultConfig returns the paper-reference configuration for a given
// retranslation threshold.
func DefaultConfig(threshold uint64) Config {
	return Config{
		MinProb:   0.7,
		MaxBlocks: 16,
		MinUse:    threshold / 2,
		Diamonds:  true,
	}
}

func (c *Config) normalize() {
	if c.MinProb <= 0 || c.MinProb > 1 {
		c.MinProb = 0.7
	}
	if c.MaxBlocks <= 0 {
		c.MaxBlocks = 16
	}
}

// Former builds regions from candidate seeds. It owns the running ID
// counters so that region and block-copy IDs stay unique across the
// multiple optimization waves of a run.
type Former struct {
	cfg        Config
	nextRegion int
	nextCopy   int
	// placed marks addresses that are already a member of some region;
	// such blocks are skipped as seeds but remain eligible for
	// duplication into later regions. It is indexed by address and
	// grows to the highest address placed, so a former that never forms
	// a region holds none.
	placed []bool
	// buf holds the copies of the region under construction. No region
	// exceeds its capacity, MaxBlocks, so it never reallocates.
	buf []profile.RegionBlock
	// seeds is Form's per-wave seed list, kept across waves so a wave
	// does not allocate it.
	seeds []int
}

// NewFormer returns a Former with the given configuration.
func NewFormer(cfg Config) *Former {
	cfg.normalize()
	return &Former{cfg: cfg}
}

// Placed reports whether addr is already a member of a formed region.
func (f *Former) Placed(addr int) bool {
	return uint(addr) < uint(len(f.placed)) && f.placed[addr]
}

// Unplace releases an address from region membership, making it
// eligible to seed or join future regions. The adaptive translator uses
// this when it dissolves a misbehaving region.
func (f *Former) Unplace(addr int) {
	if f.Placed(addr) {
		f.placed[addr] = false
	}
}

// place marks a region member's address, growing placed to reach it.
func (f *Former) place(addr int) {
	if addr >= len(f.placed) {
		f.placed = append(f.placed, make([]bool, addr+1-len(f.placed))...)
	}
	f.placed[addr] = true
}

// Form runs one optimization wave over the candidate addresses and
// returns the regions formed, in formation order. Candidates are
// processed hottest-first; candidates that have already been placed are
// skipped as seeds.
func (f *Former) Form(p Provider, candidates []int) []*profile.Region {
	seeds := f.seeds[:0]
	// A pool of up to 8 candidates, the default trigger, keeps this
	// set on the stack; a set kept on the Former would cost a heap map
	// per engine.
	seen := make(map[int]bool, len(candidates))
	for _, addr := range candidates {
		if !seen[addr] {
			seen[addr] = true
			seeds = append(seeds, addr)
		}
	}
	f.seeds = seeds
	sort.Slice(seeds, func(i, j int) bool {
		bi, _ := p.Info(seeds[i])
		bj, _ := p.Info(seeds[j])
		if bi.Use != bj.Use {
			return bi.Use > bj.Use
		}
		return seeds[i] < seeds[j]
	})
	var out []*profile.Region
	for _, seed := range seeds {
		if f.Placed(seed) {
			continue
		}
		info, ok := p.Info(seed)
		if !ok {
			continue
		}
		r := f.grow(p, info)
		if r == nil {
			continue
		}
		for i := range r.Blocks {
			f.place(r.Blocks[i].Addr)
		}
		out = append(out, r)
	}
	return out
}

// growth accumulates the copies of a region under construction in the
// former's buffer, so edge patches survive later appends.
type growth struct {
	kind   profile.RegionKind
	id     int
	entry  int
	blocks []profile.RegionBlock
}

func (g *growth) appendCopy(f *Former, info BlockInfo) *profile.RegionBlock {
	g.blocks = append(g.blocks, profile.RegionBlock{
		ID:          f.nextCopy,
		Addr:        info.Addr,
		Use:         info.Use,
		Taken:       info.Taken,
		HasBranch:   info.Term == TermBranch,
		TakenNext:   -1,
		FallNext:    -1,
		TakenTarget: info.TakenTarget,
		FallTarget:  info.FallTarget,
	})
	f.nextCopy++
	return &g.blocks[len(g.blocks)-1]
}

// inPath reports whether the region already holds a copy of addr, for
// cycle detection: a scan of at most MaxBlocks copies.
func (g *growth) inPath(addr int) bool {
	for i := range g.blocks {
		if g.blocks[i].Addr == addr {
			return true
		}
	}
	return false
}

func (g *growth) region() *profile.Region {
	return &profile.Region{ID: g.id, Kind: g.kind, Entry: g.entry, Blocks: append([]profile.RegionBlock(nil), g.blocks...)}
}

// grow builds a single region from the seed block.
func (f *Former) grow(p Provider, seed BlockInfo) *profile.Region {
	if f.buf == nil {
		f.buf = make([]profile.RegionBlock, 0, f.cfg.MaxBlocks)
	}
	g := &growth{kind: profile.RegionTrace, id: f.nextRegion, blocks: f.buf[:0]}
	f.nextRegion++
	cur := g.appendCopy(f, seed)
	g.entry = cur.ID
	curInfo := seed

	for len(g.blocks) < f.cfg.MaxBlocks {
		// Pick the edge to extend along.
		var succAddr int
		var viaTaken bool
		switch curInfo.Term {
		case TermJump:
			succAddr, viaTaken = curInfo.TakenTarget, true
		case TermBranch:
			prob := curInfo.BranchProb()
			switch {
			case prob >= f.cfg.MinProb:
				succAddr, viaTaken = curInfo.TakenTarget, true
			case 1-prob >= f.cfg.MinProb:
				succAddr, viaTaken = curInfo.FallTarget, false
			default:
				// Unbiased branch: try to absorb a diamond.
				if f.cfg.Diamonds {
					if next, ok := f.absorbDiamond(p, g, cur, curInfo); ok {
						cur = next
						var found bool
						curInfo, found = p.Info(cur.Addr)
						if !found {
							return finishRegion(g)
						}
						continue
					}
				}
				return finishRegion(g)
			}
		default:
			return finishRegion(g)
		}
		if succAddr < 0 {
			return finishRegion(g)
		}
		if succAddr == seed.Addr {
			// Closing the cycle back to the entry: a loop region.
			g.kind = profile.RegionLoop
			if viaTaken {
				cur.TakenNext = g.entry
			} else {
				cur.FallNext = g.entry
			}
			return finishRegion(g)
		}
		if g.inPath(succAddr) {
			// A cycle not through the entry; stop rather than form an
			// irreducible region.
			return finishRegion(g)
		}
		succInfo, ok := p.Info(succAddr)
		if !ok || succInfo.Use < f.cfg.MinUse {
			return finishRegion(g)
		}
		next := g.appendCopy(f, succInfo)
		if viaTaken {
			cur.TakenNext = next.ID
		} else {
			cur.FallNext = next.ID
		}
		cur = next
		curInfo = succInfo
	}
	return finishRegion(g)
}

// absorbDiamond tries to extend the region through an unbiased branch at
// cur by absorbing both arms of an if/else diamond. It succeeds only
// when both successor blocks end with a direct jump to one common merge
// block that is hot enough to include. It returns the merge copy to
// continue growing from.
func (f *Former) absorbDiamond(p Provider, g *growth, cur *profile.RegionBlock, curInfo BlockInfo) (*profile.RegionBlock, bool) {
	if len(g.blocks)+3 > f.cfg.MaxBlocks {
		return nil, false
	}
	tAddr, fAddr := curInfo.TakenTarget, curInfo.FallTarget
	if tAddr < 0 || fAddr < 0 || tAddr == fAddr {
		return nil, false
	}
	tInfo, okT := p.Info(tAddr)
	fInfo, okF := p.Info(fAddr)
	if !okT || !okF || tInfo.Use < f.cfg.MinUse || fInfo.Use < f.cfg.MinUse {
		return nil, false
	}
	if tInfo.Term != TermJump || fInfo.Term != TermJump {
		return nil, false
	}
	merge := tInfo.TakenTarget
	if merge < 0 || merge != fInfo.TakenTarget {
		return nil, false
	}
	if g.inPath(tAddr) || g.inPath(fAddr) || g.inPath(merge) {
		return nil, false
	}
	mInfo, okM := p.Info(merge)
	if !okM || mInfo.Use < f.cfg.MinUse {
		return nil, false
	}
	tCopy := g.appendCopy(f, tInfo)
	fCopy := g.appendCopy(f, fInfo)
	mCopy := g.appendCopy(f, mInfo)
	cur.TakenNext = tCopy.ID
	cur.FallNext = fCopy.ID
	tCopy.TakenNext = mCopy.ID
	fCopy.TakenNext = mCopy.ID
	return mCopy, true
}

// finishRegion discards degenerate regions (a single block with no
// internal edges conveys nothing to optimize) and materializes the
// region otherwise. Single-block loop regions are kept: a block
// branching back to itself is a legitimate loop.
func finishRegion(g *growth) *profile.Region {
	if len(g.blocks) <= 1 && g.kind != profile.RegionLoop {
		return nil
	}
	return g.region()
}

// ProbFunc supplies the taken-edge probability for a region block copy.
// Frozen-counter probabilities (the INIP view) come from
// RegionBlock.BranchProb; the NAVEP view substitutes AVEP probabilities
// for the same copies.
type ProbFunc func(rb *profile.RegionBlock) float64

// FrozenProb is the ProbFunc for the INIP view.
func FrozenProb(rb *profile.RegionBlock) float64 { return rb.BranchProb() }

// flow propagates entry frequency 1 through the region's internal edges
// in formation order (which is topological for regions built by Former:
// edges, except loop back edges, always point forward). It returns the
// frequency that arrived at each block, by position, and the mass that
// flowed along back edges into the entry (the dummy node of section 3.3).
func flow(r *profile.Region, prob ProbFunc) (freq []float64, backMass float64, err error) {
	entry := r.Index(r.Entry)
	if entry < 0 {
		return nil, 0, fmt.Errorf("region: entry %d not a member", r.Entry)
	}
	freq = make([]float64, len(r.Blocks))
	freq[entry] = 1
	for i := range r.Blocks {
		rb := &r.Blocks[i]
		fq := freq[i]
		if fq == 0 {
			continue
		}
		var pTaken float64
		switch {
		case rb.HasBranch:
			pTaken = prob(rb)
		case rb.TakenNext != -1 || (rb.TakenTarget >= 0 && rb.FallTarget < 0):
			pTaken = 1 // unconditional jump edge
		default:
			pTaken = 0
		}
		route := func(next int, mass float64) error {
			if mass == 0 {
				return nil
			}
			if next == -1 {
				return nil // side exit or region end: mass leaves
			}
			if next == r.Entry {
				backMass += mass
				return nil
			}
			j := r.Index(next)
			if j < 0 {
				return fmt.Errorf("region %d: successor %d not a member", r.ID, next)
			}
			if j <= i {
				return fmt.Errorf("region %d: edge %d->%d violates formation order", r.ID, rb.ID, next)
			}
			freq[j] += mass
			return nil
		}
		if err := route(rb.TakenNext, fq*pTaken); err != nil {
			return nil, 0, err
		}
		if err := route(rb.FallNext, fq*(1-pTaken)); err != nil {
			return nil, 0, err
		}
	}
	return freq, backMass, nil
}

// CompletionProb computes the completion probability of a non-loop
// region under the given edge probabilities: the frequency reaching the
// region's last block when the entry executes once (section 3.2).
func CompletionProb(r *profile.Region, prob ProbFunc) (float64, error) {
	if r.Kind != profile.RegionTrace {
		return 0, fmt.Errorf("region: CompletionProb on %s region %d", r.Kind, r.ID)
	}
	if len(r.Blocks) == 0 {
		return 0, fmt.Errorf("region: empty region %d", r.ID)
	}
	freq, _, err := flow(r, prob)
	if err != nil {
		return 0, err
	}
	return freq[len(freq)-1], nil
}

// LoopBackProb computes the loop-back probability of a loop region under
// the given edge probabilities: the mass flowing along back edges into a
// dummy node when the entry executes once (section 3.3).
func LoopBackProb(r *profile.Region, prob ProbFunc) (float64, error) {
	if r.Kind != profile.RegionLoop {
		return 0, fmt.Errorf("region: LoopBackProb on %s region %d", r.Kind, r.ID)
	}
	_, back, err := flow(r, prob)
	if err != nil {
		return 0, err
	}
	return back, nil
}
