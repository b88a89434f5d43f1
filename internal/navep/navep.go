// Package navep normalizes an average profile (AVEP) to the control-flow
// graph seen by an initial profile INIP(T), producing the NAVEP view of
// section 3.1 of the paper.
//
// The optimizer duplicates blocks into multiple regions, so INIP(T) may
// contain several copies of one AVEP block. Normalization:
//
//  1. assigns every copy the branch probability of its original block in
//     AVEP;
//  2. recovers per-copy frequencies by flow conservation: frequencies of
//     non-duplicated blocks are pinned to their AVEP values, interior
//     copies receive the probability-weighted inflow of their in-region
//     predecessors, and duplicated region entries absorb the remainder
//     of their original block's AVEP frequency (the approximation the
//     paper acknowledges for duplicated head blocks);
//  3. evaluates each region's completion probability (traces) and
//     loop-back probability (loops) under both the frozen INIP
//     probabilities and the substituted AVEP probabilities.
//
// The output feeds the metrics package, which turns it into the paper's
// Sd.BP / Sd.CP / Sd.LP and mismatch-rate figures.
package navep

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/markov"
	"repro/internal/profile"
	"repro/internal/region"
)

// BlockItem is one block instance of the NAVEP view that carries a
// conditional branch: its predicted (BT) and average (BM) branch
// probabilities and its weight W (the instance's frequency in NAVEP).
type BlockItem struct {
	Addr   int
	CopyID int // region copy ID, or -1 for a plain (non-region) block
	BT     float64
	BM     float64
	W      float64
}

// RegionItem is one region of INIP(T) evaluated under both probability
// assignments. For traces CT/CM hold completion probabilities; for loops
// LT/LM hold loop-back probabilities.
type RegionItem struct {
	Region *profile.Region
	W      float64 // entry-block frequency in NAVEP
	CT, CM float64
	LT, LM float64
}

// Result is the NAVEP view of one INIP/AVEP pair.
type Result struct {
	Blocks []BlockItem
	Traces []RegionItem
	Loops  []RegionItem
	// DuplicatedAddrs counts original blocks with more than one copy.
	DuplicatedAddrs int
	// Unknowns is the number of frequencies recovered by the solver.
	Unknowns int
	// MissingInAVEP counts INIP block instances whose address never
	// executed under the AVEP run (excluded from the comparison).
	MissingInAVEP int
}

// avepProb returns the AVEP branch probability for addr; ok=false when
// AVEP has no data for it.
func avepProb(avep *profile.Snapshot, addr int) (float64, bool) {
	b, found := avep.Blocks[addr]
	if !found || b.Use == 0 {
		return 0, false
	}
	return b.BranchProb(), true
}

// Normalize builds the NAVEP view of inip against avep. The avep
// snapshot must be unoptimized (no regions).
func Normalize(inip, avep *profile.Snapshot) (*Result, error) {
	if len(avep.Regions) != 0 {
		return nil, fmt.Errorf("navep: average profile must be unoptimized, has %d regions", len(avep.Regions))
	}
	if err := inip.Validate(); err != nil {
		return nil, fmt.Errorf("navep: invalid INIP snapshot: %w", err)
	}
	// Region copies, in region order: copy i is node i of the flow
	// system. Counting them and the branch items first sizes every
	// table below once.
	type copyRef struct {
		r  *profile.Region
		rb *profile.RegionBlock
	}
	ncopies, nitems := 0, 0
	for _, r := range inip.Regions {
		ncopies += len(r.Blocks)
		for i := range r.Blocks {
			if r.Blocks[i].HasBranch {
				nitems++
			}
		}
	}

	// Plain blocks: weight and average probability straight from AVEP.
	// Addresses are visited in sorted order so the item list — and hence
	// the floating-point summation order of every downstream metric — is
	// identical from run to run.
	addrs := make([]int, 0, len(inip.Blocks))
	for addr, blk := range inip.Blocks {
		addrs = append(addrs, addr)
		if blk.HasBranch {
			nitems++
		}
	}
	sort.Ints(addrs)
	res := &Result{Blocks: make([]BlockItem, 0, nitems)}
	for _, addr := range addrs {
		blk := inip.Blocks[addr]
		if !blk.HasBranch {
			continue
		}
		ab, found := avep.Blocks[addr]
		if !found || ab.Use == 0 {
			res.MissingInAVEP++
			continue
		}
		res.Blocks = append(res.Blocks, BlockItem{
			Addr:   addr,
			CopyID: -1,
			BT:     blk.BranchProb(),
			BM:     ab.BranchProb(),
			W:      float64(ab.Use),
		})
	}
	if len(inip.Regions) == 0 {
		return res, nil
	}

	copies := make([]copyRef, 0, ncopies)
	nodeOf := make(map[int]int, ncopies) // copy ID -> node index
	for _, r := range inip.Regions {
		for i := range r.Blocks {
			nodeOf[r.Blocks[i].ID] = len(copies)
			copies = append(copies, copyRef{r: r, rb: &r.Blocks[i]})
		}
	}
	sys := markov.NewSystem(ncopies, func(i int) string {
		c := copies[i]
		return fmt.Sprintf("r%d/b%d@%d", c.r.ID, c.rb.ID, c.rb.Addr)
	})
	for range copies {
		sys.AddNode()
	}

	// Edge probabilities follow the AVEP assignment; when AVEP lacks the
	// block (possible only if it never ran there), fall back to the
	// frozen probability so the flow still distributes.
	probOf := func(rb *profile.RegionBlock) float64 {
		if p, found := avepProb(avep, rb.Addr); found {
			return p
		}
		return rb.BranchProb()
	}
	for _, c := range copies {
		rb := c.rb
		var pTaken float64
		switch {
		case rb.HasBranch:
			pTaken = probOf(rb)
		case rb.TakenNext != -1 || (rb.TakenTarget >= 0 && rb.FallTarget < 0):
			pTaken = 1
		}
		src := nodeOf[rb.ID]
		if rb.TakenNext != -1 {
			if err := sys.AddEdge(nodeOf[rb.TakenNext], src, pTaken); err != nil {
				return nil, err
			}
		}
		if rb.FallNext != -1 {
			if err := sys.AddEdge(nodeOf[rb.FallNext], src, 1-pTaken); err != nil {
				return nil, err
			}
		}
	}

	// Constraints: entries pin or absorb the remainder; interiors take
	// inflow. The copies of one original block form a group. Groups in
	// address order, and each group's copies in copy order, keep the
	// constraint system — and the solver's rounding — deterministic; a
	// stable sort of the copy indexes by address lays them out so.
	byAddr := make([]int, ncopies)
	for i := range byAddr {
		byAddr[i] = i
	}
	slices.SortStableFunc(byAddr, func(a, b int) int { return cmp.Compare(copies[a].rb.Addr, copies[b].rb.Addr) })
	var others []int
	for len(byAddr) > 0 {
		addr, n := copies[byAddr[0]].rb.Addr, 1
		for n < len(byAddr) && copies[byAddr[n]].rb.Addr == addr {
			n++
		}
		group := byAddr[:n]
		byAddr = byAddr[n:]
		if len(group) > 1 {
			res.DuplicatedAddrs++
		}
		var freq float64
		if ab, found := avep.Blocks[addr]; found {
			freq = float64(ab.Use)
		}
		entryIdx := -1
		for _, ci := range group {
			c := copies[ci]
			if c.r.Entry == c.rb.ID {
				entryIdx = ci
				break
			}
		}
		for _, ci := range group {
			switch {
			case ci == entryIdx && len(group) == 1:
				if err := sys.Pin(ci, freq); err != nil {
					return nil, err
				}
			case ci == entryIdx:
				others = others[:0] // Remainder copies it
				for _, o := range group {
					if o != ci {
						others = append(others, o)
					}
				}
				if err := sys.Remainder(ci, freq, others); err != nil {
					return nil, err
				}
			default:
				if err := sys.Inflow(ci); err != nil {
					return nil, err
				}
				res.Unknowns++
			}
		}
	}

	x, err := sys.Solve()
	if err != nil {
		return nil, err
	}

	// Per-copy branch items.
	for i, c := range copies {
		rb := c.rb
		if !rb.HasBranch {
			continue
		}
		bm, found := avepProb(avep, rb.Addr)
		if !found {
			res.MissingInAVEP++
			continue
		}
		res.Blocks = append(res.Blocks, BlockItem{
			Addr:   rb.Addr,
			CopyID: rb.ID,
			BT:     rb.BranchProb(),
			BM:     bm,
			W:      x[i],
		})
	}

	// Per-region probability pairs.
	avepProbFn := func(rb *profile.RegionBlock) float64 { return probOf(rb) }
	for _, r := range inip.Regions {
		entryNode, ok := nodeOf[r.Entry]
		if !ok {
			return nil, fmt.Errorf("navep: region %d entry missing", r.ID)
		}
		item := RegionItem{Region: r, W: x[entryNode]}
		switch r.Kind {
		case profile.RegionTrace:
			if item.CT, err = region.CompletionProb(r, region.FrozenProb); err != nil {
				return nil, err
			}
			if item.CM, err = region.CompletionProb(r, avepProbFn); err != nil {
				return nil, err
			}
			res.Traces = append(res.Traces, item)
		case profile.RegionLoop:
			if item.LT, err = region.LoopBackProb(r, region.FrozenProb); err != nil {
				return nil, err
			}
			// Continuous trip-count instrumentation, when present,
			// supersedes the frozen-counter prediction.
			if r.HasContinuousLP {
				item.LT = r.ContinuousLP
			}
			if item.LM, err = region.LoopBackProb(r, avepProbFn); err != nil {
				return nil, err
			}
			res.Loops = append(res.Loops, item)
		}
	}
	return res, nil
}
