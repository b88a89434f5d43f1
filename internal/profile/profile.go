// Package profile defines the profile data model shared by the
// translator, the normalizer and the metrics: per-block use/taken
// counters, optimized-region records, and whole-run snapshots (INIP(T),
// AVEP, INIP(train)) with serialization for the offline analysis tool.
//
// Terminology follows the paper:
//
//   - use count: how many times a block was entered.
//   - taken count: how many times its terminating conditional branch was
//     taken.
//   - INIP(T): the snapshot produced by a run with retranslation
//     threshold T — region blocks carry counters frozen at optimization
//     time, non-region blocks carry end-of-run counters.
//   - AVEP: the snapshot of a run with optimization disabled — every
//     block carries end-of-run counters and there are no regions.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Block holds the profiling counters of one static basic block.
type Block struct {
	// Addr is the guest address of the block's first instruction.
	Addr int `json:"addr"`
	// End is the guest address of the block's terminator.
	End int `json:"end"`
	// Use is the number of times the block was entered while its
	// counters were live.
	Use uint64 `json:"use"`
	// Taken is the number of times the terminating conditional branch
	// was taken. It stays zero for blocks that do not end in a
	// conditional branch.
	Taken uint64 `json:"taken,omitempty"`
	// HasBranch records whether the terminator is a conditional branch.
	HasBranch bool `json:"has_branch,omitempty"`
	// TakenTarget and FallTarget are the successor addresses. For
	// blocks ending in unconditional or indirect transfers, FallTarget
	// is -1 and TakenTarget is the static target or -1 if unknown.
	TakenTarget int `json:"taken_target"`
	FallTarget  int `json:"fall_target"`
}

// BranchProb returns the block's branch probability taken/use. Blocks
// that were never executed or have no conditional branch report 0.
func (b *Block) BranchProb() float64 {
	if !b.HasBranch || b.Use == 0 {
		return 0
	}
	return float64(b.Taken) / float64(b.Use)
}

// RegionKind distinguishes the two region shapes the optimizer forms.
type RegionKind int

const (
	// RegionTrace is a non-loop region: a superblock of blocks expected
	// to execute from entry to the last block.
	RegionTrace RegionKind = iota
	// RegionLoop is a loop region whose back edges return to the entry.
	RegionLoop
)

// String returns "trace" or "loop".
func (k RegionKind) String() string {
	if k == RegionLoop {
		return "loop"
	}
	return "trace"
}

// RegionBlock is a block instance inside a region. Because the optimizer
// may tail-duplicate, the same guest address may appear in several
// regions (or twice in one); ID disambiguates instances within a
// snapshot.
type RegionBlock struct {
	// ID is the snapshot-unique identifier of this instance.
	ID int `json:"id"`
	// Addr is the guest address of the original block.
	Addr int `json:"addr"`
	// Use and Taken are the profiling counters frozen when the region
	// was optimized.
	Use   uint64 `json:"use"`
	Taken uint64 `json:"taken,omitempty"`
	// HasBranch mirrors Block.HasBranch.
	HasBranch bool `json:"has_branch,omitempty"`
	// TakenNext and FallNext are the IDs of the in-region successors
	// reached on the taken and fall-through edges, or -1 when the edge
	// leaves the region (a side exit or the region's natural end).
	TakenNext int `json:"taken_next"`
	FallNext  int `json:"fall_next"`
	// TakenTarget and FallTarget are the guest addresses those edges
	// lead to (useful when the edge exits the region).
	TakenTarget int `json:"taken_target"`
	FallTarget  int `json:"fall_target"`
}

// BranchProb returns taken/use for the frozen counters.
func (b *RegionBlock) BranchProb() float64 {
	if !b.HasBranch || b.Use == 0 {
		return 0
	}
	return float64(b.Taken) / float64(b.Use)
}

// Region is an optimized region dumped into an INIP snapshot: its kind,
// entry, member blocks and (implicitly, via -1 successors) its exits.
type Region struct {
	ID     int           `json:"id"`
	Kind   RegionKind    `json:"kind"`
	Entry  int           `json:"entry"` // ID of the entry RegionBlock
	Blocks []RegionBlock `json:"blocks"`
	// ContinuousLP, when HasContinuousLP is set, is the loop-back
	// probability collected continuously by lightweight instrumentation
	// in the optimized code (the extension of the paper's reference
	// [21]); it supersedes the frozen-counter estimate for loop
	// regions.
	ContinuousLP    float64 `json:"continuous_lp,omitempty"`
	HasContinuousLP bool    `json:"has_continuous_lp,omitempty"`
}

// EntryBlock returns the entry block instance.
func (r *Region) EntryBlock() *RegionBlock { return r.BlockByID(r.Entry) }

// Index returns the position of the first member with the given ID, or
// -1.
func (r *Region) Index(id int) int {
	for i := range r.Blocks {
		if r.Blocks[i].ID == id {
			return i
		}
	}
	return -1
}

// BlockByID returns the member with the given ID, or nil.
func (r *Region) BlockByID(id int) *RegionBlock {
	if i := r.Index(id); i >= 0 {
		return &r.Blocks[i]
	}
	return nil
}

// Snapshot is the complete profile output of one run.
type Snapshot struct {
	// Program and Input identify the benchmark binary and which input
	// tape it ran with (e.g. "ref", "train").
	Program string `json:"program"`
	Input   string `json:"input"`
	// Threshold is the retranslation threshold T for INIP(T) runs and
	// 0 for unoptimized (AVEP / train) runs.
	Threshold uint64 `json:"threshold"`
	// Optimized reports whether the optimization phase was enabled.
	Optimized bool `json:"optimized"`
	// Blocks holds per-address counters: end-of-run counters for
	// blocks never placed in a region (and for every block of an
	// unoptimized run).
	Blocks map[int]*Block `json:"blocks"`
	// Regions holds the optimized regions with frozen counters, in
	// formation order. Empty for unoptimized runs.
	Regions []*Region `json:"regions,omitempty"`
	// ProfilingOps is the total number of profiling counter updates
	// performed (the quantity of the paper's Figure 18).
	ProfilingOps uint64 `json:"profiling_ops"`
	// BlocksExecuted is the total number of dynamic block entries.
	BlocksExecuted uint64 `json:"blocks_executed"`
	// Instructions is the total number of guest instructions executed.
	Instructions uint64 `json:"instructions"`
	// Cycles is the simulated cost of the run under the performance
	// model (0 when the model is disabled).
	Cycles uint64 `json:"cycles,omitempty"`
}

// NewSnapshot returns an empty snapshot for the given run identity.
func NewSnapshot(program, input string, threshold uint64, optimized bool) *Snapshot {
	return &Snapshot{
		Program:   program,
		Input:     input,
		Threshold: threshold,
		Optimized: optimized,
		Blocks:    make(map[int]*Block),
	}
}

// BlockAddrs returns the sorted addresses present in Blocks.
func (s *Snapshot) BlockAddrs() []int {
	addrs := make([]int, 0, len(s.Blocks))
	for a := range s.Blocks {
		addrs = append(addrs, a)
	}
	sort.Ints(addrs)
	return addrs
}

// Save writes the snapshot as JSON.
func (s *Snapshot) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// LoadSnapshot reads a snapshot written by Save.
func LoadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("profile: decode snapshot: %w", err)
	}
	if s.Blocks == nil {
		s.Blocks = make(map[int]*Block)
	}
	return &s, nil
}

// Dump renders a human-readable listing, for the offline tool and
// debugging.
func (s *Snapshot) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s input %s threshold %d optimized %v\n", s.Program, s.Input, s.Threshold, s.Optimized)
	fmt.Fprintf(&b, "blocks executed %d, instructions %d, profiling ops %d\n", s.BlocksExecuted, s.Instructions, s.ProfilingOps)
	for _, addr := range s.BlockAddrs() {
		blk := s.Blocks[addr]
		if blk.HasBranch {
			fmt.Fprintf(&b, "block %6d use %10d taken %10d bp %.4f\n", addr, blk.Use, blk.Taken, blk.BranchProb())
		} else {
			fmt.Fprintf(&b, "block %6d use %10d\n", addr, blk.Use)
		}
	}
	for _, r := range s.Regions {
		fmt.Fprintf(&b, "region %d kind %s entry %d\n", r.ID, r.Kind, r.Entry)
		for i := range r.Blocks {
			rb := &r.Blocks[i]
			fmt.Fprintf(&b, "  id %4d addr %6d use %8d taken %8d next(t=%d f=%d)\n",
				rb.ID, rb.Addr, rb.Use, rb.Taken, rb.TakenNext, rb.FallNext)
		}
	}
	return b.String()
}

// Validate checks snapshot invariants: region entries resolve, successor
// IDs stay within their region, and unoptimized snapshots carry no
// regions.
func (s *Snapshot) Validate() error {
	if !s.Optimized && len(s.Regions) > 0 {
		return fmt.Errorf("profile: unoptimized snapshot has %d regions", len(s.Regions))
	}
	for _, r := range s.Regions {
		if r.EntryBlock() == nil {
			return fmt.Errorf("profile: region %d entry %d not among members", r.ID, r.Entry)
		}
		ids := make(map[int]bool, len(r.Blocks))
		for i := range r.Blocks {
			if ids[r.Blocks[i].ID] {
				return fmt.Errorf("profile: region %d has duplicate member id %d", r.ID, r.Blocks[i].ID)
			}
			ids[r.Blocks[i].ID] = true
		}
		for i := range r.Blocks {
			rb := &r.Blocks[i]
			if rb.TakenNext != -1 && !ids[rb.TakenNext] {
				return fmt.Errorf("profile: region %d block %d taken successor %d not a member", r.ID, rb.ID, rb.TakenNext)
			}
			if rb.FallNext != -1 && !ids[rb.FallNext] {
				return fmt.Errorf("profile: region %d block %d fall successor %d not a member", r.ID, rb.ID, rb.FallNext)
			}
		}
	}
	return nil
}
