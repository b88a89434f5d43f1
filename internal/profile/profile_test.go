package profile

import (
	"bytes"
	"strings"
	"testing"
)

func sampleSnapshot() *Snapshot {
	s := NewSnapshot("demo", "ref", 500, true)
	s.Blocks[10] = &Block{Addr: 10, End: 12, Use: 100, Taken: 70, HasBranch: true, TakenTarget: 20, FallTarget: 13}
	s.Blocks[20] = &Block{Addr: 20, End: 21, Use: 30, TakenTarget: -1, FallTarget: -1}
	s.Regions = []*Region{
		{
			ID:    0,
			Kind:  RegionLoop,
			Entry: 1,
			Blocks: []RegionBlock{
				{ID: 1, Addr: 30, Use: 500, Taken: 450, HasBranch: true, TakenNext: 2, FallNext: -1, TakenTarget: 40, FallTarget: 33},
				{ID: 2, Addr: 40, Use: 450, Taken: 400, HasBranch: true, TakenNext: 1, FallNext: -1, TakenTarget: 30, FallTarget: 43},
			},
		},
	}
	s.ProfilingOps = 1234
	s.BlocksExecuted = 5000
	s.Instructions = 40000
	return s
}

func TestBranchProb(t *testing.T) {
	b := &Block{Use: 200, Taken: 50, HasBranch: true}
	if got := b.BranchProb(); got != 0.25 {
		t.Fatalf("BranchProb = %v, want 0.25", got)
	}
	if (&Block{Use: 0, HasBranch: true}).BranchProb() != 0 {
		t.Fatal("unexecuted block must report 0")
	}
	if (&Block{Use: 10, Taken: 5}).BranchProb() != 0 {
		t.Fatal("non-branch block must report 0")
	}
	rb := &RegionBlock{Use: 10, Taken: 4, HasBranch: true}
	if rb.BranchProb() != 0.4 {
		t.Fatalf("RegionBlock.BranchProb = %v", rb.BranchProb())
	}
}

func TestRegionLookups(t *testing.T) {
	s := sampleSnapshot()
	r := s.Regions[0]
	if e := r.EntryBlock(); e == nil || e.Addr != 30 {
		t.Fatalf("EntryBlock = %+v", e)
	}
	if b := r.BlockByID(2); b == nil || b.Addr != 40 {
		t.Fatalf("BlockByID(2) = %+v", b)
	}
	if r.BlockByID(99) != nil {
		t.Fatal("BlockByID(99) should be nil")
	}
}

func TestSnapshotSaveLoadRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Program != s.Program || got.Input != s.Input || got.Threshold != s.Threshold || !got.Optimized {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Blocks) != 2 || got.Blocks[10].Taken != 70 || got.Blocks[20].Use != 30 {
		t.Fatalf("blocks mismatch: %+v", got.Blocks)
	}
	if len(got.Regions) != 1 || len(got.Regions[0].Blocks) != 2 {
		t.Fatalf("regions mismatch: %+v", got.Regions)
	}
	if got.Regions[0].Kind != RegionLoop || got.Regions[0].Blocks[1].TakenNext != 1 {
		t.Fatalf("region content mismatch: %+v", got.Regions[0])
	}
	if got.ProfilingOps != 1234 || got.BlocksExecuted != 5000 {
		t.Fatalf("counters mismatch: %+v", got)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("Validate after round trip: %v", err)
	}
}

func TestLoadSnapshotGarbage(t *testing.T) {
	if _, err := LoadSnapshot(strings.NewReader("not json")); err == nil {
		t.Fatal("LoadSnapshot accepted garbage")
	}
}

func TestLoadSnapshotNilBlocks(t *testing.T) {
	got, err := LoadSnapshot(strings.NewReader(`{"program":"p","input":"ref","threshold":0,"optimized":false}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Blocks == nil {
		t.Fatal("Blocks must be non-nil after load")
	}
}

func TestValidateCatchesBadEntry(t *testing.T) {
	s := sampleSnapshot()
	s.Regions[0].Entry = 99
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted dangling region entry")
	}
}

func TestValidateCatchesBadSuccessor(t *testing.T) {
	s := sampleSnapshot()
	s.Regions[0].Blocks[0].TakenNext = 77
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted dangling successor")
	}
}

func TestValidateCatchesDuplicateIDs(t *testing.T) {
	s := sampleSnapshot()
	s.Regions[0].Blocks[1].ID = 1
	s.Regions[0].Blocks[1].TakenNext = -1
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted duplicate member IDs")
	}
}

func TestValidateRejectsRegionsOnUnoptimized(t *testing.T) {
	s := sampleSnapshot()
	s.Optimized = false
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted regions in unoptimized snapshot")
	}
}

func TestTotalUseIncludesRegions(t *testing.T) {
	s := sampleSnapshot()
	// 100 + 30 (blocks) + 500 + 450 (region members).
	if got := s.TotalUse(); got != 1080 {
		t.Fatalf("TotalUse = %d, want 1080", got)
	}
}

func TestBlockAddrsSorted(t *testing.T) {
	s := sampleSnapshot()
	addrs := s.BlockAddrs()
	if len(addrs) != 2 || addrs[0] != 10 || addrs[1] != 20 {
		t.Fatalf("BlockAddrs = %v", addrs)
	}
}

func TestLookupUse(t *testing.T) {
	s := sampleSnapshot()
	if s.LookupUse(10) != 100 || s.LookupUse(999) != 0 {
		t.Fatal("LookupUse wrong")
	}
}

func TestDumpMentionsEverything(t *testing.T) {
	text := sampleSnapshot().Dump()
	for _, want := range []string{"program demo", "threshold 500", "block", "bp 0.7000", "region 0 kind loop", "addr     40"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Dump missing %q:\n%s", want, text)
		}
	}
}

func TestRegionKindString(t *testing.T) {
	if RegionTrace.String() != "trace" || RegionLoop.String() != "loop" {
		t.Fatal("RegionKind.String wrong")
	}
}

// TestRegionIndex: Index finds a member by copy ID, whether the region
// numbers its copies consecutively, as the former does, or not, and
// reports -1 for an ID no member has.
func TestRegionIndex(t *testing.T) {
	for _, ids := range [][]int{{40, 41, 42, 43}, {7, 3, 12, 5}, {}} {
		r := &Region{}
		for _, id := range ids {
			r.Blocks = append(r.Blocks, RegionBlock{ID: id})
		}
		for i, id := range ids {
			if got := r.Index(id); got != i {
				t.Errorf("ids %v: Index(%d) = %d, want %d", ids, id, got, i)
			}
		}
		for _, id := range []int{-1, 0, 44, 6, 1 << 62} {
			if got := r.Index(id); got != -1 {
				t.Errorf("ids %v: Index(%d) = %d, want -1", ids, id, got)
			}
		}
	}
}
