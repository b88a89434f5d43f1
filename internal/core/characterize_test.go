package core

import (
	"strings"
	"testing"

	"repro/internal/navep"
)

func TestCharacterizeSplitsCauses(t *testing.T) {
	norm := &navep.Result{
		Blocks: []navep.BlockItem{
			// Matching bucket: ignored.
			{Addr: 1, CopyID: -1, BT: 0.9, BM: 0.95, W: 100},
			// Mismatch far beyond noise at T=1000: systematic.
			{Addr: 2, CopyID: -1, BT: 0.95, BM: 0.20, W: 500},
			// Mismatch across the .7 boundary, within 3 sigma at a tiny
			// window: sampling. sigma(BM=.69, T=25) ~ 0.0925, |d|=0.05.
			{Addr: 3, CopyID: -1, BT: 0.74, BM: 0.69, W: 50},
		},
	}
	// At T=25 the small deviation is explicable by noise.
	c := Characterize(norm, 25)
	if len(c.Mispredicts) != 2 {
		t.Fatalf("mispredicts = %d, want 2", len(c.Mispredicts))
	}
	if c.Mispredicts[0].Addr != 2 || c.Mispredicts[0].Kind != MispredictSystematic {
		t.Fatalf("heaviest mispredict wrong: %+v", c.Mispredicts[0])
	}
	if c.Mispredicts[1].Addr != 3 || c.Mispredicts[1].Kind != MispredictSampling {
		t.Fatalf("small mispredict wrong: %+v", c.Mispredicts[1])
	}
	if c.SystematicWeight != 500 || c.SamplingWeight != 50 {
		t.Fatalf("weights: sys=%v sam=%v", c.SystematicWeight, c.SamplingWeight)
	}
	if c.TotalWeight != 650 {
		t.Fatalf("total weight %v", c.TotalWeight)
	}

	// At T=100000 the same small deviation is far beyond noise.
	c2 := Characterize(norm, 100000)
	for _, m := range c2.Mispredicts {
		if m.Kind != MispredictSystematic {
			t.Fatalf("at a huge window all mismatches are systematic: %+v", m)
		}
	}
}

func TestCharacterizeEndToEndPhasedVsStationary(t *testing.T) {
	// The phased program's mispredicted branch must classify as
	// systematic; the stationary program should have (nearly) no
	// systematic mispredictions.
	phased := BuildFromAsm("phased", phasedSrc(60000, 15000, 7782, 819))
	_, norm := normalizedAt(t, phased, 500)
	c := Characterize(norm, 500)
	if c.SystematicWeight == 0 {
		t.Fatal("phased program shows no systematic mispredictions")
	}
	if c.SystematicWeight < c.SamplingWeight {
		t.Fatalf("phase flip should dominate: sys=%v sam=%v", c.SystematicWeight, c.SamplingWeight)
	}

	stationary := BuildFromAsm("stationary", stationarySrc(60000, 6144))
	_, norm2 := normalizedAt(t, stationary, 500)
	c2 := Characterize(norm2, 500)
	if c2.SystematicWeight > c2.TotalWeight*0.02 {
		t.Fatalf("stationary program shows %.1f%% systematic weight", 100*c2.SystematicWeight/c2.TotalWeight)
	}
}

func TestCharacterizeRender(t *testing.T) {
	norm := &navep.Result{
		Blocks: []navep.BlockItem{
			{Addr: 2, CopyID: -1, BT: 0.95, BM: 0.20, W: 500},
		},
	}
	text := Characterize(norm, 1000).Render(10)
	for _, want := range []string{"systematic", "block", "z="} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
	// Row capping.
	many := &navep.Result{}
	for i := 0; i < 20; i++ {
		many.Blocks = append(many.Blocks, navep.BlockItem{Addr: i, BT: 0.95, BM: 0.2, W: float64(i + 1)})
	}
	capped := Characterize(many, 1000).Render(5)
	if !strings.Contains(capped, "... 15 more") {
		t.Fatalf("row cap missing:\n%s", capped)
	}
}

func TestMispredictKindString(t *testing.T) {
	if MispredictSampling.String() != "sampling" || MispredictSystematic.String() != "systematic" {
		t.Fatal("kind strings wrong")
	}
}
