package study

import (
	"strings"
	"testing"

	"repro/internal/spec"
)

// tinyStudy runs a reduced study (few benchmarks, short ladder, small
// scale) shared across tests.
func tinyStudy(t *testing.T, names ...string) *Results {
	t.Helper()
	var benches []*spec.Benchmark
	for _, n := range names {
		b := spec.ByName(n)
		if b == nil {
			t.Fatalf("unknown benchmark %q", n)
		}
		benches = append(benches, b)
	}
	res, err := Run(Config{
		Scale:      0.001,
		Thresholds: []float64{1, 100, 1e3, 1e4, 1e6},
		Benchmarks: benches,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunProducesAlignedSeries(t *testing.T) {
	res := tinyStudy(t, "vortex", "swim")
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	if len(res.PaperT) != 5 {
		t.Fatalf("paperT = %v", res.PaperT)
	}
	for _, s := range res.Series {
		if len(s.PerT) != len(res.PaperT) {
			t.Fatalf("%s: %d results for %d thresholds", s.Name, len(s.PerT), len(res.PaperT))
		}
		if s.TrainOps == 0 {
			t.Fatalf("%s: no train ops", s.Name)
		}
		if s.AVEPCycles <= 0 {
			t.Fatalf("%s: no AVEP cycles", s.Name)
		}
		for i, tr := range s.PerT {
			if tr.Cycles <= 0 {
				t.Fatalf("%s @%v: no cycles", s.Name, res.PaperT[i])
			}
		}
	}
	if res.ByName("vortex") == nil || res.ByName("nope") != nil {
		t.Fatal("ByName broken")
	}
}

func TestEffectiveThresholdClamps(t *testing.T) {
	if EffectiveThreshold(100, 0.001) != 1 {
		t.Fatal("sub-1 threshold must clamp to 1")
	}
	if EffectiveThreshold(1e6, 0.01) != 10000 {
		t.Fatal("scaling wrong")
	}
}

func TestFiguresComplete(t *testing.T) {
	res := tinyStudy(t, "vortex", "swim")
	figs := res.Figures()
	if len(figs) != 11 {
		t.Fatalf("figures = %d, want 11 (Figures 8-18)", len(figs))
	}
	seen := map[string]bool{}
	for _, f := range figs {
		if seen[f.ID] {
			t.Fatalf("duplicate figure %s", f.ID)
		}
		seen[f.ID] = true
		if len(f.X) == 0 {
			t.Fatalf("%s has empty x axis", f.ID)
		}
		for _, s := range f.Series {
			if len(s.Y) != len(f.X) {
				t.Fatalf("%s series %q: %d points for %d x", f.ID, s.Label, len(s.Y), len(f.X))
			}
		}
		if f.String() == "" {
			t.Fatalf("%s has no string form", f.ID)
		}
	}
	for _, id := range []string{"fig8", "fig17", "fig18"} {
		if _, ok := res.FigureByID(id); !ok {
			t.Fatalf("FigureByID(%s) missed", id)
		}
	}
	if _, ok := res.FigureByID("fig99"); ok {
		t.Fatal("FigureByID invented a figure")
	}
}

func TestAccuracyFiguresExcludeSmallThresholds(t *testing.T) {
	res := tinyStudy(t, "vortex")
	f8 := res.Figure8()
	for _, x := range f8.X {
		if x < 100 {
			t.Fatalf("fig8 includes T=%v < 100", x)
		}
	}
	f17 := res.Figure17()
	if f17.X[0] != 1 {
		t.Fatalf("fig17 must start at the base threshold 1, got %v", f17.X[0])
	}
}

func TestFigure17BaseIsOne(t *testing.T) {
	res := tinyStudy(t, "vortex", "swim")
	f := res.Figure17()
	for _, s := range f.Series {
		if s.Label == "fp" || s.Label == "int" {
			if s.Y[0] < 0.999 || s.Y[0] > 1.001 {
				t.Fatalf("fig17 %s at base = %v, want 1.0", s.Label, s.Y[0])
			}
		}
	}
}

func TestFigure18TrainNormalization(t *testing.T) {
	res := tinyStudy(t, "vortex", "swim")
	f := res.Figure18()
	// Small thresholds must need a tiny fraction of the training ops;
	// the largest threshold approaches (or equals) the training level.
	var intSeries, fpSeries Series
	for _, s := range f.Series {
		switch s.Label {
		case "int":
			intSeries = s
		case "fp":
			fpSeries = s
		}
	}
	for _, s := range []Series{intSeries, fpSeries} {
		if s.Y[0] > 0.25 {
			t.Fatalf("normalized ops at T=100: %v, want small", s.Y[0])
		}
		last := s.Y[len(s.Y)-1]
		if last < s.Y[0] {
			t.Fatalf("normalized ops decreased with T: %v", s.Y)
		}
	}
}

func TestPerBenchFiguresLabelled(t *testing.T) {
	res := tinyStudy(t, "vortex", "gzip", "swim")
	f9 := res.Figure9()
	labels := map[string]bool{}
	for _, s := range f9.Series {
		labels[s.Label] = true
	}
	if !labels["vortex"] || !labels["gzip"] || labels["swim"] {
		t.Fatalf("fig9 labels wrong: %v", labels)
	}
	f12 := res.Figure12()
	if len(f12.Series) != 1 || f12.Series[0].Label != "swim" {
		t.Fatalf("fig12 should hold only FP benchmarks: %+v", f12.Series)
	}
}

func TestProgressOutput(t *testing.T) {
	var sb strings.Builder
	_, err := Run(Config{
		Scale:      0.001,
		Thresholds: []float64{100},
		Benchmarks: []*spec.Benchmark{spec.ByName("vortex")},
		Progress:   &sb,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "vortex") {
		t.Fatalf("progress output missing benchmark: %q", sb.String())
	}
}

func TestFigures13And14CarryTrainReferences(t *testing.T) {
	res := tinyStudy(t, "vortex", "swim")
	for _, fig := range []Figure{res.Figure13(), res.Figure14()} {
		labels := map[string]bool{}
		for _, s := range fig.Series {
			labels[s.Label] = true
		}
		if !labels["int train*"] || !labels["fp train*"] {
			t.Fatalf("%s lacks offline-region train references: %v", fig.ID, labels)
		}
		if len(fig.Notes) == 0 {
			t.Fatalf("%s lacks the explanatory note", fig.ID)
		}
	}
}

func TestTrainRegionsSummaryPopulated(t *testing.T) {
	res := tinyStudy(t, "vortex")
	s := res.ByName("vortex")
	if !s.TrainRegions.HasRegions {
		t.Fatal("offline train regions not formed")
	}
	if s.TrainRegions.Loops == 0 && s.TrainRegions.Traces == 0 {
		t.Fatal("offline train comparison has no regions at all")
	}
}

// TestThresholdAboveRunIsAVEP is a metamorphic check on spec guests: a
// retranslation threshold no block counter can reach never triggers
// optimization, so INIP(T) is the whole run's profile, which is AVEP.
// Every Sd and mismatch value must then be exactly 0, with no regions
// formed.
func TestThresholdAboveRunIsAVEP(t *testing.T) {
	res, err := Run(Config{
		Scale:      0.001,
		Thresholds: []float64{1e15},
		Benchmarks: []*spec.Benchmark{spec.ByName("gzip"), spec.ByName("mcf"), spec.ByName("swim"), spec.ByName("perlbmk")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		r := s.PerT[0]
		if r.Stats.BlocksExecuted == 0 || r.T <= r.Stats.BlocksExecuted {
			t.Fatalf("%s: threshold %d does not exceed the run's %d blocks", s.Name, r.T, r.Stats.BlocksExecuted)
		}
		m := r.Summary
		if m.SdBP != 0 || m.BPMismatch != 0 || m.HasRegions || m.Traces != 0 || m.Loops != 0 {
			t.Errorf("%s: INIP(T) differs from AVEP: %+v", s.Name, m)
		}
	}
}
