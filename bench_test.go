// Package repro's top-level benchmarks regenerate every evaluation
// figure of the paper (Figures 8-18) and run the ablation studies named
// in DESIGN.md.
//
// The figure benches share one study execution (a representative
// 8-benchmark subset at scale 0.05, cached across benches) and measure
// figure regeneration over its results; each bench also reports the
// figure's headline quantities as benchmark metrics so `go test
// -bench=.` output doubles as a results table. For full-resolution
// figures over the whole suite, run cmd/inipstudy.
package repro

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/interp"
	"repro/internal/linalg"
	"repro/internal/perfmodel"
	"repro/internal/region"
	"repro/internal/rng"
	"repro/internal/spec"
	"repro/internal/study"
)

// benchScale keeps the shared study fast enough for `go test -bench`;
// thresholds and run lengths shrink together, so the figures keep their
// shapes at reduced resolution (see internal/study).
const benchScale = 0.05

var (
	studyOnce sync.Once
	studyRes  *study.Results
	studyErr  error
)

// sharedStudy runs the subset study once per test binary invocation.
func sharedStudy(b *testing.B) *study.Results {
	b.Helper()
	studyOnce.Do(func() {
		names := []string{"gzip", "mcf", "vpr", "vortex", "perlbmk", "swim", "wupwise", "lucas"}
		var benches []*spec.Benchmark
		for _, n := range names {
			benches = append(benches, spec.ByName(n))
		}
		studyRes, studyErr = study.Run(study.Config{
			Scale:      benchScale,
			Benchmarks: benches,
		})
	})
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return studyRes
}

// reportSeries attaches the first and last point of each series as
// benchmark metrics.
func reportSeries(b *testing.B, fig study.Figure) {
	for _, s := range fig.Series {
		if len(s.Y) == 0 {
			continue
		}
		label := strings.ReplaceAll(s.Label, " ", "_")
		b.ReportMetric(s.Y[0], label+"@lowT")
		b.ReportMetric(s.Y[len(s.Y)-1], label+"@highT")
	}
}

func benchFigure(b *testing.B, id string, gen func(*study.Results) study.Figure) {
	res := sharedStudy(b)
	var fig study.Figure
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = gen(res)
	}
	b.StopTimer()
	if fig.ID != id {
		b.Fatalf("generated %s, want %s", fig.ID, id)
	}
	if len(fig.Series) == 0 || len(fig.X) == 0 {
		b.Fatalf("%s is empty", id)
	}
	reportSeries(b, fig)
}

// BenchmarkFigure08 regenerates "Standard deviations of branch
// probabilities" (suite averages + train references).
func BenchmarkFigure08(b *testing.B) {
	benchFigure(b, "fig8", (*study.Results).Figure8)
}

// BenchmarkFigure09 regenerates the per-benchmark INT Sd.BP curves.
func BenchmarkFigure09(b *testing.B) {
	benchFigure(b, "fig9", (*study.Results).Figure9)
}

// BenchmarkFigure10 regenerates "Branch probability mismatch rates".
func BenchmarkFigure10(b *testing.B) {
	benchFigure(b, "fig10", (*study.Results).Figure10)
}

// BenchmarkFigure11 regenerates the per-benchmark INT mismatch curves.
func BenchmarkFigure11(b *testing.B) {
	benchFigure(b, "fig11", (*study.Results).Figure11)
}

// BenchmarkFigure12 regenerates the per-benchmark FP mismatch curves.
func BenchmarkFigure12(b *testing.B) {
	benchFigure(b, "fig12", (*study.Results).Figure12)
}

// BenchmarkFigure13 regenerates "Standard deviation of completion
// probabilities".
func BenchmarkFigure13(b *testing.B) {
	benchFigure(b, "fig13", (*study.Results).Figure13)
}

// BenchmarkFigure14 regenerates "Standard deviation of loop-back
// probabilities".
func BenchmarkFigure14(b *testing.B) {
	benchFigure(b, "fig14", (*study.Results).Figure14)
}

// BenchmarkFigure15 regenerates "Loop-back probability mismatch rate".
func BenchmarkFigure15(b *testing.B) {
	benchFigure(b, "fig15", (*study.Results).Figure15)
}

// BenchmarkFigure16 regenerates the per-benchmark INT loop-back
// mismatch curves.
func BenchmarkFigure16(b *testing.B) {
	benchFigure(b, "fig16", (*study.Results).Figure16)
}

// BenchmarkFigure17 regenerates "Performance impact of initial
// profiles".
func BenchmarkFigure17(b *testing.B) {
	benchFigure(b, "fig17", (*study.Results).Figure17)
}

// BenchmarkFigure18 regenerates "Profiling operations required for
// training run and for initial profiles".
func BenchmarkFigure18(b *testing.B) {
	benchFigure(b, "fig18", (*study.Results).Figure18)
}

// --- Ablations (DESIGN.md section 5) ---

// ablationRun executes gzip once under the given translator config and
// returns the comparison summary and stats.
func ablationRun(b *testing.B, mutate func(*dbt.Config)) (float64, *dbt.RunStats) {
	b.Helper()
	bench := spec.ByName("gzip")
	img, tape, err := bench.Build("ref", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	avep, _, err := dbt.Run(img, tape, dbt.Config{Optimize: false})
	if err != nil {
		b.Fatal(err)
	}
	img2, tape2, err := bench.Build("ref", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dbt.Config{Optimize: true, Threshold: 100, RegisterTwice: true}
	mutate(&cfg)
	inip, stats, err := dbt.Run(img2, tape2, cfg)
	if err != nil {
		b.Fatal(err)
	}
	sum, _, err := core.Compare(inip, avep)
	if err != nil {
		b.Fatal(err)
	}
	return sum.SdBP, stats
}

// BenchmarkAblationTrigger contrasts the paper's two optimization
// triggers: pool-size only vs register-twice.
func BenchmarkAblationTrigger(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sdPool, statsPool := ablationRun(b, func(c *dbt.Config) { c.RegisterTwice = false; c.PoolTrigger = 8 })
		sdTwice, statsTwice := ablationRun(b, func(c *dbt.Config) { c.RegisterTwice = true; c.PoolTrigger = 1 << 30 })
		b.ReportMetric(sdPool, "SdBP/pool")
		b.ReportMetric(sdTwice, "SdBP/twice")
		b.ReportMetric(float64(statsPool.OptimizationWaves), "waves/pool")
		b.ReportMetric(float64(statsTwice.OptimizationWaves), "waves/twice")
	}
}

// BenchmarkAblationMinProb sweeps the region former's minimum branch
// probability (the paper's reference value is 0.7).
func BenchmarkAblationMinProb(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, minProb := range []float64{0.5, 0.7, 0.9} {
			_, stats := ablationRun(b, func(c *dbt.Config) {
				c.Region = region.Config{MinProb: minProb, MaxBlocks: 16, MinUse: c.Threshold / 2, Diamonds: true}
			})
			label := fmt.Sprintf("regions/minProb%.1f", minProb)
			b.ReportMetric(float64(stats.RegionsFormed), label)
			completions := float64(stats.RegionCompletions+stats.RegionLoopBacks) /
				float64(max64(stats.RegionEntries, 1))
			b.ReportMetric(completions, fmt.Sprintf("onTrace/minProb%.1f", minProb))
		}
	}
}

func max64(v uint64, floor uint64) uint64 {
	if v < floor {
		return floor
	}
	return v
}

// BenchmarkAblationDiamonds contrasts region formation with and without
// diamond (hyperblock) absorption at unbiased branches.
func BenchmarkAblationDiamonds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, diamonds := range []bool{true, false} {
			_, stats := ablationRun(b, func(c *dbt.Config) {
				c.Region = region.Config{MinProb: 0.7, MaxBlocks: 16, MinUse: c.Threshold / 2, Diamonds: diamonds}
			})
			label := "off"
			if diamonds {
				label = "on"
			}
			b.ReportMetric(float64(stats.RegionsFormed), "regions/diamonds-"+label)
			b.ReportMetric(float64(stats.RegionCompletions), "completions/diamonds-"+label)
		}
	}
}

// BenchmarkAblationFreeze contrasts counter freezing at optimization
// (IA32EL behaviour: all INIP counts land in [T,2T]) with continued
// counting.
func BenchmarkAblationFreeze(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sdFrozen, _ := ablationRun(b, func(c *dbt.Config) { c.DisableFreeze = false })
		sdLive, _ := ablationRun(b, func(c *dbt.Config) { c.DisableFreeze = true })
		b.ReportMetric(sdFrozen, "SdBP/frozen")
		b.ReportMetric(sdLive, "SdBP/live")
	}
}

// BenchmarkAblationSolver contrasts the NAVEP frequency-recovery
// solvers: Gauss-Seidel iteration vs dense LU, on flow systems of the
// size the normalizer produces.
func BenchmarkAblationSolver(b *testing.B) {
	r := rng.New(42)
	n := 120
	dense := linalg.NewMatrix(n, n)
	sp := linalg.NewSparse(n)
	rhs := make([]float64, n)
	for i := 0; i < n; i++ {
		row := 0.0
		for j := 0; j < n; j++ {
			if i != j && r.Float64() < 0.05 {
				v := r.Float64()
				dense.Set(i, j, -v)
				sp.Add(i, j, -v)
				row += v
			}
		}
		dense.Set(i, i, row+1)
		sp.Add(i, i, row+1)
		rhs[i] = r.Float64() * 1000
	}
	b.Run("gauss-seidel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := linalg.SolveGaussSeidel(sp, rhs, linalg.GaussSeidelOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense-lu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := linalg.SolveDense(dense, rhs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// runSection5 runs a Section5 study of the named benchmarks on the
// three-rung ladder the section-5 tables read.
func runSection5(scale float64, names ...string) (*study.Results, error) {
	cfg := study.Config{Scale: scale, Thresholds: study.Section5Thresholds, Section5: true}
	for _, n := range names {
		cfg.Benchmarks = append(cfg.Benchmarks, spec.ByName(n))
	}
	return study.Run(cfg)
}

// BenchmarkExtensionAdaptive runs the section-5 extension experiment
// (adaptive retranslation + continuous trip counts) on the phased
// poster-child benchmark and its stationary control.
func BenchmarkExtensionAdaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runSection5(benchScale, "mcf", "vortex")
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Extensions().Rows {
			if row.Name == "mcf" {
				b.ReportMetric(row.AdaptiveSpeedup, "mcfSpeedup")
				b.ReportMetric(float64(row.Dissolved), "mcfDissolved")
				b.ReportMetric(row.ContinuousLPMismatch, "mcfLpMisCont")
				b.ReportMetric(row.FrozenLPMismatch, "mcfLpMisFrozen")
			}
		}
	}
}

// BenchmarkExtensionConvergence evaluates the threshold-selection
// heuristic (register on estimate convergence) against fixed thresholds
// on a stationary benchmark: the metric pair to watch is accuracy
// (SdBP) per unit of profiling work (opsVsTrain).
func BenchmarkExtensionConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runSection5(benchScale, "vortex")
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Convergence().Rows {
			switch row.Policy {
			case "fixed T=10k":
				b.ReportMetric(row.SdBP, "sdBP/fixed10k")
				b.ReportMetric(row.OpsVsTrain, "ops/fixed10k")
			case "converge eps=0.03 cap=40k":
				b.ReportMetric(row.SdBP, "sdBP/converge")
				b.ReportMetric(row.OpsVsTrain, "ops/converge")
			}
		}
	}
}

// BenchmarkEndToEndBenchmark measures a complete three-way study of one
// benchmark (AVEP + train + one threshold), the unit of work behind
// every figure point.
func BenchmarkEndToEndBenchmark(b *testing.B) {
	bench := spec.ByName("vortex")
	for i := 0; i < b.N; i++ {
		if _, err := core.RunBenchmark(bench.Target(benchScale), core.Options{
			Thresholds: []uint64{study.EffectiveThreshold(2000, benchScale)},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslatorThroughput measures raw translator block execution
// speed (no optimization), the simulator substrate's cost driver.
func BenchmarkTranslatorThroughput(b *testing.B) {
	bench := spec.ByName("swim")
	img, _, err := bench.Build("ref", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	var instrs uint64
	for i := 0; i < b.N; i++ {
		_, stats, err := dbt.Run(img, interp.NewUniformTape("swim/ref"), dbt.Config{})
		if err != nil {
			b.Fatal(err)
		}
		instrs += stats.Instructions
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
	}
}

// BenchmarkThresholdLadder measures a full reference sweep (AVEP plus a
// five-threshold INIP ladder, one guest run feeding every profiling
// context) over one benchmark.
func BenchmarkThresholdLadder(b *testing.B) {
	bench := spec.ByName("vortex")
	thresholds := make([]uint64, 0, 5)
	for _, pt := range []float64{100, 1e3, 1e4, 1e5, 1e6} {
		thresholds = append(thresholds, study.EffectiveThreshold(pt, benchScale))
	}
	for i := 0; i < b.N; i++ {
		s := core.NewScheduler(1)
		core.ScheduleBenchmark(s, bench.Target(benchScale), core.Options{Thresholds: thresholds}, func(*core.BenchmarkResult) {})
		if err := s.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfModel measures the cycle accumulator in isolation.
func BenchmarkPerfModel(b *testing.B) {
	acc := perfmodel.NewAccumulator(perfmodel.DefaultParams())
	for i := 0; i < b.N; i++ {
		acc.ChargeBlocks(perfmodel.BlockSums{Quick: 7, Profiled: 1, Optimized: 7})
		acc.ChargeSideExits(1)
	}
	acc.Finish()
}
