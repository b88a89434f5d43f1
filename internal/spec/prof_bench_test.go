package spec

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dbt"
)

// BenchmarkMcfReference replays mcf's reference trace, the study's
// longest unit, the way a study at scale 0.005 runs it: an AVEP driver
// and one follower per distinct effective threshold of the default
// ladder, every config built by core.TranslatorConfig. The rungs are
// literals (study.EffectiveLadder(study.AllThresholds, 0.005)), since
// study imports this package. ns/context-block is the wall time per
// block per profiling context, guest execution included.
func BenchmarkMcfReference(b *testing.B) {
	const scale = 0.005
	rungs := []uint64{1, 3, 5, 10, 25, 50, 100, 200, 400, 800, 5000, 20000}
	img, _, err := ByName("mcf").Build("ref", scale)
	if err != nil {
		b.Fatal(err)
	}
	target := ByName("mcf").Target(scale)
	b.ReportAllocs()
	b.ResetTimer()
	var blocks uint64
	for i := 0; i < b.N; i++ {
		// Fresh configs per run: each carries its own perf accumulator.
		cfgs := []dbt.Config{core.TranslatorConfig("ref", 0, false)}
		for _, t := range rungs {
			cfgs = append(cfgs, core.TranslatorConfig("ref", t, true))
		}
		tape, err := target.NewTape("ref")
		if err != nil {
			b.Fatal(err)
		}
		_, statss, err := dbt.RunMulti(img, tape, cfgs)
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range statss {
			blocks += st.BlocksExecuted
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(blocks), "ns/context-block")
}
