package study

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/profile"
	"repro/internal/spec"
)

// ExtensionRow is one benchmark's fixed-vs-adaptive comparison in the
// section-5 extension experiment.
type ExtensionRow struct {
	Name  string
	Class spec.Class
	// Side-exit rate per region entry, fixed vs adaptive translator.
	FixedSideExitRate    float64
	AdaptiveSideExitRate float64
	// Dissolved regions in the adaptive run.
	Dissolved int
	// Simulated relative performance: fixed cycles / adaptive cycles
	// (above 1 means adaptation pays off).
	AdaptiveSpeedup float64
	// Loop-back mismatch against AVEP with frozen counters vs with
	// continuous trip-count collection.
	FrozenLPMismatch     float64
	ContinuousLPMismatch float64
}

// ExtensionResults holds the extension experiment's rows.
type ExtensionResults struct {
	Threshold uint64
	Rows      []ExtensionRow
}

// RunExtensions executes the paper's section-5 proposals on the given
// benchmarks (default: the phased members plus a stationary control) at
// one paper-unit retranslation threshold:
//
//   - adaptive retranslation: regions whose side-exit rate shows a
//     behaviour change are dissolved and rebuilt from fresh profiles;
//   - continuous trip-count profiling: loop regions keep lightweight
//     loop-back instrumentation alive, replacing the frozen trip-count
//     prediction.
func RunExtensions(benches []*spec.Benchmark, scale, paperT float64) (*ExtensionResults, error) {
	cfg, err := section5Config(benches, []string{"mcf", "gzip", "crafty", "wupwise", "vortex"}, scale, paperT)
	if err != nil {
		return nil, err
	}
	threshold := EffectiveThreshold(paperT, cfg.Scale)
	out := &ExtensionResults{Threshold: threshold}
	for _, b := range cfg.Benchmarks {
		adaptive := core.TranslatorConfig("ref", threshold, true)
		adaptive.Adaptive = true
		continuous := core.TranslatorConfig("ref", threshold, true)
		continuous.ContinuousTripCount = true
		snaps, stats, err := runVariants(b, cfg.Scale, core.TranslatorConfig("ref", threshold, true), adaptive, continuous)
		if err != nil {
			return nil, err
		}
		fixedSum, _, err := core.Compare(snaps[1], snaps[0])
		if err != nil {
			return nil, err
		}
		contSum, _, err := core.Compare(snaps[3], snaps[0])
		if err != nil {
			return nil, err
		}
		fixedStats, adaptStats := stats[1], stats[2]
		row := ExtensionRow{
			Name: b.Name, Class: b.Class,
			Dissolved:            adaptStats.RegionsDissolved,
			FrozenLPMismatch:     fixedSum.LPMismatch,
			ContinuousLPMismatch: contSum.LPMismatch,
		}
		if fixedStats.RegionEntries > 0 {
			row.FixedSideExitRate = float64(fixedStats.RegionSideExits) / float64(fixedStats.RegionEntries)
		}
		if adaptStats.RegionEntries > 0 {
			row.AdaptiveSideExitRate = float64(adaptStats.RegionSideExits) / float64(adaptStats.RegionEntries)
		}
		if adaptStats.Cycles > 0 {
			row.AdaptiveSpeedup = fixedStats.Cycles / adaptStats.Cycles
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// section5Config judges a section-5 experiment's inputs by the study's
// own rules, exactly as a figure run's: the selected benchmarks (def
// names them when none are selected), the scale (0 selects 1) and the
// paper-unit thresholds the experiment takes from its caller.
func section5Config(benches []*spec.Benchmark, def []string, scale float64, paperT ...float64) (Config, error) {
	if len(benches) == 0 {
		for _, name := range def {
			benches = append(benches, spec.ByName(name))
		}
	}
	cfg := Config{Scale: scale, Thresholds: paperT, Benchmarks: benches}
	cfg.defaults()
	return cfg, cfg.Validate()
}

// runVariants runs one benchmark's section-5 variants as followers of
// one shared reference trace: it builds the ref input once and runs
// AVEP, then every variant, through one dbt.RunMulti. Element 0 of each
// result is AVEP's and element i+1 is variants[i]'s.
func runVariants(b *spec.Benchmark, scale float64, variants ...dbt.Config) ([]*profile.Snapshot, []*dbt.RunStats, error) {
	img, tape, err := b.Build("ref", scale)
	if err != nil {
		return nil, nil, err
	}
	cfgs := append([]dbt.Config{core.TranslatorConfig("ref", 0, false)}, variants...)
	snaps, stats, err := dbt.RunMulti(img, tape, cfgs)
	if err != nil {
		return nil, nil, fmt.Errorf("study: %s: %w", b.Name, err)
	}
	return snaps, stats, nil
}

// Render formats the extension results as a text table.
func (e *ExtensionResults) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "section-5 extensions at T=%d: adaptive retranslation and continuous trip counts\n", e.Threshold)
	fmt.Fprintf(&b, "%-10s %-6s %14s %14s %10s %9s %12s %12s\n",
		"bench", "class", "sideExit(fix)", "sideExit(ada)", "dissolved", "speedup", "lpMis(froz)", "lpMis(cont)")
	for _, r := range e.Rows {
		fmt.Fprintf(&b, "%-10s %-6s %14.3f %14.3f %10d %9.3f %12.1f%% %12.1f%%\n",
			r.Name, r.Class, r.FixedSideExitRate, r.AdaptiveSideExitRate,
			r.Dissolved, r.AdaptiveSpeedup,
			r.FrozenLPMismatch*100, r.ContinuousLPMismatch*100)
	}
	return b.String()
}
