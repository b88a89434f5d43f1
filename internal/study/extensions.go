package study

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/spec"
)

// The section-5 tables read a Section5 study: ExtensionBenchmarks and
// ConvergenceBenchmarks are their default rows, in table order, and
// Section5Thresholds the ladder rungs their fixed-threshold rows are.
// The extension table's fixed row and its two variants are at
// extensionT.
var (
	ExtensionBenchmarks   = []string{"mcf", "gzip", "crafty", "wupwise", "vortex"}
	ConvergenceBenchmarks = []string{"vortex", "crafty", "gzip"}
	Section5Thresholds    = []float64{500, 2000, 10000}
)

const extensionT = 2000

// section5Variants lowers Config.Section5 to core.Options.Variants, in
// the order the tables read BenchmarkSeries.Variants: the adaptive and
// the continuous-trip-count translator at extensionT, then the
// convergenceVariants.
func section5Variants(scale float64) []dbt.Config {
	t := EffectiveThreshold(extensionT, scale)
	adaptive := core.TranslatorConfig("ref", t, true)
	adaptive.Adaptive = true
	continuous := core.TranslatorConfig("ref", t, true)
	continuous.ContinuousTripCount = true
	variants := []dbt.Config{adaptive, continuous}
	for _, c := range convergenceVariants {
		v := core.TranslatorConfig("ref", EffectiveThreshold(c.capT, scale), true)
		v.ConvergeRegister, v.ConvergeEpsilon = true, c.eps
		variants = append(variants, v)
	}
	return variants
}

// section5Series returns the series a section-5 table shows: the named
// benchmarks, or with no names the table's defaults, in that order.
// Benchmarks the study did not run, whose units failed (as in every
// figure) or that ran without Section5 have no row.
func (r *Results) section5Series(names, defaults []string) []*BenchmarkSeries {
	if len(names) == 0 {
		names = defaults
	}
	var out []*BenchmarkSeries
	for _, name := range names {
		if s := r.ByName(name); s != nil && s.ok() && len(s.Variants) > 0 {
			out = append(out, s)
		}
	}
	return out
}

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

// Extensions builds the paper's section-5 extension table from a
// Section5 study, for the named benchmarks (default: the phased members
// plus a stationary control; see section5Series). Each row compares the
// fixed translator at T=2000 (the ladder rung) with two variants at the
// same threshold:
//
//   - adaptive retranslation: regions whose side-exit rate shows a
//     behaviour change are dissolved and rebuilt from fresh profiles;
//   - continuous trip-count profiling: loop regions keep lightweight
//     loop-back instrumentation alive, replacing the frozen trip-count
//     prediction.
func (r *Results) Extensions(names ...string) *ExtensionResults {
	ti := r.tIndex(extensionT)
	out := &ExtensionResults{Threshold: EffectiveThreshold(extensionT, r.Scale)}
	for _, s := range r.section5Series(names, ExtensionBenchmarks) {
		fixed, adaptive, continuous := &s.PerT[ti], &s.Variants[0], &s.Variants[1]
		out.Rows = append(out.Rows, ExtensionRow{
			Name: s.Name, Class: s.Class,
			FixedSideExitRate:    ratio(float64(fixed.Stats.RegionSideExits), float64(fixed.Stats.RegionEntries)),
			AdaptiveSideExitRate: ratio(float64(adaptive.Stats.RegionSideExits), float64(adaptive.Stats.RegionEntries)),
			Dissolved:            adaptive.Stats.RegionsDissolved,
			AdaptiveSpeedup:      ratio(fixed.Cycles, adaptive.Cycles),
			FrozenLPMismatch:     fixed.Summary.LPMismatch,
			ContinuousLPMismatch: continuous.Summary.LPMismatch,
		})
	}
	return out
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
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
