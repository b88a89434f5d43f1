package study

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/spec"
)

// Sampled-profiling frontier figures: what LBR-style sampled profiling
// (dbt.Config.SamplePeriod) costs in initial-prediction accuracy, and
// what it buys in profiling overhead, on the very same benchmarks and
// threshold ladder the accuracy figures measure. They exist only when
// the study ran with Config.SamplePeriods — a sampling-less study's
// figure list (and thus every golden artifact) is byte-identical to
// builds without this file.

// samplePeriodLadder returns the period column order, taken from the
// first complete series carrying sampled ladders (all series share the
// Config.SamplePeriods order). Empty when the study ran no sampling.
func (r *Results) samplePeriodLadder() []uint64 {
	for i := range r.Series {
		s := &r.Series[i]
		if !s.ok() || len(s.Sampling) == 0 {
			continue
		}
		periods := make([]uint64, len(s.Sampling))
		for j, sp := range s.Sampling {
			periods[j] = sp.Period
		}
		return periods
	}
	return nil
}

// avgSampleDelta averages, over the class's benchmarks and the accuracy
// ladder indexes in keep, the sampled-minus-full difference of one
// summary metric at period index pi. Positive values mean sampling
// degraded the initial prediction.
func (r *Results) avgSampleDelta(c spec.Class, pi int, keep []int, f func(metrics.Summary) float64) float64 {
	sum, n := 0.0, 0
	for _, bi := range r.classIndexes(c) {
		s := &r.Series[bi]
		if pi >= len(s.Sampling) {
			continue
		}
		for _, ti := range keep {
			sum += f(s.Sampling[pi].PerT[ti].Summary) - f(s.PerT[ti].Summary)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// avgSampleCost averages the measured profiling-cost ratio of period
// index pi over the class: each benchmark contributes its sampled
// ProfilingOps total divided by its full-instrumentation total across
// the kept ladder indexes. Benchmarks whose full ladder performed no
// profiling operations are skipped (no denominator, no ratio), so the
// result is always finite.
func (r *Results) avgSampleCost(c spec.Class, pi int, keep []int) float64 {
	sum, n := 0.0, 0
	for _, bi := range r.classIndexes(c) {
		s := &r.Series[bi]
		if pi >= len(s.Sampling) {
			continue
		}
		var sampled, full uint64
		for _, ti := range keep {
			sampled += s.Sampling[pi].PerT[ti].ProfilingOps
			full += s.PerT[ti].ProfilingOps
		}
		if full == 0 {
			continue
		}
		sum += float64(sampled) / float64(full)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// FigureS1 plots initial-prediction accuracy degradation against the
// sampling period: the class-average sampled-minus-full difference of
// Sd.BP and Sd.LP, averaged over the accuracy ladder (T >= 100). A
// period of 1 is full instrumentation by definition, so its deltas are
// exactly zero — the determinism tests pin this.
func (r *Results) FigureS1() Figure {
	periods := r.samplePeriodLadder()
	keep := r.accuracyIndexes()
	x := make([]float64, len(periods))
	for i, p := range periods {
		x[i] = float64(p)
	}
	fig := Figure{
		ID: "figs1", Title: "Initial-prediction accuracy degradation vs sampling period",
		XLabel: "sampling period", YLabel: "sampled minus full (Sd units)",
		X: x,
		Notes: []string{
			"Deltas are averaged over the accuracy ladder (T >= 100) and the class's benchmarks.",
			"Period 1 is full instrumentation by definition: its deltas are exactly zero.",
		},
	}
	sdBPOf := func(s metrics.Summary) float64 { return s.SdBP }
	sdLPOf := func(s metrics.Summary) float64 { return s.SdLP }
	var ls []line
	for _, cl := range []spec.Class{spec.INT, spec.FP} {
		dbp := make([]float64, len(periods))
		dlp := make([]float64, len(periods))
		for pi := range periods {
			dbp[pi] = r.avgSampleDelta(cl, pi, keep, sdBPOf)
			dlp[pi] = r.avgSampleDelta(cl, pi, keep, sdLPOf)
		}
		ls = append(ls,
			classLine(cl, Series{Label: fmt.Sprintf("%s dSd.BP", cl), Y: dbp}),
			classLine(cl, Series{Label: fmt.Sprintf("%s dSd.LP", cl), Y: dlp}))
	}
	fig.Series = r.plot(ls...)
	return fig
}

// FigureS2 is the overhead-vs-accuracy frontier: the measured profiling
// cost ratio (sampled / full counter updates) per class against the
// 1/period cost model, with the Sd.BP degradation of FigureS1 alongside
// so one figure shows what each period buys and what it costs.
func (r *Results) FigureS2() Figure {
	periods := r.samplePeriodLadder()
	keep := r.accuracyIndexes()
	x := make([]float64, len(periods))
	model := make([]float64, len(periods))
	for i, p := range periods {
		x[i] = float64(p)
		model[i] = 1 / float64(p)
	}
	fig := Figure{
		ID: "figs2", Title: "Profiling overhead vs accuracy frontier of sampled profiling",
		XLabel: "sampling period", YLabel: "cost ratio / Sd.BP delta",
		X: x,
		Notes: []string{
			"Cost ratio is measured counter updates of the sampled ladder over the full ladder's, averaged per class.",
			"The 1/period line is the ideal stride-sampling cost model the measurement is compared against.",
			"dSd.BP repeats FigureS1's branch-probability degradation: the accuracy price of each period.",
		},
	}
	sdBPOf := func(s metrics.Summary) float64 { return s.SdBP }
	ls := []line{refLine(Series{Label: "model 1/period", Y: model})}
	for _, cl := range []spec.Class{spec.INT, spec.FP} {
		cost := make([]float64, len(periods))
		dbp := make([]float64, len(periods))
		for pi := range periods {
			cost[pi] = r.avgSampleCost(cl, pi, keep)
			dbp[pi] = r.avgSampleDelta(cl, pi, keep, sdBPOf)
		}
		ls = append(ls,
			classLine(cl, Series{Label: fmt.Sprintf("%s cost ratio", cl), Y: cost}),
			classLine(cl, Series{Label: fmt.Sprintf("%s dSd.BP", cl), Y: dbp}))
	}
	fig.Series = r.plot(ls...)
	return fig
}

// sampleFigures returns the sampling-frontier figures, or nil when the
// study ran no sampled ladders — keeping the default figure list (and
// every golden artifact) byte-identical.
func (r *Results) sampleFigures() []Figure {
	if len(r.samplePeriodLadder()) == 0 {
		return nil
	}
	return []Figure{r.FigureS1(), r.FigureS2()}
}
