package study

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/spec"
)

// Series is one line of a figure: Y values over the figure's X axis.
type Series struct {
	Label string
	Y     []float64
}

// Figure is the data behind one of the paper's evaluation figures.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	// X holds the paper-unit thresholds of each column.
	X []float64
	// Series holds one entry per plotted line.
	Series []Series
	// Notes carry reproduction caveats.
	Notes []string
	// Gaps name data this figure is missing because benchmarks were
	// excluded after absorbed unit failures (Degrade policy). They are
	// rendered in reports but excluded from JSON output, so a degraded
	// run's figures stay byte-identical to a clean run over the
	// surviving benchmarks.
	Gaps []string `json:"-"`
}

// accuracyIndexes returns ladder indexes for the accuracy figures
// (T >= 100, the paper's x-axis).
func (r *Results) accuracyIndexes() []int {
	var keep []int
	for i, t := range r.PaperT {
		if t >= 100 {
			keep = append(keep, i)
		}
	}
	return keep
}

func (r *Results) xValues(keep []int) []float64 {
	x := make([]float64, len(keep))
	for i, ti := range keep {
		x[i] = r.PaperT[ti]
	}
	return x
}

// constSeries builds a reference line with a constant value.
func constSeries(label string, v float64, n int) Series {
	y := make([]float64, n)
	for i := range y {
		y[i] = v
	}
	return Series{Label: label, Y: y}
}

// line is a candidate series of a figure. A class line averages the
// surviving benchmarks of its class, less the one named by except; a
// reference line (ref) averages no class.
type line struct {
	Series
	ref    bool
	class  spec.Class
	except string
}

func classLine(c spec.Class, s Series) line { return line{Series: s, class: c} }
func refLine(s Series) line                 { return line{Series: s, ref: true} }

// plot returns the series a figure draws, in order: every reference
// line, and every class line with a surviving benchmark to average. A
// study over a subset of the suite thus plots as if the absent class
// had not been selected, not as a line of zeros that reads as a
// perfect prediction.
func (r *Results) plot(ls ...line) []Series {
	out := make([]Series, 0, len(ls))
	for _, l := range ls {
		if l.ref || slices.ContainsFunc(r.Series, func(s BenchmarkSeries) bool {
			return s.Class == l.class && s.Name != l.except && s.ok()
		}) {
			out = append(out, l.Series)
		}
	}
	return out
}

// perBenchSeries builds one series per surviving benchmark of the
// class (failed benchmarks are annotated in Gaps instead of plotted).
func (r *Results) perBenchSeries(c spec.Class, keep []int, f func(*core.ThresholdResult, *BenchmarkSeries) float64) []Series {
	var out []Series
	for bi := range r.Series {
		s := &r.Series[bi]
		if s.Class != c || !s.ok() {
			continue
		}
		y := make([]float64, len(keep))
		for k, ti := range keep {
			y[k] = f(&s.PerT[ti], s)
		}
		out = append(out, Series{Label: s.Name, Y: y})
	}
	return out
}

func sdBP(tr *core.ThresholdResult, _ *BenchmarkSeries) float64 { return tr.Summary.SdBP }
func bpMis(tr *core.ThresholdResult, _ *BenchmarkSeries) float64 {
	return tr.Summary.BPMismatch
}
func sdCP(tr *core.ThresholdResult, _ *BenchmarkSeries) float64 { return tr.Summary.SdCP }
func sdLP(tr *core.ThresholdResult, _ *BenchmarkSeries) float64 { return tr.Summary.SdLP }
func lpMis(tr *core.ThresholdResult, _ *BenchmarkSeries) float64 {
	return tr.Summary.LPMismatch
}

// Figure8 reproduces "Standard deviations of branch probabilities":
// suite-average Sd.BP(T) for INT and FP with the Sd.BP(train) reference
// lines.
func (r *Results) Figure8() Figure {
	keep := r.accuracyIndexes()
	return Figure{
		ID: "fig8", Title: "Standard deviations of branch probabilities",
		XLabel: "retranslation threshold", YLabel: "Sd.BP",
		X: r.xValues(keep),
		Series: r.plot(
			classLine(spec.INT, Series{Label: "int", Y: r.avgOver(spec.INT, keep, sdBP)}),
			classLine(spec.FP, Series{Label: "fp", Y: r.avgOver(spec.FP, keep, sdBP)}),
			classLine(spec.INT, constSeries("int train", r.avgTrain(spec.INT, func(s metrics.Summary) float64 { return s.SdBP }), len(keep))),
			classLine(spec.FP, constSeries("fp train", r.avgTrain(spec.FP, func(s metrics.Summary) float64 { return s.SdBP }), len(keep))),
		),
	}
}

// Figure9 reproduces the per-benchmark Sd.BP for SPEC2000 INT.
func (r *Results) Figure9() Figure {
	keep := r.accuracyIndexes()
	return Figure{
		ID: "fig9", Title: "Standard deviations of branch probabilities (INT benchmarks)",
		XLabel: "retranslation threshold", YLabel: "Sd.BP",
		X:      r.xValues(keep),
		Series: r.perBenchSeries(spec.INT, keep, sdBP),
	}
}

// Figure10 reproduces "Branch probability mismatch rates" (suite
// averages with train references).
func (r *Results) Figure10() Figure {
	keep := r.accuracyIndexes()
	return Figure{
		ID: "fig10", Title: "Branch probability mismatch rates",
		XLabel: "retranslation threshold", YLabel: "mismatch rate",
		X: r.xValues(keep),
		Series: r.plot(
			classLine(spec.INT, Series{Label: "int", Y: r.avgOver(spec.INT, keep, bpMis)}),
			classLine(spec.FP, Series{Label: "fp", Y: r.avgOver(spec.FP, keep, bpMis)}),
			classLine(spec.INT, constSeries("int train", r.avgTrain(spec.INT, func(s metrics.Summary) float64 { return s.BPMismatch }), len(keep))),
			classLine(spec.FP, constSeries("fp train", r.avgTrain(spec.FP, func(s metrics.Summary) float64 { return s.BPMismatch }), len(keep))),
		),
	}
}

// Figure11 reproduces per-benchmark BP mismatch rates for INT.
func (r *Results) Figure11() Figure {
	keep := r.accuracyIndexes()
	return Figure{
		ID: "fig11", Title: "Branch probability mismatch rates (INT benchmarks)",
		XLabel: "retranslation threshold", YLabel: "mismatch rate",
		X:      r.xValues(keep),
		Series: r.perBenchSeries(spec.INT, keep, bpMis),
	}
}

// Figure12 reproduces per-benchmark BP mismatch rates for FP.
func (r *Results) Figure12() Figure {
	keep := r.accuracyIndexes()
	return Figure{
		ID: "fig12", Title: "Branch probability mismatch rates (FP benchmarks)",
		XLabel: "retranslation threshold", YLabel: "mismatch rate",
		X:      r.xValues(keep),
		Series: r.perBenchSeries(spec.FP, keep, bpMis),
	}
}

// Figure13 reproduces "Standard deviation of completion probabilities".
func (r *Results) Figure13() Figure {
	keep := r.accuracyIndexes()
	return Figure{
		ID: "fig13", Title: "Standard deviation of completion probabilities",
		XLabel: "retranslation threshold", YLabel: "Sd.CP",
		X: r.xValues(keep),
		Series: r.plot(
			classLine(spec.INT, Series{Label: "int", Y: r.avgOver(spec.INT, keep, sdCP)}),
			classLine(spec.FP, Series{Label: "fp", Y: r.avgOver(spec.FP, keep, sdCP)}),
			classLine(spec.INT, constSeries("int train*", r.avgTrainRegions(spec.INT, func(s metrics.Summary) float64 { return s.SdCP }), len(keep))),
			classLine(spec.FP, constSeries("fp train*", r.avgTrainRegions(spec.FP, func(s metrics.Summary) float64 { return s.SdCP }), len(keep))),
		),
		Notes: []string{
			"The paper does not compute Sd.CP(train): unoptimized runs form no regions (section 2.3).",
			"train* realizes the paper's section-5 proposal: regions formed offline over the training profile (threshold 2000).",
		},
	}
}

// Figure14 reproduces "Standard deviation of loop-back probabilities".
func (r *Results) Figure14() Figure {
	keep := r.accuracyIndexes()
	return Figure{
		ID: "fig14", Title: "Standard deviation of loop-back probabilities",
		XLabel: "retranslation threshold", YLabel: "Sd.LP",
		X: r.xValues(keep),
		Series: r.plot(
			classLine(spec.INT, Series{Label: "int", Y: r.avgOver(spec.INT, keep, sdLP)}),
			classLine(spec.FP, Series{Label: "fp", Y: r.avgOver(spec.FP, keep, sdLP)}),
			classLine(spec.INT, constSeries("int train*", r.avgTrainRegions(spec.INT, func(s metrics.Summary) float64 { return s.SdLP }), len(keep))),
			classLine(spec.FP, constSeries("fp train*", r.avgTrainRegions(spec.FP, func(s metrics.Summary) float64 { return s.SdLP }), len(keep))),
		),
		Notes: []string{
			"The paper does not compute Sd.LP(train): unoptimized runs form no regions (section 2.3).",
			"train* realizes the paper's section-5 proposal: regions formed offline over the training profile (threshold 2000).",
		},
	}
}

// Figure15 reproduces "Loop-back probability mismatch rate" (suite
// averages over the trip-count classes).
func (r *Results) Figure15() Figure {
	keep := r.accuracyIndexes()
	return Figure{
		ID: "fig15", Title: "Loop-back probability mismatch rate",
		XLabel: "retranslation threshold", YLabel: "mismatch rate",
		X: r.xValues(keep),
		Series: r.plot(
			classLine(spec.INT, Series{Label: "int", Y: r.avgOver(spec.INT, keep, lpMis)}),
			classLine(spec.FP, Series{Label: "fp", Y: r.avgOver(spec.FP, keep, lpMis)}),
		),
	}
}

// Figure16 reproduces per-benchmark LP mismatch rates for INT.
func (r *Results) Figure16() Figure {
	keep := r.accuracyIndexes()
	return Figure{
		ID: "fig16", Title: "Loop-back probability mismatch rate (INT benchmarks)",
		XLabel: "retranslation threshold", YLabel: "mismatch rate",
		X:      r.xValues(keep),
		Series: r.perBenchSeries(spec.INT, keep, lpMis),
	}
}

// Figure17 reproduces "Performance impact of initial profiles": cycles
// at the base threshold T=1 divided by cycles at T (higher is better).
func (r *Results) Figure17() Figure {
	baseIdx := r.tIndex(1)
	var keep []int
	for i := range r.PaperT {
		if r.PaperT[i] >= 1 {
			keep = append(keep, i)
		}
	}
	rel := func(class spec.Class, skip string) []float64 {
		out := make([]float64, len(keep))
		for k, ti := range keep {
			sum, n := 0.0, 0
			for bi := range r.Series {
				s := &r.Series[bi]
				if s.Class != class || s.Name == skip || !s.ok() {
					continue
				}
				base := s.PerT[baseIdx].Cycles
				cur := s.PerT[ti].Cycles
				if base > 0 && cur > 0 {
					sum += base / cur
					n++
				}
			}
			if n > 0 {
				out[k] = sum / float64(n)
			}
		}
		return out
	}
	fig := Figure{
		ID: "fig17", Title: "Performance impact of initial profiles (relative to threshold 1)",
		XLabel: "retranslation threshold", YLabel: "relative performance",
		X: r.xValues(keep),
		Series: r.plot(
			classLine(spec.INT, Series{Label: "int", Y: rel(spec.INT, "")}),
			line{Series: Series{Label: "int no perl", Y: rel(spec.INT, "perlbmk")}, class: spec.INT, except: "perlbmk"},
			classLine(spec.FP, Series{Label: "fp", Y: rel(spec.FP, "")}),
		),
		Notes: []string{"Simulated cycle model (see internal/perfmodel); the paper measured wall clock on Itanium 2."},
	}
	if baseIdx < 0 {
		fig.Notes = append(fig.Notes, "WARNING: ladder lacks T=1; relative performance undefined.")
	}
	return fig
}

// Figure18 reproduces "Profiling operations required for training run
// and for initial profiles" (normalized so the training run is 1).
func (r *Results) Figure18() Figure {
	keep := r.accuracyIndexes()
	norm := func(class spec.Class) []float64 {
		out := make([]float64, len(keep))
		for k, ti := range keep {
			sum, n := 0.0, 0
			for bi := range r.Series {
				s := &r.Series[bi]
				if s.Class != class || s.TrainOps == 0 || !s.ok() {
					continue
				}
				sum += float64(s.PerT[ti].ProfilingOps) / float64(s.TrainOps)
				n++
			}
			if n > 0 {
				out[k] = sum / float64(n)
			}
		}
		return out
	}
	return Figure{
		ID: "fig18", Title: "Profiling operations (training run = 1)",
		XLabel: "retranslation threshold", YLabel: "normalized profiling ops",
		X: r.xValues(keep),
		Series: r.plot(
			classLine(spec.INT, Series{Label: "int", Y: norm(spec.INT)}),
			classLine(spec.FP, Series{Label: "fp", Y: norm(spec.FP)}),
			refLine(constSeries("train", 1, len(keep))),
		),
	}
}

// gapNotes describes every benchmark a degraded run excluded from the
// figures, one line per recorded failure, in suite order (failures
// within a benchmark are already sorted by unit).
func (r *Results) gapNotes() []string {
	var out []string
	for i := range r.Series {
		s := &r.Series[i]
		for _, f := range s.Failures {
			out = append(out, fmt.Sprintf("gap: %s excluded — %s failed: %s", f.Bench, f.Unit, f.Err))
		}
	}
	return out
}

// Figures returns all evaluation figures in paper order, each
// annotated with the gaps a degraded run left.
func (r *Results) Figures() []Figure {
	figs := []Figure{
		r.Figure8(), r.Figure9(), r.Figure10(), r.Figure11(), r.Figure12(),
		r.Figure13(), r.Figure14(), r.Figure15(), r.Figure16(),
		r.Figure17(), r.Figure18(),
	}
	figs = append(figs, r.predictorFigures()...)
	figs = append(figs, r.sampleFigures()...)
	figs = append(figs, r.learnedFigures()...)
	if gaps := r.gapNotes(); len(gaps) > 0 {
		for i := range figs {
			figs[i].Gaps = gaps
		}
	}
	return figs
}

// String renders a one-line summary of a figure for logs.
func (f Figure) String() string {
	return fmt.Sprintf("%s: %s (%d series over %d thresholds)", f.ID, f.Title, len(f.Series), len(f.X))
}
