package study

import (
	"fmt"

	"repro/internal/spec"
)

// Predictor-zoo figures: what hardware-style dynamic branch predictors
// achieve on the very same branch streams the INIP(T) accuracy figures
// are measured over. They exist only when the study ran with
// Config.Predictors — a predictor-less study's figure list (and thus
// every golden artifact) is byte-identical to builds without this file.

// predictorNames returns the predictor column order, taken from the
// first complete series carrying tallies (all series share the
// Config.Predictors order). Empty when the study ran no predictors.
func (r *Results) predictorNames() []string {
	for i := range r.Series {
		s := &r.Series[i]
		if !s.ok() || len(s.Predictors) == 0 {
			continue
		}
		names := make([]string, len(s.Predictors))
		for j, p := range s.Predictors {
			names[j] = p.Predictor
		}
		return names
	}
	return nil
}

// predictorRate returns a series' mispredict rate for the named
// predictor (0 when absent, which excluded series never reach).
func predictorRate(s *BenchmarkSeries, name string) float64 {
	for _, p := range s.Predictors {
		if p.Predictor == name {
			return p.MispredictRate()
		}
	}
	return 0
}

// avgPredictor averages a predictor's mispredict rate over the
// benchmark class.
func (r *Results) avgPredictor(c spec.Class, name string) float64 {
	idxs := r.classIndexes(c)
	if len(idxs) == 0 {
		return 0
	}
	sum := 0.0
	for _, bi := range idxs {
		sum += predictorRate(&r.Series[bi], name)
	}
	return sum / float64(len(idxs))
}

// FigureP1 plots per-predictor mispredict rates against the INIP(T) BP
// mismatch curves of Figure 10: the dynamic-prediction baseline the
// paper's initial-profile accuracy can be compared to. Predictor lines
// are constant over the ladder — the predictors observe the reference
// trace, which no threshold shapes.
func (r *Results) FigureP1() Figure {
	keep := r.accuracyIndexes()
	names := r.predictorNames()
	fig := Figure{
		ID: "figp1", Title: "Dynamic predictor mispredict rates vs INIP branch mismatch",
		XLabel: "retranslation threshold", YLabel: "mispredict / mismatch rate",
		X: r.xValues(keep),
		Notes: []string{
			"Predictor lines are threshold-independent: predictors observe the reference trace.",
			"INIP lines repeat Figure 10's BP mismatch rates for comparison.",
		},
	}
	ls := []line{
		classLine(spec.INT, Series{Label: "int inip", Y: r.avgOver(spec.INT, keep, bpMis)}),
		classLine(spec.FP, Series{Label: "fp inip", Y: r.avgOver(spec.FP, keep, bpMis)}),
	}
	for _, name := range names {
		ls = append(ls,
			classLine(spec.INT, constSeries("int "+name, r.avgPredictor(spec.INT, name), len(keep))),
			classLine(spec.FP, constSeries("fp "+name, r.avgPredictor(spec.FP, name), len(keep))))
	}
	fig.Series = r.plot(ls...)
	return fig
}

// FigureP2 breaks mispredict rates down by branch-predictability class
// (biased / mixed / phase-changing, classified statically from the
// spec behaviour models). X carries predictor ordinals; the note maps
// them back to names and records each benchmark's class.
func (r *Results) FigureP2() Figure {
	names := r.predictorNames()
	x := make([]float64, len(names))
	for i := range x {
		x[i] = float64(i + 1)
	}
	classOf := func(s *BenchmarkSeries) (spec.Predictability, bool) {
		b := spec.ByName(s.Name)
		if b == nil {
			return "", false
		}
		return b.Predictability(), true
	}
	fig := Figure{
		ID: "figp2", Title: "Dynamic predictor mispredict rates by branch-predictability class",
		XLabel: "predictor", YLabel: "mispredict rate",
		X: x,
	}
	for i, name := range names {
		fig.Notes = append(fig.Notes, fmt.Sprintf("x=%d: %s", i+1, name))
	}
	for _, pc := range spec.PredictabilityClasses() {
		y := make([]float64, len(names))
		n := 0
		var members []string
		for bi := range r.Series {
			s := &r.Series[bi]
			if !s.ok() || len(s.Predictors) == 0 {
				continue
			}
			c, known := classOf(s)
			if !known || c != pc {
				continue
			}
			for j, name := range names {
				y[j] += predictorRate(s, name)
			}
			n++
			members = append(members, s.Name)
		}
		if n == 0 {
			continue
		}
		for j := range y {
			y[j] /= float64(n)
		}
		fig.Series = append(fig.Series, Series{Label: string(pc), Y: y})
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s: %s", pc, joinNames(members)))
	}
	return fig
}

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// predictorFigures returns the predictor-zoo figures, or nil when the
// study ran no predictors — keeping the default figure list (and every
// golden artifact) byte-identical.
func (r *Results) predictorFigures() []Figure {
	if len(r.predictorNames()) == 0 {
		return nil
	}
	return []Figure{r.FigureP1(), r.FigureP2()}
}
