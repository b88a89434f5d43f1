package study

import (
	"fmt"
	"time"

	"repro/internal/learned"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/spec"
)

// Learned-predictor figures: what a profile-free static model achieves
// on the very same branch streams the INIP(T) accuracy figures are
// measured over. They exist only when the study ran with Config.Learned
// — a learned-less study's figure list (and thus every golden artifact)
// is byte-identical to builds without this file.

// fitLearned runs the suite-level leave-one-benchmark-out fit over
// every cleanly completed series, in suite order. Fewer than two clean
// collections (a single-benchmark study, or a stop/degrade shrank the
// suite) leave Results.Learned nil rather than fit a model with no
// held-out fold; an actual training failure is returned.
func (r *Results) fitLearned(lcfg learned.Config, trace *obs.Recorder) error {
	var data []learned.BenchData
	for i := range r.Series {
		s := &r.Series[i]
		if s.ok() && s.Learned != nil {
			data = append(data, *s.Learned)
		}
	}
	if len(data) < 2 {
		return nil
	}
	start := time.Now()
	cv, err := learned.CrossValidate(lcfg, data)
	trace.Record("suite", obs.UnitLearnedFit, 0, 0, start, time.Since(start), 0, err)
	if err != nil {
		return err
	}
	r.Learned = cv
	return nil
}

// learnedFoldRate returns the named benchmark's held-out mispredict
// rate (learned model or always-taken baseline), or false when the
// benchmark contributed no fold.
func (r *Results) learnedFoldRate(bench string, taken bool) (float64, bool) {
	if r.Learned == nil {
		return 0, false
	}
	f, ok := r.Learned.FoldFor(bench)
	if !ok {
		return 0, false
	}
	if taken {
		return f.TakenRate(), true
	}
	return f.Rate(), true
}

// FigureL1 plots the learned model's held-out mispredict rate against
// the INIP(T) BP mismatch ladder of Figure 10, the training-profile
// references, and the always-taken baseline. The learned and baseline
// lines are constant over the ladder: the model is static, so no
// threshold shapes it.
func (r *Results) FigureL1() Figure {
	keep := r.accuracyIndexes()
	branches, _, _ := r.Learned.Totals()
	return Figure{
		ID: "figl1", Title: "Learned static model vs INIP branch mismatch",
		XLabel: "retranslation threshold", YLabel: "mispredict / mismatch rate",
		X: r.xValues(keep),
		Series: r.plot(
			classLine(spec.INT, Series{Label: "int inip", Y: r.avgOver(spec.INT, keep, bpMis)}),
			classLine(spec.FP, Series{Label: "fp inip", Y: r.avgOver(spec.FP, keep, bpMis)}),
			classLine(spec.INT, constSeries("int train", r.avgTrain(spec.INT, trainBPMismatch), len(keep))),
			classLine(spec.FP, constSeries("fp train", r.avgTrain(spec.FP, trainBPMismatch), len(keep))),
			refLine(constSeries("learned (held-out)", r.Learned.Rate(), len(keep))),
			refLine(constSeries("always taken", r.Learned.TakenRate(), len(keep))),
		),
		Notes: []string{
			"Learned line is leave-one-benchmark-out: each benchmark is scored by a model that never saw any profile of it.",
			"Learned/taken lines are branch-level mispredict rates; INIP/train lines repeat Figure 10's range-based mismatch rates for comparison.",
			fmt.Sprintf("Model %s over %d held-out branches.", r.Learned.Fingerprint, branches),
		},
	}
}

// FigureL2 breaks the held-out accuracy down by branch-predictability
// class (biased / mixed / phase-changing, classified statically from
// the spec behaviour models), learned model next to the always-taken
// baseline. X carries class ordinals; the notes map them back to names
// and members. A class with no surviving benchmark has no x position
// (as in FigureP2), so it is not plotted as a perfect 0.
func (r *Results) FigureL2() Figure {
	fig := Figure{
		ID: "figl2", Title: "Learned static model accuracy by branch-predictability class",
		XLabel: "predictability class", YLabel: "mispredict rate",
	}
	var learnedY, takenY []float64
	for ci, pc := range spec.PredictabilityClasses() {
		var lsum, tsum float64
		var members []string
		for bi := range r.Series {
			s := &r.Series[bi]
			if !s.ok() {
				continue
			}
			b := spec.ByName(s.Name)
			if b == nil || b.Predictability() != pc {
				continue
			}
			lr, ok := r.learnedFoldRate(s.Name, false)
			if !ok {
				continue
			}
			tr, _ := r.learnedFoldRate(s.Name, true)
			lsum += lr
			tsum += tr
			members = append(members, s.Name)
		}
		if len(members) == 0 {
			continue
		}
		n := float64(len(members))
		fig.X = append(fig.X, float64(ci+1))
		learnedY = append(learnedY, lsum/n)
		takenY = append(takenY, tsum/n)
		fig.Notes = append(fig.Notes, fmt.Sprintf("x=%d: %s", ci+1, pc), fmt.Sprintf("%s: %s", pc, joinNames(members)))
	}
	fig.Series = append(fig.Series,
		Series{Label: "learned (held-out)", Y: learnedY},
		Series{Label: "always taken", Y: takenY})
	return fig
}

func trainBPMismatch(s metrics.Summary) float64 { return s.BPMismatch }

// learnedFigures returns the learned-model figures, or nil when the
// study ran no learned fit — keeping the default figure list (and every
// golden artifact) byte-identical.
func (r *Results) learnedFigures() []Figure {
	if r.Learned == nil {
		return nil
	}
	return []Figure{r.FigureL1(), r.FigureL2()}
}
