package study

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// ConvergenceRow is one (benchmark, registration policy) evaluation:
// how much profiling the policy spent and how accurate the resulting
// initial profile is.
type ConvergenceRow struct {
	Name   string
	Policy string
	// OpsVsTrain normalizes profiling operations to the training run
	// (the currency of Figure 18).
	OpsVsTrain float64
	SdBP       float64
	BPMismatch float64
}

// ConvergenceResults holds the accuracy-per-profiling-cost comparison
// between fixed retranslation thresholds and convergence-based
// registration (the paper's section-5 threshold-selection heuristics).
type ConvergenceResults struct {
	Rows []ConvergenceRow
}

// convergenceVariants are the convergence-based registration policies
// of the threshold-selection table: the CI half-width ε below which a
// branch registers, and the paper-unit threshold that caps the wait.
var convergenceVariants = []struct{ eps, capT float64 }{{0.03, 40000}, {0.015, 40000}}

// Convergence builds the threshold-selection table from a Section5
// study: Section5Thresholds against the convergenceVariants, on the
// named benchmarks (default: a stationary, a noisy and a phased member;
// see section5Series), with profiling cost normalized to the training
// run.
func (r *Results) Convergence(names ...string) *ConvergenceResults {
	out := &ConvergenceResults{}
	for _, s := range r.section5Series(names, ConvergenceBenchmarks) {
		add := func(policy string, res *core.ThresholdResult) {
			out.Rows = append(out.Rows, ConvergenceRow{Name: s.Name, Policy: policy,
				OpsVsTrain: ratio(float64(res.ProfilingOps), float64(s.TrainOps)),
				SdBP:       res.Summary.SdBP, BPMismatch: res.Summary.BPMismatch})
		}
		for _, t := range Section5Thresholds {
			add(fmt.Sprintf("fixed T=%s", trimFloat(t)), &s.PerT[r.tIndex(t)])
		}
		for k, c := range convergenceVariants { // after adaptive and continuous
			add(fmt.Sprintf("converge eps=%g cap=%s", c.eps, trimFloat(c.capT)), &s.Variants[2+k])
		}
	}
	return out
}

func trimFloat(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%gM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%gk", v/1e3)
	default:
		return fmt.Sprintf("%g", v)
	}
}

// Render formats the convergence results as a text table.
func (c *ConvergenceResults) Render() string {
	var b strings.Builder
	b.WriteString("threshold-selection heuristics: accuracy per unit of profiling work\n")
	fmt.Fprintf(&b, "%-10s %-26s %12s %9s %10s\n", "bench", "policy", "ops/train", "Sd.BP", "mismatch")
	prev := ""
	for _, r := range c.Rows {
		name := r.Name
		if name == prev {
			name = ""
		} else if prev != "" {
			b.WriteString("\n")
		}
		prev = r.Name
		fmt.Fprintf(&b, "%-10s %-26s %12.4f %9.4f %9.1f%%\n",
			name, r.Policy, r.OpsVsTrain, r.SdBP, r.BPMismatch*100)
	}
	return b.String()
}
