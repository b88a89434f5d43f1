package study

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/spec"
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

// RunConvergence evaluates fixed thresholds against convergence-based
// registration on the given benchmarks (default: a stationary, a noisy
// and a phased member).
func RunConvergence(benches []*spec.Benchmark, scale float64) (*ConvergenceResults, error) {
	cfg, err := section5Config(benches, []string{"vortex", "crafty", "gzip"}, scale)
	if err != nil {
		return nil, err
	}
	// A zero epsilon is a fixed-threshold policy at paperT; any other
	// registers on convergence, with paperT as the cap.
	policies := []struct{ paperT, eps float64 }{
		{500, 0}, {2000, 0}, {10000, 0}, {40000, 0.03}, {40000, 0.015},
	}
	out := &ConvergenceResults{}
	for _, b := range cfg.Benchmarks {
		cfgs := make([]dbt.Config, len(policies))
		for i, p := range policies {
			cfgs[i] = core.TranslatorConfig("ref", EffectiveThreshold(p.paperT, cfg.Scale), true)
			cfgs[i].ConvergeRegister = p.eps > 0
			cfgs[i].ConvergeEpsilon = p.eps
		}
		snaps, _, err := runVariants(b, cfg.Scale, cfgs...)
		if err != nil {
			return nil, err
		}
		img, tape, err := b.Build("train", cfg.Scale)
		if err != nil {
			return nil, err
		}
		train, _, err := dbt.Run(img, tape, core.TranslatorConfig("train", 0, false))
		if err != nil {
			return nil, err
		}
		for i, p := range policies {
			sum, _, err := core.Compare(snaps[i+1], snaps[0])
			if err != nil {
				return nil, err
			}
			row := ConvergenceRow{
				Name: b.Name, Policy: fmt.Sprintf("fixed T=%s", trimFloat(p.paperT)),
				SdBP: sum.SdBP, BPMismatch: sum.BPMismatch,
			}
			if p.eps > 0 {
				row.Policy = fmt.Sprintf("converge eps=%g cap=%s", p.eps, trimFloat(p.paperT))
			}
			if train.ProfilingOps > 0 {
				row.OpsVsTrain = float64(snaps[i+1].ProfilingOps) / float64(train.ProfilingOps)
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
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
