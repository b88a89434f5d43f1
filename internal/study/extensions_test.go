package study

import (
	"strings"
	"testing"

	"repro/internal/spec"
)

// runSection5 runs a Section5 study of the named benchmarks on the
// three-rung ladder the section-5 tables read.
func runSection5(t *testing.T, scale float64, names ...string) *Results {
	t.Helper()
	cfg := Config{Scale: scale, Thresholds: Section5Thresholds, Section5: true}
	for _, n := range names {
		cfg.Benchmarks = append(cfg.Benchmarks, spec.ByName(n))
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("extension runs take seconds")
	}
	res := runSection5(t, 0.1, "mcf", "vortex").Extensions("mcf", "vortex")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	mcf, vortex := &res.Rows[0], &res.Rows[1]
	if mcf.Name != "mcf" || vortex.Name != "vortex" {
		t.Fatalf("rows: %+v", res.Rows)
	}
	// mcf is phased: adaptation must trigger and help, and continuous
	// trip counting must repair the loop classification.
	if mcf.Dissolved == 0 {
		t.Error("mcf: adaptive mode never dissolved a region")
	}
	if mcf.AdaptiveSpeedup <= 1.0 {
		t.Errorf("mcf: adaptive speedup %v, want > 1", mcf.AdaptiveSpeedup)
	}
	if mcf.ContinuousLPMismatch >= mcf.FrozenLPMismatch && mcf.FrozenLPMismatch > 0 {
		t.Errorf("mcf: continuous LP mismatch %v not below frozen %v",
			mcf.ContinuousLPMismatch, mcf.FrozenLPMismatch)
	}
	// vortex is stationary: adaptation must not fire.
	if vortex.Dissolved != 0 {
		t.Errorf("vortex: %d regions dissolved on a stationary benchmark", vortex.Dissolved)
	}
	text := res.Render()
	for _, want := range []string{"mcf", "vortex", "speedup", "dissolved"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
}

// TestSection5TablesNeedTheirStudy: a benchmark the study did not run,
// or ran without Section5, has no row.
func TestSection5TablesNeedTheirStudy(t *testing.T) {
	cfg := robustConfig("gzip")
	cfg.Thresholds = Section5Thresholds
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rows := res.Extensions("gzip").Rows; len(rows) != 0 {
		t.Fatalf("extension rows of a study without Section5: %+v", rows)
	}
	cfg.Section5 = true
	if res, err = Run(cfg); err != nil {
		t.Fatal(err)
	}
	if rows := res.Convergence("swim", "gzip").Rows; len(rows) != 5 || rows[0].Name != "gzip" {
		t.Fatalf("convergence rows of swim and gzip, a study of gzip: %+v", rows)
	}
}
