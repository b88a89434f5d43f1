package study

import (
	"strings"
	"testing"

	"repro/internal/spec"
)

func TestRunExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("extension runs take seconds")
	}
	res, err := RunExtensions([]*spec.Benchmark{spec.ByName("mcf"), spec.ByName("vortex")}, 0.1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var mcf, vortex *ExtensionRow
	for i := range res.Rows {
		switch res.Rows[i].Name {
		case "mcf":
			mcf = &res.Rows[i]
		case "vortex":
			vortex = &res.Rows[i]
		}
	}
	if mcf == nil || vortex == nil {
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

func TestRunExtensionsUnknownBenchmark(t *testing.T) {
	if _, err := RunExtensions([]*spec.Benchmark{spec.ByName("nope")}, 0.1, 2000); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
