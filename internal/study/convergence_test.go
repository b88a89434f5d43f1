package study

import (
	"strings"
	"testing"
)

func TestRunConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence runs take seconds")
	}
	res := runSection5(t, 0.1, "vortex").Convergence("vortex")
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 policies", len(res.Rows))
	}
	byPolicy := map[string]ConvergenceRow{}
	for _, r := range res.Rows {
		byPolicy[r.Policy] = r
		if r.OpsVsTrain <= 0 {
			t.Fatalf("policy %q has no profiling cost", r.Policy)
		}
	}
	fixedBig := byPolicy["fixed T=10k"]
	conv := byPolicy["converge eps=0.03 cap=40k"]
	if fixedBig.Policy == "" || conv.Policy == "" {
		t.Fatalf("policies missing: %+v", byPolicy)
	}
	// The heuristic's selling point on a stationary benchmark: fixed-
	// large-threshold accuracy at a fraction of the profiling work.
	if conv.OpsVsTrain >= fixedBig.OpsVsTrain {
		t.Fatalf("convergence ops %v not below fixed 10k ops %v", conv.OpsVsTrain, fixedBig.OpsVsTrain)
	}
	if conv.SdBP > fixedBig.SdBP*1.8 {
		t.Fatalf("convergence Sd.BP %v much worse than fixed 10k %v", conv.SdBP, fixedBig.SdBP)
	}
	text := res.Render()
	for _, want := range []string{"vortex", "converge", "fixed", "ops/train"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
}
