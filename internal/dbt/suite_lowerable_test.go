package dbt_test

import (
	"testing"

	"repro/internal/dbt"
	"repro/internal/spec"
)

// TestLowerableMatchesLowerOnSuite: shared-trace followers take their
// dispatch flag from lowerable instead of lowering, so it must agree
// with lower on every block of every suite benchmark, both inputs.
func TestLowerableMatchesLowerOnSuite(t *testing.T) {
	for _, b := range spec.Suite() {
		for _, input := range []string{"ref", "train"} {
			img, tape, err := b.Build(input, 0.002)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, input, err)
			}
			n, bad, err := dbt.LowerableMismatches(img, tape)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, input, err)
			}
			if n == 0 || len(bad) != 0 {
				t.Errorf("%s/%s: %d blocks translated, lowerable disagrees with lower at %v", b.Name, input, n, bad)
			}
		}
	}
}
