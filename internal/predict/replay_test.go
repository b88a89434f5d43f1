package predict_test

import (
	"reflect"
	"testing"

	"repro/internal/dbt"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/predict"
	"repro/internal/spec"
)

// observedRun executes one benchmark's reference input at the given
// scale with every registered predictor observing, and returns the
// tallies.
func observedRun(t *testing.T, b *spec.Benchmark, scale float64, cfg dbt.Config) []predict.Result {
	t.Helper()
	img, tape, err := b.Target(scale).Build("ref")
	if err != nil {
		t.Fatalf("%s: build: %v", b.Name, err)
	}
	suite, err := predict.NewSuite(predict.Names())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Input = "ref"
	_, _, err = dbt.RunMultiObserved(img, tape, []dbt.Config{cfg}, []dbt.TraceObserver{suite})
	if err != nil {
		t.Fatalf("%s: run: %v", b.Name, err)
	}
	return suite.Results()
}

// referenceRun executes one benchmark's reference input on the
// reference interpreter and feeds every predictor the branch stream
// rebuilt from the machine's block-entry sequence, one Record call per
// branch: each entered block that ends in a conditional branch resolves
// taken exactly when the next block entered is its taken target.
func referenceRun(t *testing.T, b *spec.Benchmark, scale float64) []predict.Result {
	t.Helper()
	img, tape, err := b.Target(scale).Build("ref")
	if err != nil {
		t.Fatalf("%s: build: %v", b.Name, err)
	}
	suite, err := predict.NewSuite(predict.Names())
	if err != nil {
		t.Fatal(err)
	}
	m, err := interp.NewMachine(img, tape)
	if err != nil {
		t.Fatal(err)
	}
	// takenTarget maps a block entry to its conditional branch's taken
	// target, or -1 for a block that ends in any other control op.
	targets := map[int]int{}
	takenTarget := func(pc int) int {
		tgt, ok := targets[pc]
		for end := pc; !ok; end++ {
			in, err := isa.Decode(img.Code[end])
			if err != nil {
				t.Fatal(err)
			}
			if in.Op.EndsBlock() {
				tgt, ok = -1, true
				if in.Op.IsCondBranch() {
					tgt = end + int(in.Imm)
				}
				targets[pc] = tgt
			}
		}
		return tgt
	}
	prev := -1
	m.BlockHook = func(pc int) {
		if prev >= 0 {
			if tgt := takenTarget(prev); tgt >= 0 {
				suite.Record(int32(prev), pc == tgt)
			}
		}
		prev = pc
	}
	if err := m.Run(); err != nil {
		t.Fatalf("%s: reference run: %v", b.Name, err)
	}
	return suite.Results()
}

// TestReplayMatchesReferenceInterpreter pins the core determinism
// invariant of the predictor layer: the observed branch stream — and
// with it every predictor's mispredict count — is bit-identical to the
// stream the reference interpreter's block-entry sequence implies,
// across the full spec suite.
func TestReplayMatchesReferenceInterpreter(t *testing.T) {
	const scale = 0.001
	for _, b := range spec.Suite() {
		got := observedRun(t, b, scale, dbt.Config{})
		want := referenceRun(t, b, scale)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: predictor tallies diverge from the reference interpreter:\nobserved:  %+v\nreference: %+v", b.Name, got, want)
		}
		if got[0].Branches == 0 {
			t.Errorf("%s: observed no branches; the spec benchmarks all contain branch sites", b.Name)
		}
	}
}

// TestReplayIndependentOfFollowerCount pins that adding follower
// configurations (the shared-trace INIP ladder) does not change what
// observers see: the driver's trace is the only source.
func TestReplayIndependentOfFollowerCount(t *testing.T) {
	const scale = 0.001
	b := spec.ByName("gzip")
	if b == nil {
		t.Fatal("gzip missing from suite")
	}
	run := func(cfgs []dbt.Config) []predict.Result {
		// Tapes are stateful streams: build a fresh image+tape pair per
		// run so both runs replay the identical input.
		img, tape, err := b.Target(scale).Build("ref")
		if err != nil {
			t.Fatal(err)
		}
		suite, err := predict.NewSuite(predict.Names())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := dbt.RunMultiObserved(img, tape, cfgs, []dbt.TraceObserver{suite}); err != nil {
			t.Fatal(err)
		}
		return suite.Results()
	}
	single := run([]dbt.Config{{Input: "ref"}})
	ladder := run([]dbt.Config{
		{Input: "ref"},
		{Input: "ref", Threshold: 2, Optimize: true},
		{Input: "ref", Threshold: 100, Optimize: true},
	})
	if !reflect.DeepEqual(single, ladder) {
		t.Errorf("tallies depend on follower count:\nsingle: %+v\nladder: %+v", single, ladder)
	}
}
