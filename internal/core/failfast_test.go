package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/dbt"
	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/obs"
)

// TestFailFastFirstErrorVerbatim: a failing unit must surface its error
// verbatim as the scheduler's first error, the benchmark's onDone must
// never fire, and no ThresholdResult may be partially recorded.
func TestFailFastFirstErrorVerbatim(t *testing.T) {
	boom := errors.New("the build exploded")
	bad := Target{
		Name: "failing",
		Build: func(input string) (*guest.Image, interp.Tape, error) {
			if input == "ref" {
				return nil, nil, boom
			}
			return BuildFromAsm("failing", counterProgram()).Build(input)
		},
	}
	s := NewScheduler(2)
	var doneCalls atomic.Int64
	b := scheduleBenchmark(s, bad, Options{Thresholds: []uint64{20, 50, 100}},
		func(*BenchmarkResult) { doneCalls.Add(1) })
	err := s.Wait()
	if err == nil {
		t.Fatal("Wait returned nil, want the build failure")
	}
	if want := "core: build failing/ref: the build exploded"; err.Error() != want {
		t.Fatalf("error not verbatim:\n got %q\nwant %q", err.Error(), want)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error chain lost the cause: %v", err)
	}
	if doneCalls.Load() != 0 {
		t.Fatal("onDone fired despite failure")
	}
	// The reference unit failed before it compared or published anything,
	// so the ladder slots must be untouched zero values — a failing study
	// must not leave half-written results behind.
	for i, tr := range b.out.PerT {
		if !reflect.DeepEqual(tr, (ThresholdResult{})) {
			t.Fatalf("PerT[%d] partially recorded after failure: %+v", i, tr)
		}
	}

	// Scheduling onto the already-failed scheduler drops every unit: no
	// result writes, no onDone, same first error.
	good := BuildFromAsm("late", counterProgram())
	late := scheduleBenchmark(s, good, Options{Thresholds: []uint64{20}},
		func(*BenchmarkResult) { doneCalls.Add(1) })
	if werr := s.Wait(); werr != err {
		t.Fatalf("first error replaced: %v", werr)
	}
	if doneCalls.Load() != 0 {
		t.Fatal("onDone fired for a benchmark scheduled after failure")
	}
	if late.avep != nil || !reflect.DeepEqual(late.out.PerT[0], (ThresholdResult{})) {
		t.Fatal("dropped benchmark recorded results")
	}
}

// TestFailFastComparisonErrorVerbatim drives the deepest failure path —
// the training comparison, which runs inline in a run unit rather than
// as its own scheduled unit — and checks it reaches the scheduler
// verbatim and leaves its host unit live.
func TestFailFastComparisonErrorVerbatim(t *testing.T) {
	target := BuildFromAsm("cmpfail", counterProgram())
	img, tape, err := target.Build("ref")
	if err != nil {
		t.Fatal(err)
	}
	// An optimized snapshot carries regions, which navep rejects as an
	// average profile — the natural way to force a comparison error.
	optimized, _, err := dbt.Run(img, tape, dbt.Config{
		Input: "ref", Optimize: true, Threshold: 20, RegisterTwice: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(optimized.Regions) == 0 {
		t.Fatal("optimized run formed no regions; test premise broken")
	}
	trainTape, err := target.NewTape("train")
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := dbt.Run(img, trainTape, dbt.Config{Input: "train"})
	if err != nil {
		t.Fatal(err)
	}

	s := NewScheduler(1)
	var doneCalls atomic.Int64
	b := &benchRun{
		s:      s,
		t:      target,
		out:    &BenchmarkResult{Name: target.Name},
		onDone: func(*BenchmarkResult) { doneCalls.Add(1) },
		live:   1,
	}
	b.avep = optimized
	b.train = train
	// Host the comparison in a spawned unit, as the second run unit to
	// finish does.
	b.spawn(obs.UnitTrain, b.maybeCompareTrain)

	err = s.Wait()
	want := fmt.Sprintf("core: train comparison of cmpfail: navep: average profile must be unoptimized, has %d regions",
		len(optimized.Regions))
	if err == nil || err.Error() != want {
		t.Fatalf("error not verbatim:\n got %v\nwant %q", err, want)
	}
	if doneCalls.Load() != 0 {
		t.Fatal("onDone fired despite comparison failure")
	}
	b.mu.Lock()
	live := b.live
	b.mu.Unlock()
	if live != 1 {
		t.Fatalf("failed comparison let its host exit: live = %d, want 1", live)
	}
}

// TestLadderCollapseDedup: duplicate effective thresholds (a heavily
// scaled-down ladder clamps several rungs to the same value) must run
// one follower per distinct threshold, with the shared result fanned out
// to every collapsed rung under its own label.
func TestLadderCollapseDedup(t *testing.T) {
	target := BuildFromAsm("collapse", counterProgram())
	collapsed := []uint64{50, 50, 50, 100}
	distinct := []uint64{50, 100}

	runWith := func(ladder []uint64) (*BenchmarkResult, *Timing) {
		var tm Timing
		res, err := RunBenchmark(target, Options{Thresholds: ladder, Timing: &tm})
		if err != nil {
			t.Fatalf("ladder %v: %v", ladder, err)
		}
		return res, &tm
	}

	dup, dupTm := runWith(collapsed)
	ded, dedTm := runWith(distinct)

	// Every collapsed rung carries the shared result under its own label.
	for i, wantT := range collapsed {
		if dup.PerT[i].T != wantT {
			t.Fatalf("PerT[%d].T = %d, want %d", i, dup.PerT[i].T, wantT)
		}
	}
	for i := 1; i < 3; i++ {
		if !reflect.DeepEqual(dup.PerT[0], dup.PerT[i]) {
			t.Fatalf("collapsed rungs 0 and %d differ", i)
		}
	}
	if !reflect.DeepEqual(dup.PerT[0], ded.PerT[0]) || !reflect.DeepEqual(dup.PerT[3], ded.PerT[1]) {
		t.Fatal("collapsed ladder results differ from the distinct ladder")
	}

	// Dedup is real work saved: the duplicated ladder executes exactly
	// as many blocks as the distinct one.
	if got, want := dupTm.BlocksExecuted.Load(), dedTm.BlocksExecuted.Load(); got != want {
		t.Fatalf("deduped ladder executed %d blocks, distinct ladder %d", got, want)
	}

	// And determinism still holds: the serial-run oracle's genuine
	// repeat runs produce the values the fan-out copied.
	if oracle, _ := serialOracle(t, target, Options{Thresholds: collapsed}); !reflect.DeepEqual(oracle, dup) {
		t.Fatal("serial-run oracle differs from the deduped shared-trace result")
	}
}
