package core

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/learned"
)

func TestSchedulerRunsAllUnits(t *testing.T) {
	s := NewScheduler(3)
	var n atomic.Int64
	for i := 0; i < 50; i++ {
		s.Go(func() error { n.Add(1); return nil })
	}
	if err := s.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if n.Load() != 50 {
		t.Fatalf("ran %d of 50 units", n.Load())
	}
}

func TestSchedulerFailFast(t *testing.T) {
	s := NewScheduler(1)
	boom := errors.New("boom")
	var after atomic.Int64
	s.Go(func() error { return boom })
	// Give the failure time to land, then schedule more units: they must
	// be dropped, not run.
	if err := s.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want boom", err)
	}
	for i := 0; i < 10; i++ {
		s.Go(func() error { after.Add(1); return nil })
	}
	s.Wait()
	if after.Load() != 0 {
		t.Fatalf("%d units ran after failure", after.Load())
	}
}

func TestSchedulerFirstErrorWins(t *testing.T) {
	s := NewScheduler(4)
	first := errors.New("first")
	s.Go(func() error { return first })
	s.Go(func() error {
		time.Sleep(20 * time.Millisecond)
		return errors.New("late")
	})
	err := s.Wait()
	if !errors.Is(err, first) {
		t.Fatalf("Wait = %v, want the first error", err)
	}
}

// TestScheduledBenchmarkInterruptsSiblings: a failing benchmark must
// stop the other benchmarks' translator runs through the interrupt
// channel instead of letting them run to completion.
func TestScheduledBenchmarkInterruptsSiblings(t *testing.T) {
	// A benchmark whose build fails immediately.
	bad := Target{
		Name: "bad",
		Build: func(input string) (*guest.Image, interp.Tape, error) {
			return nil, nil, errors.New("no such program")
		},
	}
	// A very long-running benchmark (far beyond test patience without
	// the interrupt).
	slow := BuildFromAsm("slow", loopProgram())

	// Three slots: the slow benchmark's two run units occupy two, so the
	// failing benchmark still gets one to report from.
	s := NewScheduler(3)
	ScheduleBenchmark(s, slow, Options{Thresholds: []uint64{100}}, nil)
	// Let the slow run start before the failure arrives.
	time.Sleep(50 * time.Millisecond)
	ScheduleBenchmark(s, bad, Options{Thresholds: []uint64{100}}, nil)
	done := make(chan error, 1)
	go func() { done <- s.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("Wait returned nil, want the build failure")
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("fail-fast did not interrupt the long-running benchmark")
	}
}

// loopProgram iterates ~2^32 times (r1 wraps to zero), far beyond test
// patience, so completing it means fail-fast cancellation is broken.
func loopProgram() string {
	return `
.entry main
main:
	loadi r1, 0
	loadi r2, 8191
outer:
	in r4
	blt r4, r2, hot
hot:
	addi r1, r1, 1
	bne r1, r0, outer
	halt
`
}

// TestBuildCacheBuildsOncePerInput: with a tape factory the scheduler
// must invoke Build once per (benchmark, input) regardless of ladder
// width.
func TestBuildCacheBuildsOncePerInput(t *testing.T) {
	var builds atomic.Int64
	base := BuildFromAsm("cached", counterProgram())
	target := Target{
		Name: "cached",
		Build: func(input string) (*guest.Image, interp.Tape, error) {
			builds.Add(1)
			return base.Build(input)
		},
		NewTape: base.NewTape,
	}
	if _, err := RunBenchmark(target, Options{Thresholds: []uint64{50, 100, 200, 400}}); err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != 2 {
		t.Fatalf("Build called %d times, want 2 (ref+train)", got)
	}
}

func counterProgram() string {
	return `
.entry main
main:
	loadi r1, 0
	loadi r2, 2000
	loadi r3, 4096
loop:
	in r4
	blt r4, r3, taken
	addi r5, r5, 1
taken:
	addi r1, r1, 1
	blt r1, r2, loop
	halt
`
}

// TestScheduledModesAgree: the scheduled shared-trace pipeline at 1 and
// GOMAXPROCS workers must produce exactly the result of the serial-run
// oracle — one translator run per config, nothing shared — with every
// study axis riding the trace: dynamic predictors, the learned
// collection, and sampled ladders (period 1 is full instrumentation by
// definition, period 4 is not).
func TestScheduledModesAgree(t *testing.T) {
	// The duplicate rung exercises the dedup fan-out, which must be
	// invisible next to the oracle's genuine repeat run.
	opts := Options{
		Thresholds:     []uint64{20, 50, 50, 100},
		Perf:           true,
		KeepNormalized: true,
		KeepSnapshots:  true,
		Predictors:     []string{"2bit", "gshare"},
		Learned:        &learned.Config{Model: learned.ModelLogReg},
		SamplePeriods:  []uint64{1, 4},
		SampleSeed:     9,
	}
	for _, target := range []Target{
		BuildFromAsm("modes", counterProgram()),
		BuildFromAsm("phased", phasedSrc(4000, 1000, 7782, 819)),
	} {
		want := serialOracle(t, target, opts)
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			o := opts
			o.Workers = workers
			got, err := RunBenchmark(target, o)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", target.Name, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: scheduled result differs from the serial-run oracle", target.Name, workers)
			}
		}
	}
}

// TestKeepNormalizedDefaultOff: the memory knob must drop the per-run
// navep result unless requested.
func TestKeepNormalizedDefaultOff(t *testing.T) {
	target := BuildFromAsm("keepnorm", counterProgram())
	res, err := RunBenchmark(target, Options{Thresholds: []uint64{50}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].Normalized != nil {
		t.Fatalf("Normalized retained without KeepNormalized")
	}
	res, err = RunBenchmark(target, Options{Thresholds: []uint64{50}, KeepNormalized: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].Normalized == nil {
		t.Fatalf("Normalized dropped despite KeepNormalized")
	}
}
