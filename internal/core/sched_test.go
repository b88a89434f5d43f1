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
	"repro/internal/resultcache"
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

// TestBuildCacheBuildsOncePerInput: the scheduler invokes Build once
// per (benchmark, input) regardless of ladder width — the whole ladder
// replays one reference trace — and needs no tape factory for it.
func TestBuildCacheBuildsOncePerInput(t *testing.T) {
	var builds atomic.Int64
	base := BuildFromAsm("cached", counterProgram())
	target := Target{
		Name: "cached",
		Build: func(input string) (*guest.Image, interp.Tape, error) {
			builds.Add(1)
			return base.Build(input)
		},
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
// definition, period 4 is not). The two snapshots the cache stores and
// the result does not carry, AVEP and the training run's, are read back
// from the cold run's entries and must equal the oracle's too.
func TestScheduledModesAgree(t *testing.T) {
	// The duplicate rung exercises the dedup fan-out, which must be
	// invisible next to the oracle's genuine repeat run.
	opts := Options{
		Thresholds:    []uint64{20, 50, 50, 100},
		Predictors:    []string{"2bit", "gshare"},
		Learned:       &learned.Config{Model: learned.ModelLogReg},
		SamplePeriods: []uint64{1, 4},
		CacheContext:  "modes",
	}
	for _, target := range []Target{
		BuildFromAsm("modes", counterProgram()),
		BuildFromAsm("phased", phasedSrc(4000, 1000, 7782, 819)),
	} {
		want, wantSnaps := serialOracle(t, target, opts)
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			dir := t.TempDir()
			store, err := resultcache.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			o := opts
			o.Cache = store
			var got *BenchmarkResult
			s := NewScheduler(workers)
			ScheduleBenchmark(s, target, o, func(r *BenchmarkResult) { got = r })
			if err := s.Wait(); err != nil {
				t.Fatalf("%s workers=%d: %v", target.Name, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: scheduled result differs from the serial-run oracle", target.Name, workers)
			}
			if !reflect.DeepEqual(storedSnapshots(t, dir), wantSnaps) {
				t.Fatalf("%s workers=%d: stored AVEP or training snapshot differs from the serial-run oracle's", target.Name, workers)
			}
		}
	}
}

// TestWarmBenchmarkReportsOnce: a fully warm benchmark's units finish in
// microseconds, so its reference unit can run to completion before the
// training unit is even spawned. Scheduled over and over on one pool,
// every benchmark must still report exactly once, with the complete
// cold result.
func TestWarmBenchmarkReportsOnce(t *testing.T) {
	const schedules = 200
	target := BuildFromAsm("tiny", counterProgram())
	opts, _ := cacheOpts(t, t.TempDir())
	opts.Thresholds, opts.Predictors, opts.SamplePeriods, opts.Learned = []uint64{50}, nil, nil, nil
	cold := runCached(t, target, opts)
	var warm Timing
	opts.Timing = &warm

	s := NewScheduler(4)
	var calls [schedules]atomic.Int64
	var got [schedules]*BenchmarkResult
	for i := range schedules {
		ScheduleBenchmark(s, target, opts, func(r *BenchmarkResult) {
			calls[i].Add(1)
			got[i] = r
		})
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := warm.BlocksExecuted.Load(); n != 0 {
		t.Fatalf("warm schedules executed %d guest blocks, want 0", n)
	}
	for i := range schedules {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("schedule %d: onDone fired %d times, want once", i, n)
		}
		if !reflect.DeepEqual(got[i], cold) {
			t.Fatalf("schedule %d: warm result differs from the cold one", i)
		}
	}
}
