package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/obs"
)

func mustPlan(t *testing.T, spec string) *faultinject.Plan {
	t.Helper()
	p, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runDegraded schedules every target on one Degrade scheduler and
// returns the completed results by name.
func runDegraded(t *testing.T, opts Options, targets ...Target) map[string]*BenchmarkResult {
	t.Helper()
	s := NewSchedulerPolicy(2, Degrade)
	done := make(map[string]*BenchmarkResult)
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	for _, target := range targets {
		target := target
		ScheduleBenchmark(s, target, opts, func(r *BenchmarkResult) {
			<-mu
			done[r.Name] = r
			mu <- struct{}{}
		})
	}
	if err := s.Wait(); err != nil {
		t.Fatalf("Degrade study failed outright: %v", err)
	}
	return done
}

// TestDegradeIsolatesFailingBenchmark: with an injected build failure
// on one benchmark, the study must complete, record exactly one
// UnitFailure on that benchmark, and leave the surviving benchmark's
// result bit-identical to a run without any faults.
func TestDegradeIsolatesFailingBenchmark(t *testing.T) {
	opts := Options{Thresholds: []uint64{50, 100}}
	bad := BuildFromAsm("bad", counterProgram())
	good := BuildFromAsm("good", counterProgram())

	clean, err := RunBenchmark(good, opts)
	if err != nil {
		t.Fatal(err)
	}

	faulty := opts
	faulty.Faults = mustPlan(t, "build:bad/ref")
	done := runDegraded(t, faulty, bad, good)

	if len(done) != 2 {
		t.Fatalf("completed %d benchmarks, want 2", len(done))
	}
	b := done["bad"]
	if len(b.Failures) != 1 {
		t.Fatalf("bad.Failures = %+v, want exactly one", b.Failures)
	}
	f := b.Failures[0]
	if f.Bench != "bad" || f.Unit != obs.UnitRef {
		t.Fatalf("failure misattributed: %+v", f)
	}
	if want := "core: build bad/ref: faultinject: build failure for bad/ref"; f.Err != want {
		t.Fatalf("failure error = %q, want %q", f.Err, want)
	}
	for i, tr := range b.PerT {
		if !reflect.DeepEqual(tr, (ThresholdResult{})) {
			t.Fatalf("failed benchmark recorded PerT[%d]: %+v", i, tr)
		}
	}
	if !reflect.DeepEqual(done["good"], clean) {
		t.Fatal("surviving benchmark's result differs from the fault-free run")
	}
}

// TestDegradePanicBecomesUnitFailure: an injected panic in the training
// comparison must degrade exactly that unit, not crash the process or
// take down the ladder the reference unit published.
func TestDegradePanicBecomesUnitFailure(t *testing.T) {
	opts := Options{
		Thresholds: []uint64{50, 100},
		Faults:     mustPlan(t, "panic:pan/train_compare"),
	}
	target := BuildFromAsm("pan", counterProgram())
	clean, err := RunBenchmark(target, Options{Thresholds: opts.Thresholds})
	if err != nil {
		t.Fatal(err)
	}
	done := runDegraded(t, opts, target)
	b := done["pan"]
	if len(b.Failures) != 1 {
		t.Fatalf("Failures = %+v, want exactly one", b.Failures)
	}
	f := b.Failures[0]
	if f.Unit != obs.UnitTrainCompare {
		t.Fatalf("failure misattributed: %+v", f)
	}
	if want := "core: train_compare unit of pan panicked: faultinject: panic in pan/train_compare"; f.Err != want {
		t.Fatalf("failure error = %q, want %q", f.Err, want)
	}
	if !reflect.DeepEqual(b.PerT, clean.PerT) {
		t.Fatal("the ladder differs from the fault-free run")
	}
	if b.Train != (metrics.Summary{}) || b.TrainRegions != (metrics.Summary{}) {
		t.Fatalf("panicked training comparison recorded a result: %+v", b.Train)
	}
}

// TestFailFastPanicIsFirstError: under the default policy an injected
// panic must cancel the study with the converted error, like any other
// unit failure.
func TestFailFastPanicIsFirstError(t *testing.T) {
	s := NewScheduler(2)
	opts := Options{
		Thresholds: []uint64{50},
		Faults:     mustPlan(t, "panic:pan/ref"),
	}
	ScheduleBenchmark(s, BuildFromAsm("pan", counterProgram()), opts, nil)
	err := s.Wait()
	if want := "core: ref unit of pan panicked: faultinject: panic in pan/ref"; err == nil || err.Error() != want {
		t.Fatalf("Wait = %v, want %q", err, want)
	}
}

// TestDegradeTrapIsolatesGuestFault: an injected guest trap mid-run
// must be recorded as a reference-unit failure while the sibling
// benchmark completes untouched.
func TestDegradeTrapIsolatesGuestFault(t *testing.T) {
	opts := Options{Thresholds: []uint64{50}}
	clean, err := RunBenchmark(BuildFromAsm("ok", counterProgram()), opts)
	if err != nil {
		t.Fatal(err)
	}
	faulty := opts
	faulty.Faults = mustPlan(t, "trap:trapped/ref@50")
	done := runDegraded(t, faulty,
		BuildFromAsm("trapped", counterProgram()), BuildFromAsm("ok", counterProgram()))
	b := done["trapped"]
	if len(b.Failures) != 1 || b.Failures[0].Unit != obs.UnitRef {
		t.Fatalf("Failures = %+v, want one ref-unit failure", b.Failures)
	}
	if !reflect.DeepEqual(done["ok"], clean) {
		t.Fatal("sibling benchmark's result differs from the fault-free run")
	}
}

// TestSlowFaultOnlyDelays: a slow fault must not change any result.
func TestSlowFaultOnlyDelays(t *testing.T) {
	target := BuildFromAsm("slowpoke", counterProgram())
	opts := Options{Thresholds: []uint64{50}}
	clean, err := RunBenchmark(target, opts)
	if err != nil {
		t.Fatal(err)
	}
	faulty := opts
	faulty.Faults = mustPlan(t, "slow:slowpoke/train:10ms")
	start := time.Now()
	got, err := RunBenchmark(target, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, clean) {
		t.Fatal("slow fault changed the result")
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("slow fault did not delay the unit")
	}
}

// TestStopReturnsErrStopped: cooperative Stop must interrupt in-flight
// guest runs and surface ErrStopped, not a unit error.
func TestStopReturnsErrStopped(t *testing.T) {
	for _, policy := range []FailurePolicy{FailFast, Degrade} {
		s := NewSchedulerPolicy(2, policy)
		ScheduleBenchmark(s, BuildFromAsm("longrun", loopProgram()),
			Options{Thresholds: []uint64{100}}, nil)
		time.Sleep(20 * time.Millisecond)
		s.Stop()
		done := make(chan error, 1)
		go func() { done <- s.Wait() }()
		select {
		case err := <-done:
			if !errors.Is(err, ErrStopped) {
				t.Fatalf("policy %v: Wait = %v, want ErrStopped", policy, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("policy %v: Stop did not interrupt the running benchmark", policy)
		}
	}
}

// TestParseFailurePolicy covers the flag round trip.
func TestParseFailurePolicy(t *testing.T) {
	for _, p := range []FailurePolicy{FailFast, Degrade} {
		got, err := ParseFailurePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip of %v: %v, %v", p, got, err)
		}
	}
	if _, err := ParseFailurePolicy("explode"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
