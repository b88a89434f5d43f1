// Run-level work scheduler: the study pipeline is decomposed into
// independent units — per-benchmark reference runs (every follower
// compared with AVEP) and training runs — scheduled over one shared
// bounded worker pool. The failure policy picks what a unit error does to the rest:
// fail-fast cancellation (one failing benchmark stops the whole study)
// or graceful degradation (the failing benchmark is isolated and the
// others run to completion).
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// FailurePolicy selects what a unit failure does to the rest of the
// study.
type FailurePolicy int

const (
	// FailFast cancels the whole pool on the first unit error: the study
	// stops, Wait returns that error verbatim, and no partial results are
	// reported. This is the default.
	FailFast FailurePolicy = iota
	// Degrade isolates a failing benchmark: the failing unit records
	// its failure in the benchmark's result (BenchmarkResult.Failures)
	// and publishes nothing, the benchmark reports once its last live
	// unit exits, and every other benchmark runs to
	// completion. The scheduler itself only cancels on Stop or on a
	// defect (a panic escaping a unit wrapper).
	Degrade
)

// String names the policy as it appears in flags and reports.
func (p FailurePolicy) String() string {
	switch p {
	case FailFast:
		return "failfast"
	case Degrade:
		return "degrade"
	}
	return fmt.Sprintf("FailurePolicy(%d)", int(p))
}

// ParseFailurePolicy parses a policy name as accepted on the command
// line.
func ParseFailurePolicy(s string) (FailurePolicy, error) {
	switch s {
	case "failfast":
		return FailFast, nil
	case "degrade":
		return Degrade, nil
	}
	return 0, fmt.Errorf("core: unknown failure policy %q (want failfast or degrade)", s)
}

// ErrStopped is the first error of a scheduler cancelled with Stop: a
// cooperative shutdown (SIGINT drain, a unit quota), distinct from a
// unit failure. Callers that keep partial results test for it with
// errors.Is.
var ErrStopped = errors.New("core: study stopped")

// Scheduler is a bounded worker pool with first-error fail-fast. Units
// are scheduled with Go/GoW.
//
// Pool slots carry stable ids in [0, Workers): a unit learns which slot
// it occupies (GoW), which is what lets the observability layer plot
// worker occupancy from the flight-recorder events.
type Scheduler struct {
	ids     chan int
	workers int
	policy  FailurePolicy
	done    chan struct{}
	once    sync.Once
	err     error
	wg      sync.WaitGroup
}

// NewScheduler returns a fail-fast scheduler running at most workers
// units concurrently. The default (workers <= 0) is GOMAXPROCS, which —
// unlike NumCPU — respects cgroup quotas and GOMAXPROCS overrides.
func NewScheduler(workers int) *Scheduler {
	return NewSchedulerPolicy(workers, FailFast)
}

// NewSchedulerPolicy is NewScheduler with an explicit failure policy.
func NewSchedulerPolicy(workers int, policy FailurePolicy) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ids := make(chan int, workers)
	for i := 0; i < workers; i++ {
		ids <- i
	}
	return &Scheduler{
		ids:     ids,
		workers: workers,
		policy:  policy,
		done:    make(chan struct{}),
	}
}

// Policy reports the scheduler's failure policy.
func (s *Scheduler) Policy() FailurePolicy { return s.policy }

// Workers reports the resolved pool size — the number the scheduler
// actually runs with, not the possibly-zero value it was asked for.
func (s *Scheduler) Workers() int { return s.workers }

// Done returns a channel closed when the scheduler has failed. Units
// pass it to dbt.Config.Interrupt so in-flight translator runs stop
// promptly instead of running the guest to completion.
func (s *Scheduler) Done() <-chan struct{} { return s.done }

// fail records the first error and cancels the pool.
func (s *Scheduler) fail(err error) {
	s.once.Do(func() {
		s.err = err
		close(s.done)
	})
}

// Stop cancels the pool cooperatively: pending units are dropped,
// in-flight translator runs are interrupted through Done, and Wait
// returns ErrStopped (unless a unit failure already won the race).
func (s *Scheduler) Stop() { s.fail(ErrStopped) }

// Stopped reports whether the pool is cancelling — by Stop or by a
// failure. A unit that fails meanwhile propagates its error instead of
// recording it as a Degrade failure: the study is ending anyway.
func (s *Scheduler) Stopped() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Go schedules a unit that does not need its worker id.
func (s *Scheduler) Go(f func() error) {
	s.GoW(func(int) error { return f() })
}

// GoW schedules a unit, passing it the id of the pool slot it runs on.
// Units scheduled after a failure, or still waiting for a slot when one
// happens, are dropped.
func (s *Scheduler) GoW(f func(worker int) error) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		var id int
		select {
		case id = <-s.ids:
		case <-s.done:
			return
		}
		defer func() { s.ids <- id }()
		select {
		case <-s.done:
			return
		default:
		}
		if err := s.protect(f, id); err != nil {
			s.fail(err)
		}
	}()
}

// protect is the pool's panic backstop: a panic that escapes a unit —
// the study's own unit wrappers convert expected panics to recorded
// failures first, so anything arriving here is a defect — becomes the
// scheduler's first error instead of crashing the process, and the
// other workers drain normally.
func (s *Scheduler) protect(f func(int) error, id int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: unit panicked: %v", r)
		}
	}()
	return f(id)
}

// Wait blocks until every scheduled unit has finished (or been dropped
// by a failure) and returns the first error, if any.
func (s *Scheduler) Wait() error {
	s.wg.Wait()
	return s.err
}
