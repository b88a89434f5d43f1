// Package obs is the study pipeline's observability layer: a
// lightweight flight recorder for scheduler work units plus the schema
// and reader shared by the summarizer, the CI smoke test and offline
// tooling.
//
// The recorder is built for use under full pool parallelism: Emit is a
// single non-blocking channel send, encoding happens on one dedicated
// goroutine behind a bounded queue, and overflow is counted instead of
// blocking a worker — a slow or broken trace sink can never stall the
// study or reorder its results. Events are written as JSONL, one
// self-contained object per line, so a truncated file loses only its
// tail.
package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Unit names of the pipeline spans the study emits. cmd/dbtrun emits
// UnitRun for its single translator execution.
const (
	UnitBuild        = "build"         // image/tape construction, once per benchmark input
	UnitRef          = "ref"           // reference-input execution (AVEP + shared INIP ladder)
	UnitTrain        = "train"         // training-input execution
	UnitCompare      = "compare"       // one follower's comparison with AVEP, inside the ref step
	UnitTrainCompare = "train_compare" // the INIP(train)-vs-AVEP comparison
	UnitRun          = "run"           // a standalone translator run (cmd/dbtrun)
	UnitCacheHit     = "cache_hit"     // a result-cache lookup that served a validated entry
	UnitCacheMiss    = "cache_miss"    // a result-cache lookup that found nothing usable
	UnitCacheStore   = "cache_store"   // a result-cache entry write (Err set when it failed)

	// Sampled-profiling spans (core.Options.SamplePeriods). T carries
	// the sample period, not a threshold; the sampled runs themselves
	// ride the reference run's own span.
	UnitSampleCompare = "sample_compare" // one period's sampled-vs-AVEP comparisons, inside the ref step

	// Learned-predictor spans (core.Options.Learned). Collection is
	// per-benchmark static feature extraction (the tallies ride the
	// reference run's own span); fitting is the study-level
	// cross-validated training pass, emitted under the pseudo-bench
	// "suite".
	UnitLearnedCollect = "learned_collect" // static branch-site feature extraction
	UnitLearnedFit     = "learned_fit"     // suite-level cross-validated training
)

// units lists every unit name in the order Summarize renders phases. It
// also gates ReadEvents: an unknown unit name means the producer and
// consumer disagree about the schema.
var units = []string{
	UnitBuild, UnitRef, UnitTrain, UnitCompare, UnitTrainCompare,
	UnitSampleCompare, UnitLearnedCollect, UnitLearnedFit,
	UnitRun, UnitCacheHit, UnitCacheMiss, UnitCacheStore,
}

// Event is one flight-recorder record: a completed span of pipeline
// work. Timestamps are nanoseconds relative to the recorder's creation,
// so per-phase sums reconcile exactly with the study's Perf totals and
// worker-occupancy plots need no clock-epoch bookkeeping.
type Event struct {
	// Bench is the benchmark (or image) name the span belongs to.
	Bench string `json:"bench"`
	// Unit is the span kind (Unit* constants).
	Unit string `json:"unit"`
	// T is the effective retranslation threshold for compare/run spans,
	// 0 where not applicable.
	T uint64 `json:"t,omitempty"`
	// Worker is the scheduler pool slot the span ran on.
	Worker int `json:"worker"`
	// StartNS/DurNS place the span on the run's timeline.
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
	// Blocks is the dynamic block-execution volume of run spans
	// (summed over every profiling context the span advanced).
	Blocks uint64 `json:"blocks,omitempty"`
	// Lookups is the translation-cache probe count of executed run
	// spans, summed like Blocks (see dbt.RunStats). Every executed
	// engine probes at least once, for its entry block, so a non-zero
	// count marks an executed span. Optional — cached or non-run spans
	// carry none, and traces recorded before the field existed still
	// parse (absent means zero).
	Lookups uint64 `json:"lookups,omitempty"`
	// Err carries the unit's error verbatim when it failed.
	Err string `json:"err,omitempty"`
}

// validate rejects records that do not match the schema.
func (ev *Event) validate() error {
	if ev.Bench == "" {
		return errors.New("missing bench")
	}
	if !slices.Contains(units, ev.Unit) {
		return fmt.Errorf("unknown unit %q", ev.Unit)
	}
	if ev.Worker < 0 {
		return fmt.Errorf("negative worker %d", ev.Worker)
	}
	if ev.StartNS < 0 || ev.DurNS < 0 {
		return fmt.Errorf("negative span [%d, +%d]", ev.StartNS, ev.DurNS)
	}
	return nil
}

// defaultBuffer is the recorder queue depth. At ~6 events per benchmark
// per study it is far above any sustained rate; overflow only happens
// when the sink stalls outright, and is then counted, not blocked on.
const defaultBuffer = 4096

// Recorder is the concurrent flight-recorder front end. All methods are
// safe for concurrent use and safe on a nil receiver (a nil *Recorder
// is "tracing off"), so call sites need no guards. The recorder is safe
// for a server lifetime: Emit racing with (or arriving after) Close is
// a counted no-op, never a send on a closed channel.
type Recorder struct {
	ch      chan Event
	flushed chan struct{}
	start   time.Time
	dropped atomic.Uint64
	// mu gates the channel against Close: Emit holds it shared for the
	// duration of the send attempt, Close holds it exclusively while
	// marking the recorder closed. Emitters therefore never observe a
	// closed channel, and a post-Close Emit lands in the closed branch.
	mu     sync.RWMutex
	closed bool
	err    error // encoder/flush error; read only after flushed closes
}

// NewRecorder starts a recorder writing JSONL to w. The caller must
// Close it to flush; w is not closed.
func NewRecorder(w io.Writer) *Recorder { return NewRecorderSize(w, defaultBuffer) }

// NewRecorderSize is NewRecorder with an explicit queue depth (tests
// exercise overflow with tiny queues).
func NewRecorderSize(w io.Writer, buffer int) *Recorder {
	if buffer < 1 {
		buffer = 1
	}
	r := &Recorder{
		ch:      make(chan Event, buffer),
		flushed: make(chan struct{}),
		start:   time.Now(),
	}
	go r.encode(w)
	return r
}

// encode is the single writer goroutine: it owns w for the recorder's
// lifetime, so no emitter ever takes an encoding or I/O hit.
func (r *Recorder) encode(w io.Writer) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for ev := range r.ch {
		if r.err == nil {
			r.err = enc.Encode(ev)
		}
	}
	if err := bw.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	close(r.flushed)
}

// Start is the recorder's epoch; Record computes StartNS against it.
func (r *Recorder) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.start
}

// Emit queues one event without blocking. If the queue is full — or
// the recorder is already closed — the event is dropped and counted.
// Emit is safe to race with Close: late events are counted no-ops.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		r.dropped.Add(1)
		return
	}
	select {
	case r.ch <- ev:
	default:
		r.dropped.Add(1)
	}
	r.mu.RUnlock()
}

// Record emits a completed span, translating the absolute start time to
// the recorder's timeline. A non-nil unit error is carried verbatim.
func (r *Recorder) Record(bench, unit string, t uint64, worker int, start time.Time, dur time.Duration, blocks uint64, err error) {
	r.RecordEvent(Event{Bench: bench, Unit: unit, T: t, Worker: worker, Blocks: blocks}, start, dur, err)
}

// RecordEvent is Record for callers that fill optional Event fields
// (the hot-loop counters of run spans): the identity and counter fields
// of ev are taken as given, its timeline fields are computed from
// start/dur against the recorder's epoch, and a non-nil unit error is
// carried verbatim.
func (r *Recorder) RecordEvent(ev Event, start time.Time, dur time.Duration, err error) {
	if r == nil {
		return
	}
	startNS := start.Sub(r.start).Nanoseconds()
	if startNS < 0 {
		startNS = 0
	}
	ev.StartNS = startNS
	ev.DurNS = dur.Nanoseconds()
	if err != nil {
		ev.Err = err.Error()
	}
	r.Emit(ev)
}

// Dropped returns the drop count so far — queue overflows plus events
// emitted after Close. The counter is updated atomically at the moment
// each event is dropped, so the value is exact at any time, not just
// after Close.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Close drains the queue, flushes the sink and returns the drop count
// together with the first encoding error, if any. Close is idempotent,
// and emitters may still be running: their events after this point are
// counted as dropped instead of written.
func (r *Recorder) Close() (dropped uint64, err error) {
	if r == nil {
		return 0, nil
	}
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.ch)
	}
	r.mu.Unlock()
	<-r.flushed
	return r.dropped.Load(), r.err
}

// ReadEvents parses a JSONL trace strictly: unknown fields, malformed
// lines and schema violations are errors, so the reader doubles as the
// schema validator for tests and CI.
func ReadEvents(rd io.Reader) ([]Event, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var evs []Event
	for n := 1; ; n++ {
		var ev Event
		err := dec.Decode(&ev)
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("obs: event %d: %w", n, err)
		}
		if err := ev.validate(); err != nil {
			return nil, fmt.Errorf("obs: event %d: %v", n, err)
		}
		evs = append(evs, ev)
	}
}
