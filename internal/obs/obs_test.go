package obs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRecorderRoundTrip: events emitted concurrently must all land in
// the sink, parse back strictly, and carry the span data verbatim.
func TestRecorderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(fmt.Sprintf("bench%d", w), UnitCompare, uint64(i+1), w,
					r.Start().Add(time.Duration(i)*time.Millisecond), time.Millisecond, 10, nil)
			}
		}()
	}
	wg.Wait()
	dropped, err := r.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if dropped != 0 {
		t.Fatalf("dropped %d events with an unbounded sink", dropped)
	}
	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(evs) != workers*per {
		t.Fatalf("got %d events, want %d", len(evs), workers*per)
	}
	for _, ev := range evs {
		if ev.DurNS != time.Millisecond.Nanoseconds() || ev.Blocks != 10 || ev.T == 0 {
			t.Fatalf("event fields mangled: %+v", ev)
		}
	}
}

// TestRecorderErrVerbatim: a unit error must be carried through the
// trace unmodified.
func TestRecorderErrVerbatim(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	r.Record("mcf", UnitTrain, 0, 3, r.Start(), time.Second, 0, errors.New("tape ran dry"))
	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Err != "tape ran dry" || evs[0].Worker != 3 {
		t.Fatalf("event = %+v", evs[0])
	}
}

// blockingWriter blocks every Write until released, simulating a
// stalled trace sink.
type blockingWriter struct {
	release chan struct{}
	buf     bytes.Buffer
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	<-w.release
	return w.buf.Write(p)
}

// TestRecorderOverflowDropsNotBlocks: with the sink stalled, a full
// queue must make Emit return immediately and count the overflow
// instead of stalling the worker. 2000 events overflow the encoder's
// 4k staging buffer many times over, so the encoder is guaranteed to
// block on the stalled sink and the queue (depth 1) to overflow, with
// no dependence on goroutine scheduling.
func TestRecorderOverflowDropsNotBlocks(t *testing.T) {
	const emitted = 2000
	w := &blockingWriter{release: make(chan struct{})}
	r := NewRecorderSize(w, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < emitted; i++ {
			r.Record("gzip", UnitRef, 0, 0, r.Start(), time.Millisecond, 1, nil)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Emit blocked on a stalled sink")
	}
	close(w.release)
	dropped, err := r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("stalled sink produced no drops")
	}
	evs, err := ReadEvents(&w.buf)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(evs))+dropped != emitted {
		t.Fatalf("%d written + %d dropped != %d emitted", len(evs), dropped, emitted)
	}
	// Close is idempotent.
	if d2, _ := r.Close(); d2 != dropped {
		t.Fatalf("second Close dropped = %d, want %d", d2, dropped)
	}
}

// TestEmitAfterCloseIsCountedNoop: a server-lifetime recorder outlives
// individual runs, so late emitters must neither panic on the closed
// channel nor vanish silently — every post-Close event is a counted
// drop, visible through Dropped at any time.
func TestEmitAfterCloseIsCountedNoop(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	r.Record("gzip", UnitRef, 0, 0, r.Start(), time.Millisecond, 1, nil)
	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r.Record("gzip", UnitCompare, 100, 0, r.Start(), time.Millisecond, 0, nil)
	}
	if got := r.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d after 3 post-Close emits, want 3", got)
	}
	// The second Close must report the same count and keep the sink
	// intact: exactly the pre-Close event is on disk.
	if d, err := r.Close(); d != 3 || err != nil {
		t.Fatalf("second Close = (%d, %v), want (3, nil)", d, err)
	}
	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 {
		t.Fatalf("sink holds %d events, want 1", len(evs))
	}
}

// TestEmitCloseRace hammers Emit from many goroutines while Close runs
// concurrently — the regression test for the send-on-closed-channel
// race a server-lifetime recorder is exposed to. Run under -race, it
// must stay silent; the accounting invariant written + dropped ==
// emitted must hold regardless of where Close lands.
func TestEmitCloseRace(t *testing.T) {
	const workers, per = 8, 200
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record("bench", UnitCompare, uint64(i+1), w, r.Start(), time.Microsecond, 0, nil)
			}
		}()
	}
	// Close lands somewhere in the middle of the emit storm.
	dropped, err := r.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	// Late emitters kept counting after Close returned its snapshot.
	final := r.Dropped()
	if final < dropped {
		t.Fatalf("Dropped went backwards: %d then %d", dropped, final)
	}
	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if uint64(len(evs))+final != workers*per {
		t.Fatalf("%d written + %d dropped != %d emitted", len(evs), final, workers*per)
	}
}

// TestNilRecorderIsNoop: a nil recorder (tracing off) must accept every
// call.
func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	r.Emit(Event{})
	r.Record("x", UnitBuild, 0, 0, time.Now(), 0, 0, nil)
	if r.Dropped() != 0 {
		t.Fatal("nil recorder dropped events")
	}
	if d, err := r.Close(); d != 0 || err != nil {
		t.Fatalf("nil Close = %d, %v", d, err)
	}
}

// TestReadEventsRejectsBadSchema: the strict reader is the schema
// validator, so each violation class must fail.
func TestReadEventsRejectsBadSchema(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"bench":"a","unit":"ref","worker":0,"start_ns":0,"dur_ns":1,"bogus":2}`,
		"unknown unit":  `{"bench":"a","unit":"warp","worker":0,"start_ns":0,"dur_ns":1}`,
		"missing bench": `{"unit":"ref","worker":0,"start_ns":0,"dur_ns":1}`,
		"negative dur":  `{"bench":"a","unit":"ref","worker":0,"start_ns":0,"dur_ns":-1}`,
		"bad worker":    `{"bench":"a","unit":"ref","worker":-2,"start_ns":0,"dur_ns":1}`,
		"not json":      `trace me`,
	}
	for name, line := range cases {
		if _, err := ReadEvents(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s: ReadEvents accepted %q", name, line)
		}
	}
}

// TestRecorderReportsSinkError: an encoding failure surfaces at Close.
func TestRecorderReportsSinkError(t *testing.T) {
	r := NewRecorder(errWriter{})
	r.Record("a", UnitRef, 0, 0, r.Start(), time.Millisecond, 0, nil)
	if _, err := r.Close(); err == nil {
		t.Fatal("Close swallowed the sink error")
	}
}

type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestSummarize: phase/bench aggregation and the wall span.
func TestSummarize(t *testing.T) {
	sec := time.Second.Nanoseconds()
	evs := []Event{
		{Bench: "gzip", Unit: UnitBuild, Worker: 0, StartNS: 0, DurNS: sec / 10},
		{Bench: "gzip", Unit: UnitRef, Worker: 0, StartNS: sec / 10, DurNS: 2 * sec, Blocks: 1000},
		// Only spans carrying lookups (executed engines) enter the hot
		// loop; gzip's ref span stands in for a trace from before the
		// counter existed.
		{Bench: "mcf", Unit: UnitRef, Worker: 1, StartNS: 0, DurNS: 3 * sec, Blocks: 2000, Lookups: 40},
		{Bench: "mcf", Unit: UnitCompare, Worker: 1, T: 50, StartNS: 3 * sec, DurNS: sec, Err: "boom"},
	}
	s := Summarize(evs)
	if s.Events != 4 || s.Workers != 2 {
		t.Fatalf("summary header wrong: %+v", s)
	}
	if s.Wall != 4*time.Second {
		t.Fatalf("wall = %v, want 4s", s.Wall)
	}
	if len(s.Phases) != 3 || s.Phases[0].Unit != UnitBuild || s.Phases[1].Unit != UnitRef {
		t.Fatalf("phase order wrong: %+v", s.Phases)
	}
	if s.Phases[1].Dur != 5*time.Second || s.Phases[1].Blocks != 3000 {
		t.Fatalf("ref phase aggregate wrong: %+v", s.Phases[1])
	}
	if s.Phases[2].Errs != 1 {
		t.Fatalf("compare errs = %d, want 1", s.Phases[2].Errs)
	}
	if s.Benches[0].Bench != "mcf" {
		t.Fatalf("bench order wrong: %+v", s.Benches)
	}
	if want := (HotLoop{Blocks: 2000, RunDur: 3 * time.Second, Lookups: 40}); s.Hot != want {
		t.Fatalf("hot loop = %+v, want %+v", s.Hot, want)
	}
	out := Render(evs)
	for _, want := range []string{"per phase", "per benchmark", "busy workers", "mcf", "gzip",
		"hot loop", "blocks/s", "cache lookups"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
}

// TestSummarizeEveryUnit: one traced event per unit the reader accepts
// gives one phase row per unit, so no accepted span drops out of
// -tracesum.
func TestSummarizeEveryUnit(t *testing.T) {
	all := []string{
		UnitBuild, UnitRef, UnitTrain, UnitCompare, UnitTrainCompare, UnitRun,
		UnitCacheHit, UnitCacheMiss, UnitCacheStore,
		UnitSampleCompare, UnitLearnedCollect, UnitLearnedFit,
	}
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	for _, unit := range all {
		r.Record("gzip", unit, 0, 0, time.Now(), time.Millisecond, 0, nil)
	}
	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(evs)
	if len(s.Phases) != len(all) {
		t.Fatalf("%d phase rows for %d units: %+v", len(s.Phases), len(all), s.Phases)
	}
	got := make(map[string]int)
	for _, p := range s.Phases {
		got[p.Unit] += p.Events
	}
	for _, unit := range all {
		if got[unit] != 1 {
			t.Fatalf("unit %s has %d summarized events, want 1", unit, got[unit])
		}
	}
}

// TestOccupancyIntegratesToBusyTime: the occupancy series times bin
// width must sum to the total busy nanoseconds, whatever the
// resolution.
func TestOccupancyIntegratesToBusyTime(t *testing.T) {
	sec := time.Second.Nanoseconds()
	evs := []Event{
		{Bench: "a", Unit: UnitRef, Worker: 0, StartNS: 0, DurNS: 4 * sec},
		{Bench: "b", Unit: UnitRef, Worker: 1, StartNS: sec, DurNS: 2 * sec},
		{Bench: "c", Unit: UnitCompare, Worker: 2, StartNS: 3*sec + sec/2, DurNS: sec / 2},
	}
	for _, bins := range []int{1, 7, 64} {
		x, busy := Occupancy(evs, bins)
		if len(x) != bins || len(busy) != bins {
			t.Fatalf("bins=%d: got %d/%d points", bins, len(x), len(busy))
		}
		width := 4.0 / float64(bins) // seconds per bin over the 4s wall
		var integral float64
		for _, v := range busy {
			integral += v * width
		}
		if diff := integral - 6.5; diff < -1e-6 || diff > 1e-6 {
			t.Fatalf("bins=%d: occupancy integral = %v s, want 6.5", bins, integral)
		}
	}
}

// TestSummarizeZeroDurationHotSpans pins the warm-cache guard on the
// blocks-per-second gauge: a span that carries hot-loop counters but
// zero wall time (a cache-warm unit replayed instantly) must yield a
// throughput of exactly 0 — never NaN or Inf — and the rendered
// summary must stay finite.
func TestSummarizeZeroDurationHotSpans(t *testing.T) {
	evs := []Event{
		{Bench: "gzip", Unit: UnitRef, Worker: 0, StartNS: 0, DurNS: 0,
			Blocks: 5000, Lookups: 42},
	}
	s := Summarize(evs)
	if s.Hot.Blocks != 5000 || s.Hot.RunDur != 0 {
		t.Fatalf("hot aggregate wrong: %+v", s.Hot)
	}
	got := s.Hot.BlocksPerSec()
	if got != 0 {
		t.Fatalf("BlocksPerSec over zero-duration spans = %v, want 0", got)
	}
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("BlocksPerSec leaked a non-finite value: %v", got)
	}
	out := Render(evs)
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(out, bad) {
			t.Fatalf("Render leaked %q into the summary:\n%s", bad, out)
		}
	}
}
