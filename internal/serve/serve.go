// Package serve exposes one measurement of the study pipeline — one
// benchmark at one threshold — as a long-running HTTP/JSON service. One
// daemon process owns the expensive shared state — a bounded
// core.Scheduler for the study's run units, the content-addressed result
// cache, a server-lifetime flight recorder — and requests from many
// clients are admitted into it instead of each invocation paying
// cold-start and fighting for the machine. Full-suite studies are
// inipstudy's job; a stopped one resumes by rerunning it with the same
// result cache.
//
// Endpoints:
//
//	POST /v1/compare       one benchmark × threshold, synchronous
//	GET  /v1/metrics       Prometheus text exposition
//	GET  /healthz          process liveness
//	GET  /readyz           admission readiness (503 while draining)
//
// Admission control is deliberate and layered: at most MaxInflight
// compare requests execute concurrently, at most MaxQueue more may wait
// for a slot, and anything beyond that is rejected immediately with 429
// and a Retry-After hint rather than queued unboundedly. Every admitted
// request carries a deadline (its own timeout_ms or the server default)
// and times out with 504. Identical in-flight compares — same
// benchmark, threshold and scale, hence the same image, tape and engine
// fingerprint — are coalesced into one scheduler unit whose result
// every caller shares; with a result cache configured, a repeated
// compare is served warm, executing zero guest blocks.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/learned"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/resultcache"
	"repro/internal/spec"
	"repro/internal/study"
)

// Config configures a Server. The zero value of every field has a
// usable default. New refuses a negative Workers, MaxInflight or
// DefaultTimeout, and a Scale the study refuses.
type Config struct {
	// Scale is the default paper-unit scale for requests that do not
	// carry their own (default 1.0).
	Scale float64
	// Workers bounds the shared comparison scheduler (default
	// GOMAXPROCS).
	Workers int
	// MaxInflight bounds concurrently-executing compare requests
	// (default 2×Workers).
	MaxInflight int
	// MaxQueue bounds compare requests waiting for an inflight slot;
	// arrivals beyond it get 429 (default 8; negative disables waiting
	// entirely, so anything beyond MaxInflight is rejected on arrival).
	MaxQueue int
	// DefaultTimeout is the per-request deadline when the request does
	// not set timeout_ms (default 2 minutes).
	DefaultTimeout time.Duration
	// Cache, when non-nil, memoizes unit results; warm compares execute
	// zero guest blocks.
	Cache *resultcache.Store
	// Trace, when non-nil, receives one flight-recorder event per
	// pipeline span across the server's whole lifetime — every compare
	// shares it, which is exactly the Emit-after-Close exposure the
	// recorder's close gate exists for.
	Trace *obs.Recorder
}

// defaults fills in the zero values and rejects what New refuses.
func (c *Config) defaults() error {
	switch {
	case c.Workers < 0:
		return fmt.Errorf("serve: invalid worker count %d (want >= 0; 0 selects GOMAXPROCS)", c.Workers)
	case c.MaxInflight < 0:
		return fmt.Errorf("serve: invalid inflight bound %d (want >= 0; 0 selects 2x workers)", c.MaxInflight)
	case c.DefaultTimeout < 0:
		return fmt.Errorf("serve: invalid default timeout %v (want >= 0; 0 selects 2m)", c.DefaultTimeout)
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if err := (&study.Config{Scale: c.Scale}).Validate(); err != nil {
		return fmt.Errorf("serve: default scale: %w", err)
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 2 * max(c.Workers, 1)
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	} else if c.MaxQueue == 0 {
		c.MaxQueue = 8
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	return nil
}

// Server is the compare daemon's state.
type Server struct {
	cfg   Config
	sched *core.Scheduler
	mux   *http.ServeMux
	start time.Time

	// benches is the suite by name, built once: building it per request
	// cost a warm compare over a third of its allocations. Compares only
	// read the descriptions.
	benches map[string]*spec.Benchmark

	// Admission: inflight tokens plus a bounded wait counter.
	inflight chan struct{}
	queued   atomic.Int64

	// Coalescing: one flight per identical in-progress compare.
	// flightMu also orders flight registration against draining:
	// a new flight joins flightWG only while draining is unset, so
	// Drain's wait can never race an Add.
	flightMu sync.Mutex
	flights  map[string]*flight
	flightWG sync.WaitGroup

	// exec performs one comparison: a validated one-benchmark,
	// one-threshold study config (see compareConfig). Tests swap it to
	// count and gate executions without running the pipeline.
	exec func(key string, cfg study.Config) *compareOut

	// Mean compare duration, the Retry-After estimator's numerator.
	// Tests seed these directly to make the hint deterministic.
	compareDurNS    atomic.Int64
	compareDurCount atomic.Int64

	// Per-predictor accuracy totals across every compare this process
	// answered (cold or warm), exposed at /v1/metrics.
	predMu     sync.Mutex
	predTotals map[string]*predictTotals

	draining atomic.Bool
	m        serverMetrics
}

// predictTotals accumulates one predictor's branch stream across
// compare requests.
type predictTotals struct {
	branches    uint64
	mispredicts uint64
}

// serverMetrics is the server's own accounting, exposed at /v1/metrics.
type serverMetrics struct {
	compareRequests  atomic.Uint64
	compareOK        atomic.Uint64
	compareOverload  atomic.Uint64 // 429s
	compareDeadline  atomic.Uint64 // 504s
	compareCoalesced atomic.Uint64 // served from another caller's flight
	compareWarm      atomic.Uint64 // 200s with zero guest blocks executed
	compareErrors    atomic.Uint64 // 5xx other than deadline
	guestBlocks      atomic.Uint64 // block executions of every flight, failed ones included

	// Sampled-profiling compare accounting (requests with sample_period):
	// how many ran, and their aggregate sampled vs full-instrumentation
	// counter-update volume — the numerator and denominator of the
	// exported cost-ratio gauge.
	sampledCompares atomic.Uint64
	sampledOps      atomic.Uint64
	sampledFullOps  atomic.Uint64

	// Learned-model compare accounting (requests with learned): how
	// many ran, and the aggregate held-out branch stream with its
	// learned and always-taken mispredict volumes.
	learnedCompares         atomic.Uint64
	learnedBranches         atomic.Uint64
	learnedMispredicts      atomic.Uint64
	learnedTakenMispredicts atomic.Uint64
}

// New builds a Server and starts its shared scheduler. The caller
// serves s.Handler() and must call Drain before exit.
func New(cfg Config) (*Server, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		sched: core.NewSchedulerPolicy(cfg.Workers, core.Degrade),
		start: time.Now(),

		inflight: make(chan struct{}, cfg.MaxInflight),
		flights:  make(map[string]*flight),

		predTotals: make(map[string]*predictTotals),
	}
	s.benches = make(map[string]*spec.Benchmark)
	for _, b := range spec.Suite() {
		s.benches[b.Name] = b
	}
	s.exec = s.runCompare
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/compare", s.handleCompare)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() || s.sched.Stopped() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
}

// Drain begins a graceful shutdown: readiness drops, new work is
// rejected, and Drain blocks until every compare flight has finished or
// the deadline passes. That includes flights whose callers already got
// their 504: such a flight still runs to completion so that its result
// lands in the cache, and its trace events must reach the recorder
// before the caller closes it. The HTTP server's own Shutdown then
// waits for the handlers.
func (s *Server) Drain(timeout time.Duration) error {
	s.flightMu.Lock()
	s.draining.Store(true)
	s.flightMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.flightWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("serve: drain timed out after %v", timeout)
	}
}

// errorJSON writes a {"error": ...} body with the given status.
func errorJSON(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxRequestBody bounds a request body. The largest legitimate body —
// a compare request naming every predictor — is well under 1 KiB.
const maxRequestBody = 1 << 20

// decodeBody decodes a JSON request body of at most maxRequestBody
// bytes into v. An oversize body is answered with 413 and a malformed
// one with 400; it reports whether v was decoded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		errorJSON(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxRequestBody)
	default:
		errorJSON(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

// admit applies the admission layer: an immediate inflight slot if one
// is free, a bounded wait otherwise, 429 when the wait line is full,
// 504 when the request's deadline expires first. On success the
// returned release must be called exactly once.
func (s *Server) admit(r *http.Request) (release func(), status int) {
	if s.draining.Load() {
		return nil, http.StatusServiceUnavailable
	}
	select {
	case s.inflight <- struct{}{}:
		return func() { <-s.inflight }, 0
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		return nil, http.StatusTooManyRequests
	}
	defer s.queued.Add(-1)
	select {
	case s.inflight <- struct{}{}:
		return func() { <-s.inflight }, 0
	case <-r.Context().Done():
		return nil, http.StatusGatewayTimeout
	}
}

// retryAfterSeconds estimates when a rejected caller should come back:
// the current backlog (occupied inflight slots plus the wait line)
// times the mean compare duration, spread over the parallel slots,
// rounded up to whole seconds and clamped to [1, 60]. The estimate is
// always inside that documented interval — never 0, even on a fresh
// server that has completed no compare (the mean defaults to one
// second, reproducing the old fixed hint) or a server whose config
// bypassed defaults() with zero inflight slots (the divisor is clamped
// to 1, not divided through). Deterministic given the duration totals,
// which tests seed directly.
func (s *Server) retryAfterSeconds() int {
	mean := time.Second
	if n := s.compareDurCount.Load(); n > 0 {
		mean = time.Duration(s.compareDurNS.Load() / n)
	}
	backlog := int64(len(s.inflight)) + s.queued.Load()
	if backlog < 1 {
		backlog = 1
	}
	slots := s.cfg.MaxInflight
	if slots < 1 {
		slots = 1
	}
	est := time.Duration(backlog) * mean / time.Duration(slots)
	secs := int64((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return int(secs)
}

// maxTimeoutMS is the largest timeout_ms whose deadline is representable
// as a time.Duration; a larger one would overflow into a deadline that
// has already passed.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// compareRequest is the POST /v1/compare body. The daemon lowers it to a
// one-benchmark, one-threshold study.Config (compareConfig), so the
// study's Validate is the one judge of its fields.
type compareRequest struct {
	// Bench is the benchmark name (spec suite).
	Bench string `json:"bench"`
	// T is the retranslation threshold in paper units.
	T float64 `json:"t"`
	// Scale overrides the server's default paper-unit scale.
	Scale float64 `json:"scale,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Predictors selects dynamic branch predictors to run over the
	// benchmark's reference trace (see internal/predict). Empty keeps
	// the response byte-identical to requests made before the field
	// existed.
	Predictors []string `json:"predictors,omitempty"`
	// SamplePeriod, when > 0, additionally reruns the comparison with
	// sampled profiling at that period (dbt.Config.SamplePeriod) and
	// reports the sampled summary plus its measured profiling-cost ratio.
	// Zero (the default) keeps the response byte-identical to requests
	// made before the field existed.
	SamplePeriod uint64 `json:"sample_period,omitempty"`
	// Learned, when non-empty, selects the profile-free learned static
	// branch model family ("logreg" or "tree") to score on this
	// benchmark held-out: the model trains on the rest of the suite's
	// reference collections (warmed through the shared result cache)
	// and never sees any profile of the requested benchmark. Empty (the
	// default) keeps the response byte-identical to requests made
	// before the field existed.
	Learned string `json:"learned,omitempty"`
}

// summaryWire is metrics.Summary with JSON names pinned: the struct in
// internal/metrics is a computation type without tags, and the wire
// shape must not drift when it grows fields.
type summaryWire struct {
	SdBP       float64 `json:"sd_bp"`
	BPMismatch float64 `json:"bp_mismatch"`
	HasRegions bool    `json:"has_regions"`
	SdCP       float64 `json:"sd_cp,omitempty"`
	SdLP       float64 `json:"sd_lp,omitempty"`
	LPMismatch float64 `json:"lp_mismatch,omitempty"`
	Blocks     int     `json:"blocks"`
	Traces     int     `json:"traces,omitempty"`
	Loops      int     `json:"loops,omitempty"`
}

func toWire(m metrics.Summary) summaryWire {
	return summaryWire{
		SdBP:       m.SdBP,
		BPMismatch: m.BPMismatch,
		HasRegions: m.HasRegions,
		SdCP:       m.SdCP,
		SdLP:       m.SdLP,
		LPMismatch: m.LPMismatch,
		Blocks:     m.Blocks,
		Traces:     m.Traces,
		Loops:      m.Loops,
	}
}

// compareResponse is the POST /v1/compare body on success. It contains
// only result data — everything volatile per-invocation (guest blocks
// executed, cache temperature, coalescing role) travels in X-Inipd-*
// headers — so a warm response is byte-identical to the cold one that
// seeded the cache.
type compareResponse struct {
	Bench      string             `json:"bench"`
	Class      string             `json:"class"`
	Scale      float64            `json:"scale"`
	TPaper     float64            `json:"t_paper"`
	TEffective uint64             `json:"t_effective"`
	Summary    summaryWire        `json:"summary"`
	Train      summaryWire        `json:"train"`
	Failures   []core.UnitFailure `json:"failures,omitempty"`
	// Predictors carries the dynamic-predictor tallies in request
	// order; omitted entirely without a predictor selection, keeping
	// legacy responses byte-identical.
	Predictors []predictorWire `json:"predictors,omitempty"`
	// SamplePeriod echoes the request's sampled-profiling period and
	// Sampled carries the sampled rerun; both are omitted entirely
	// without the request field, keeping legacy responses byte-identical.
	SamplePeriod uint64       `json:"sample_period,omitempty"`
	Sampled      *sampledWire `json:"sampled,omitempty"`
	// Learned carries the held-out learned-model evaluation; omitted
	// entirely without the request field, keeping legacy responses
	// byte-identical.
	Learned *learnedWire `json:"learned,omitempty"`
}

// learnedWire is the held-out learned-model evaluation on the wire:
// the requested benchmark's branch stream scored by a model trained on
// every other suite benchmark's reference collection.
type learnedWire struct {
	Fingerprint      string  `json:"fingerprint"`
	Branches         uint64  `json:"branches"`
	Mispredicts      uint64  `json:"mispredicts"`
	MispredictRate   float64 `json:"mispredict_rate"`
	TakenMispredicts uint64  `json:"taken_mispredicts"`
	// TrainBenchmarks counts the corpus the model trained on (the suite
	// minus the requested benchmark).
	TrainBenchmarks int `json:"train_benchmarks"`
}

// sampledWire is the sampled-profiling rerun on the wire: the same
// comparison re-measured with counters updated only every Nth block
// event, plus its measured profiling cost against the
// full-instrumentation run.
type sampledWire struct {
	Summary summaryWire `json:"summary"`
	// ProfilingOps counts the sampled run's actual counter updates and
	// FullProfilingOps the full-instrumentation run's; CostRatio is
	// their quotient (0 when the full run performed none, never NaN) and
	// SdBPDelta the accuracy price (sampled minus full Sd.BP).
	ProfilingOps     uint64  `json:"profiling_ops"`
	FullProfilingOps uint64  `json:"full_profiling_ops"`
	CostRatio        float64 `json:"cost_ratio"`
	SdBPDelta        float64 `json:"sd_bp_delta"`
}

// predictorWire is one predictor tally on the wire.
type predictorWire struct {
	Predictor      string  `json:"predictor"`
	Branches       uint64  `json:"branches"`
	Mispredicts    uint64  `json:"mispredicts"`
	MispredictRate float64 `json:"mispredict_rate"`
}

// compareOut is one flight's outcome, shared by every coalesced caller.
type compareOut struct {
	status int
	errMsg string
	body   []byte
	blocks uint64
}

// flight is one in-progress comparison; followers wait on done and
// share out.
type flight struct {
	done chan struct{}
	out  *compareOut
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	s.m.compareRequests.Add(1)
	var req compareRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.TimeoutMS < 0 || req.TimeoutMS > maxTimeoutMS {
		errorJSON(w, http.StatusBadRequest, "timeout_ms must be in [0, %d], got %d", maxTimeoutMS, req.TimeoutMS)
		return
	}
	cfg, err := s.compareConfig(req)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	r = r.WithContext(ctx)

	release, status := s.admit(r)
	switch status {
	case 0:
		defer release()
	case http.StatusTooManyRequests:
		s.m.compareOverload.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		errorJSON(w, status, "server at capacity (%d inflight, %d queued)", s.cfg.MaxInflight, s.cfg.MaxQueue)
		return
	case http.StatusGatewayTimeout:
		s.m.compareDeadline.Add(1)
		errorJSON(w, status, "deadline expired while queued for admission")
		return
	default:
		errorJSON(w, status, "draining")
		return
	}

	// Coalesce identical in-flight work: the key pins everything that
	// determines the result (benchmark → image+tape, threshold →
	// engine config, scale → ladder clamp, predictor list, sample
	// period and learned model → response tail), so sharing is safe.
	// Axis-less requests keep the legacy key shape.
	key := fmt.Sprintf("%s|t=%g|scale=%g", cfg.Benchmarks[0].Name, cfg.Thresholds[0], cfg.Scale)
	if len(cfg.Predictors) > 0 {
		key += "|bp=" + strings.Join(cfg.Predictors, ",")
	}
	if len(cfg.SamplePeriods) > 0 {
		key += fmt.Sprintf("|sp=%d", cfg.SamplePeriods[0])
	}
	if cfg.Learned != nil {
		key += "|ls=" + cfg.Learned.Fingerprint()
	}
	s.flightMu.Lock()
	f, follower := s.flights[key]
	if !follower {
		if s.draining.Load() {
			s.flightMu.Unlock()
			errorJSON(w, http.StatusServiceUnavailable, "draining")
			return
		}
		f = &flight{done: make(chan struct{})}
		s.flights[key] = f
		s.flightWG.Add(1)
	}
	s.flightMu.Unlock()

	if follower {
		s.m.compareCoalesced.Add(1)
	} else {
		go func() {
			defer s.flightWG.Done()
			execStart := time.Now()
			f.out = s.exec(key, cfg)
			s.m.guestBlocks.Add(f.out.blocks)
			s.compareDurNS.Add(int64(time.Since(execStart)))
			s.compareDurCount.Add(1)
			s.flightMu.Lock()
			delete(s.flights, key)
			s.flightMu.Unlock()
			close(f.done)
		}()
	}

	select {
	case <-f.done:
	case <-r.Context().Done():
		// The flight keeps running: its result still lands in the
		// cache and serves any follower with a longer deadline.
		s.m.compareDeadline.Add(1)
		errorJSON(w, http.StatusGatewayTimeout, "deadline expired after %v", timeout)
		return
	}
	out := f.out

	role := "leader"
	if follower {
		role = "follower"
	}
	w.Header().Set("X-Inipd-Coalesced", role)
	w.Header().Set("X-Inipd-Guest-Blocks", fmt.Sprintf("%d", out.blocks))
	switch {
	case s.cfg.Cache == nil:
		w.Header().Set("X-Inipd-Cache", "off")
	case out.status == http.StatusOK && out.blocks == 0:
		w.Header().Set("X-Inipd-Cache", "hit")
		s.m.compareWarm.Add(1)
	default:
		w.Header().Set("X-Inipd-Cache", "miss")
	}
	if out.status != http.StatusOK {
		s.m.compareErrors.Add(1)
		errorJSON(w, out.status, "%s", out.errMsg)
		return
	}
	s.m.compareOK.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Write(out.body)
}

// compareConfig turns a compare request into the one-benchmark,
// one-threshold study config it asks for, judged by the study's own
// Validate: the daemon accepts exactly the thresholds, scales,
// predictor lists, sample periods and learned models a study accepts.
func (s *Server) compareConfig(req compareRequest) (study.Config, error) {
	bench := s.benches[strings.TrimSpace(req.Bench)]
	if bench == nil {
		return study.Config{}, fmt.Errorf("unknown benchmark %q", req.Bench)
	}
	cfg := study.Config{
		Scale:      req.Scale,
		Thresholds: []float64{req.T},
		Benchmarks: []*spec.Benchmark{bench},
		Predictors: req.Predictors,
		Cache:      s.cfg.Cache,
		Trace:      s.cfg.Trace,
	}
	if cfg.Scale == 0 {
		cfg.Scale = s.cfg.Scale
	}
	if req.SamplePeriod > 0 {
		cfg.SamplePeriods = []uint64{req.SamplePeriod}
	}
	if req.Learned != "" {
		cfg.Learned = &learned.Config{Model: req.Learned}
	}
	return cfg, cfg.Validate()
}

// runCompare executes one benchmark × threshold comparison on the
// shared scheduler and renders the canonical response body. It runs to
// completion regardless of any caller's deadline — abandoning it would
// waste the work the cache is about to keep.
func (s *Server) runCompare(_ string, cfg study.Config) *compareOut {
	bench, paperT, scale := cfg.Benchmarks[0], cfg.Thresholds[0], cfg.Scale
	var timing core.Timing
	opts := cfg.UnitOptions(&timing)
	done := make(chan *core.BenchmarkResult, 1)
	core.ScheduleBenchmark(s.sched, bench.Target(scale), opts, func(r *core.BenchmarkResult) {
		done <- r
	})
	// fail reports an error outcome with the guest blocks already
	// executed, so a failed flight never passes for a warm one.
	fail := func(status int, msg string) *compareOut {
		return &compareOut{status: status, errMsg: msg, blocks: timing.BlocksExecuted.Load()}
	}
	var res *core.BenchmarkResult
	select {
	case res = <-done:
	case <-s.sched.Done():
		// The shared pool is gone (a defect escaped a unit wrapper);
		// nothing will complete this flight.
		return fail(http.StatusServiceUnavailable, "comparison scheduler stopped")
	}
	resp := compareResponse{
		Bench:      bench.Name,
		Class:      bench.Class.String(),
		Scale:      scale,
		TPaper:     paperT,
		TEffective: opts.Thresholds[0],
		Train:      toWire(res.Train),
		Failures:   res.Failures,
	}
	if len(res.PerT) == 1 {
		resp.Summary = toWire(res.PerT[0].Summary)
	}
	if len(res.Predictors) > 0 {
		resp.Predictors = make([]predictorWire, len(res.Predictors))
		for i, p := range res.Predictors {
			resp.Predictors[i] = predictorWire{
				Predictor:      p.Predictor,
				Branches:       p.Branches,
				Mispredicts:    p.Mispredicts,
				MispredictRate: p.MispredictRate(),
			}
		}
		s.recordPredictors(res.Predictors)
	}
	if len(cfg.SamplePeriods) == 1 && len(res.Sampling) == 1 && len(res.Sampling[0].PerT) == 1 && len(res.PerT) == 1 {
		sp := res.Sampling[0].PerT[0]
		sw := &sampledWire{
			Summary:          toWire(sp.Summary),
			ProfilingOps:     sp.ProfilingOps,
			FullProfilingOps: res.PerT[0].ProfilingOps,
			SdBPDelta:        sp.Summary.SdBP - res.PerT[0].Summary.SdBP,
		}
		if sw.FullProfilingOps > 0 {
			sw.CostRatio = float64(sw.ProfilingOps) / float64(sw.FullProfilingOps)
		}
		resp.SamplePeriod = cfg.SamplePeriods[0]
		resp.Sampled = sw
		s.recordSampled(sw)
	}
	if cfg.Learned != nil && res.Learned != nil {
		lw, err := s.learnedCompare(bench, scale, opts, res.Learned)
		if err != nil {
			return fail(http.StatusInternalServerError, err.Error())
		}
		resp.Learned = lw
		s.recordLearned(lw)
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return fail(http.StatusInternalServerError, err.Error())
	}
	return &compareOut{
		status: http.StatusOK,
		body:   append(body, '\n'),
		blocks: timing.BlocksExecuted.Load(),
	}
}

// learnedCompare scores the requested benchmark's reference collection
// with a model trained on every other suite benchmark at the same
// scale — strictly held-out, exactly the study's leave-one-out fold for
// this benchmark. Corpus collections go through core.CollectLearnedData
// with the compare's own unit options. Each is one `ref` entry keyed by
// the AVEP config and the model, so a corpus warmed by an earlier
// learned compare at the same scale executes zero guest blocks; a study
// run (whose entries carry its ladder) does not warm it. opts.Timing
// accumulates any cold collection's block count into the response's
// guest-block header.
func (s *Server) learnedCompare(bench *spec.Benchmark, scale float64, opts core.Options, data *learned.BenchData) (*learnedWire, error) {
	lcfg := *opts.Learned
	var corpus []learned.BenchData
	for _, b := range spec.Suite() {
		if b.Name == bench.Name {
			continue
		}
		d, err := core.CollectLearnedData(b.Target(scale), lcfg, opts)
		if err != nil {
			return nil, fmt.Errorf("learned corpus %s: %w", b.Name, err)
		}
		corpus = append(corpus, *d)
	}
	m, err := learned.Train(lcfg, corpus)
	if err != nil {
		return nil, fmt.Errorf("learned fit: %w", err)
	}
	ev := learned.Eval(m, data)
	return &learnedWire{
		Fingerprint:      lcfg.Fingerprint(),
		Branches:         ev.Branches,
		Mispredicts:      ev.Mispredicts,
		MispredictRate:   ev.Rate(),
		TakenMispredicts: ev.TakenMispredicts,
		TrainBenchmarks:  len(corpus),
	}, nil
}

// recordLearned folds one held-out learned compare into the
// process-lifetime totals behind /v1/metrics. Warm compares count too:
// their collections come out of the result cache fully populated.
func (s *Server) recordLearned(lw *learnedWire) {
	s.m.learnedCompares.Add(1)
	s.m.learnedBranches.Add(lw.Branches)
	s.m.learnedMispredicts.Add(lw.Mispredicts)
	s.m.learnedTakenMispredicts.Add(lw.TakenMispredicts)
}

// recordSampled folds one sampled compare into the process-lifetime
// totals behind /v1/metrics. Warm compares count too: their sampled
// ladders come out of the result cache fully populated.
func (s *Server) recordSampled(sw *sampledWire) {
	s.m.sampledCompares.Add(1)
	s.m.sampledOps.Add(sw.ProfilingOps)
	s.m.sampledFullOps.Add(sw.FullProfilingOps)
}

// recordPredictors folds one compare's predictor tallies into the
// process-lifetime totals behind /v1/metrics. Warm compares count too:
// their tallies come out of the result cache fully populated.
func (s *Server) recordPredictors(results []predict.Result) {
	s.predMu.Lock()
	for _, p := range results {
		t := s.predTotals[p.Predictor]
		if t == nil {
			t = &predictTotals{}
			s.predTotals[p.Predictor] = t
		}
		t.branches += p.Branches
		t.mispredicts += p.Mispredicts
	}
	s.predMu.Unlock()
}
