// Package core ties the translator, the normalizer and the metrics into
// the paper's experiment pipeline: run a benchmark three ways — INIP(T)
// with a retranslation threshold, AVEP with optimization disabled, and
// INIP(train) on the training input — normalize the average profile to
// each initial profile's CFG, and compute the accuracy measures
// (Sd.BP/CP/LP and the range-based mismatch rates) that the paper's
// Figures 8-18 report.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dbt"
	"repro/internal/faultinject"
	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/learned"
	"repro/internal/metrics"
	"repro/internal/navep"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/region"
	"repro/internal/resultcache"
)

// Target is a program under study: a builder that produces the guest
// image and input tape for a named input ("ref" or "train"). Builders
// may bake input-dependent parameters into the image's data segment —
// the code layout must not depend on the input, so that block addresses
// line up across profiles (as they do for real binaries).
type Target struct {
	Name  string
	Build func(input string) (*guest.Image, interp.Tape, error)
	// NewTape, when non-nil, returns a fresh tape equivalent to the one
	// Build yields for the same input. The pipeline never calls it: a
	// benchmark builds each input once and runs it once. The benchmark
	// harness (bench/inipbench) times tape construction through it.
	NewTape func(input string) (interp.Tape, error)
	// TapeID, when non-nil, returns a canonical identity string for the
	// input's tape: equal identities must mean byte-identical tape
	// streams. It is the input half of the result-cache key (the image
	// half is hashed from the built image), so targets without a TapeID
	// simply never cache — a tape whose identity cannot be declared is a
	// tape whose reuse cannot be proven.
	TapeID func(input string) string
}

// Compare evaluates an initial profile against an average profile and
// returns the paper's summary measures together with the normalized
// view. The avep snapshot must come from an unoptimized run.
func Compare(inip, avep *profile.Snapshot) (metrics.Summary, *navep.Result, error) {
	res, err := navep.Normalize(inip, avep)
	if err != nil {
		return metrics.Summary{}, nil, err
	}
	bp := make([]metrics.Item, 0, len(res.Blocks))
	for _, b := range res.Blocks {
		bp = append(bp, metrics.Item{Pred: b.BT, Avg: b.BM, W: b.W})
	}
	cp := make([]metrics.Item, 0, len(res.Traces))
	for _, r := range res.Traces {
		cp = append(cp, metrics.Item{Pred: r.CT, Avg: r.CM, W: r.W})
	}
	lp := make([]metrics.Item, 0, len(res.Loops))
	for _, r := range res.Loops {
		lp = append(lp, metrics.Item{Pred: r.LT, Avg: r.LM, W: r.W})
	}
	s := metrics.Summary{
		SdBP:       metrics.WeightedSD(bp),
		BPMismatch: metrics.MismatchRate(bp, metrics.BPBucket),
		HasRegions: len(inip.Regions) > 0,
		SdCP:       metrics.WeightedSD(cp),
		SdLP:       metrics.WeightedSD(lp),
		LPMismatch: metrics.MismatchRate(lp, metrics.LPBucket),
		Blocks:     len(bp),
		Traces:     len(cp),
		Loops:      len(lp),
	}
	return s, res, nil
}

// Options configures a benchmark study run. The translator itself is
// not configurable: every run uses the paper's IA32EL configuration
// (see TranslatorConfig), so Options carries only what the study and the
// daemon vary — the ladder, the study axes riding the reference trace,
// and the execution plumbing (timing, trace, faults, cache).
type Options struct {
	// Thresholds is the ladder of retranslation thresholds to sweep.
	Thresholds []uint64
	// Predictors names the dynamic branch predictors (internal/predict)
	// to drive off the reference trace as read-only observers: the
	// guest still executes once and profiling counters are untouched.
	// Empty runs no predictors, and every existing output is
	// byte-identical to a run without the field.
	Predictors []string
	// SamplePeriods is the ladder of sampled-profiling periods to sweep
	// (dbt.Config.SamplePeriod): for each period the whole INIP(T)
	// threshold ladder is rerun with sampled counters and compared to
	// the full-instrumentation AVEP, filling BenchmarkResult.Sampling.
	// The sampled runs ride the same reference trace as extra
	// followers — the guest still executes exactly once — so the
	// full-instrumentation figures stay byte-identical to a run without
	// the field. Empty runs no sampled ladders.
	SamplePeriods []uint64
	// Learned, when non-nil, collects the profile-free learned
	// predictor's per-benchmark data off the reference trace: static
	// branch-site features extracted from the image plus per-site
	// outcome tallies observed on the shared trace. Collection rides
	// the existing observer rail — the guest still executes once and
	// every legacy output is byte-identical to a run without the field.
	// Training happens at the study level (the model must never see the
	// benchmark it is scored on), so the per-benchmark result is data,
	// not a fitted model. The config's Fingerprint joins the `ref` cache
	// key.
	Learned *learned.Config
	// Variants are TranslatorConfigs varying one section-5 knob each,
	// compared with AVEP into BenchmarkResult.Variants; each runs with
	// the benchmark's own cycle model, Interrupt and TrapAfter.
	Variants []dbt.Config
	// Timing, when non-nil, accumulates per-phase durations and run
	// volume across all units of the benchmark.
	Timing *Timing
	// Trace, when non-nil, receives one flight-recorder event per
	// completed pipeline span. Spans are measured over exactly the
	// intervals the Timing phase buckets accumulate, so per-phase trace
	// sums reconcile with the study's Perf totals.
	Trace *obs.Recorder
	// Faults, when non-nil, is the armed fault-injection plan the
	// pipeline consults at its injection points: the builds, the
	// translator config (guest traps) and the unit wrapper (delays,
	// panics). A nil plan injects nothing.
	Faults *faultinject.Plan
	// Cache, when non-nil, memoizes expensive unit outputs on disk (see
	// cache.go for the exact contract: lookup before a unit executes,
	// store only on clean completion, never under an armed fault plan or
	// for targets without a TapeID).
	Cache *resultcache.Store
	// CacheVerify makes every cache hit a differential self-check: the
	// unit executes anyway and a divergence between computed and cached
	// values is a hard unit error.
	CacheVerify bool
	// CacheContext carries caller-level parameters that determine
	// results but are invisible in the image, tape and config. Only the
	// study's lowering (study.Config.UnitOptions) formats it — it puts
	// the scale here — so the CLI and the daemon share cache entries.
	// It participates verbatim in every cache key.
	CacheContext string
}

// Timing aggregates where a study's wall-clock went. Durations are
// summed across concurrently-running units, so on a multicore box the
// phase totals add up to more than the elapsed wall time.
type Timing struct {
	Build     atomic.Int64 // ns spent building images/tapes
	RefRuns   atomic.Int64 // ns executing reference-input runs (AVEP + INIP ladder)
	TrainRuns atomic.Int64 // ns executing training-input runs
	Compare   atomic.Int64 // ns normalizing and computing metrics
	// BlocksExecuted totals dynamic block executions over all run units
	// (each profiling context counts its own pass over the trace).
	BlocksExecuted atomic.Uint64
	// SampledUnits counts executed (cold) sampled-profiling contexts and
	// SampledProfilingOps totals their actual counter updates — sampled
	// units, not scaled estimates, so the ratio against the
	// full-instrumentation ops is the real cost side of the sampling
	// frontier. Warm (cache-replayed) sampled ladders add nothing, like
	// BlocksExecuted.
	SampledUnits        atomic.Int64
	SampledProfilingOps atomic.Uint64

	// Engine-counter aggregates (see dbt.RunStats), summed over every
	// profiling context of every run unit.
	Translations      atomic.Int64
	Retranslations    atomic.Int64
	OptimizationWaves atomic.Int64
	RegionsFormed     atomic.Int64
	RegionsDissolved  atomic.Int64
	CacheLookups      atomic.Uint64
	InterruptPolls    atomic.Uint64
	FreezeEvents      atomic.Uint64
}

// AddRunStats folds one run's engine counters into the aggregate.
func (t *Timing) AddRunStats(st *dbt.RunStats) {
	t.BlocksExecuted.Add(st.BlocksExecuted)
	t.Translations.Add(int64(st.BlocksTranslated))
	t.Retranslations.Add(int64(st.Retranslations))
	t.OptimizationWaves.Add(int64(st.OptimizationWaves))
	t.RegionsFormed.Add(int64(st.RegionsFormed))
	t.RegionsDissolved.Add(int64(st.RegionsDissolved))
	t.CacheLookups.Add(st.CacheLookups)
	t.InterruptPolls.Add(st.InterruptPolls)
	t.FreezeEvents.Add(st.FreezeEvents)
}

// ThresholdResult is the outcome of one INIP(T) run compared to AVEP.
// The ref cache entry stores it as is, under the JSON names of
// SampleThresholdResult.
type ThresholdResult struct {
	T            uint64          `json:"t"`
	Summary      metrics.Summary `json:"summary"`
	ProfilingOps uint64          `json:"profiling_ops"`
	Cycles       float64         `json:"cycles"`
	Stats        dbt.RunStats    `json:"stats"`
}

// SampleThresholdResult is one rung of a sampled-profiling ladder: the
// INIP(T) run rerun with dbt.Config.SamplePeriod set, compared against
// the same full-instrumentation AVEP as the main ladder.
type SampleThresholdResult struct {
	T       uint64          `json:"t"`
	Summary metrics.Summary `json:"summary"`
	// ProfilingOps is the run's actual counter-update total — sampled
	// events, not scaled estimates — so its ratio against the matching
	// full-instrumentation rung's ProfilingOps is the measured profiling
	// cost of the period.
	ProfilingOps uint64 `json:"profiling_ops"`
	// Cycles always reads 0: a sampled run keeps no cycle model.
	Cycles float64 `json:"cycles"`
}

// SamplePeriodResult is the whole threshold ladder rerun at one sampled
// profiling period, in Options.Thresholds order.
type SamplePeriodResult struct {
	Period uint64                  `json:"period"`
	PerT   []SampleThresholdResult `json:"per_t"`
}

// UnitFailure records one unit whose failure was absorbed under the
// Degrade policy: which unit of which benchmark failed, and with what
// error. A benchmark with failures has incomplete measurement data and
// is excluded from figure aggregation.
type UnitFailure struct {
	Bench string `json:"bench"`
	// Unit is the failing unit (obs.UnitRef, UnitTrain, UnitTrainCompare,
	// or UnitBuild for a target without a builder).
	Unit string `json:"unit"`
	// Err is the unit's error, verbatim.
	Err string `json:"err"`
}

// BenchmarkResult is the complete study output for one benchmark.
type BenchmarkResult struct {
	Name string
	// AVEPCycles is the cycle cost of running unoptimized forever.
	AVEPCycles float64
	// Train compares INIP(train) to AVEP (blocks only, as in the
	// paper: unoptimized runs carry no regions).
	Train metrics.Summary
	// TrainRegions compares INIP(train) to AVEP after forming regions
	// offline over the training profile (the paper's section-5 future
	// work, which makes Sd.CP(train) and Sd.LP(train) computable).
	// Regions are formed at the reference threshold of 2000.
	TrainRegions metrics.Summary
	// TrainOps is the profiling-operation total of the training run,
	// the normalization base of Figure 18.
	TrainOps uint64
	// PerT holds one entry per threshold, in ladder order.
	PerT []ThresholdResult
	// Predictors holds one accuracy tally per requested dynamic
	// predictor, in Options.Predictors order. The branch stream is the
	// reference trace, so the tallies are threshold-independent and
	// identical across worker counts.
	Predictors []predict.Result
	// Sampling holds one rerun ladder per requested sampled-profiling
	// period, in Options.SamplePeriods order. Nil when no periods were
	// requested.
	Sampling []SamplePeriodResult
	// Learned is the learned-predictor collection (static site features
	// + reference-trace tallies), present when Options.Learned was set.
	// Like Predictors it is threshold-independent and bit-identical
	// across worker counts and cache state.
	Learned *learned.BenchData
	// Variants holds one comparison per Options.Variants entry.
	Variants []ThresholdResult
	// Failures lists the units that failed permanently under the Degrade
	// policy, in completion order (callers that need a stable order sort
	// by unit). Empty on a clean run; under FailFast the study errors
	// out instead of recording failures.
	Failures []UnitFailure
}

// TranslatorConfig is the translator configuration of every run: the
// paper's IA32EL setup (default pool trigger, register-twice
// retranslation, counter freezing, no trap) with the cycle model on.
// Callers that vary one knob set it on the result. Each call returns a
// fresh cycle accumulator, so build one config per run: a copied
// config shares its accumulator and double-charges cycles.
func TranslatorConfig(input string, threshold uint64, optimize bool) dbt.Config {
	return dbt.Config{
		Input:         input,
		Threshold:     threshold,
		Optimize:      optimize,
		RegisterTwice: true,
		Perf:          perfmodel.NewAccumulator(perfmodel.DefaultParams()),
	}
}

// benchRun is the in-flight state of one scheduled benchmark: the AVEP
// snapshot memo the training comparison waits for, the training
// snapshot, and the count of live units.
type benchRun struct {
	s      *Scheduler
	t      Target
	opts   Options
	out    *BenchmarkResult
	onDone func(*BenchmarkResult)

	// refImgHash and trainImgHash are the content hashes of the built
	// images, filled by the run units before they store the avep or
	// train memo; the training comparison keys its entry off both and
	// reads them after taking both memos under the lock.
	refImgHash   string
	trainImgHash string

	mu            sync.Mutex
	avep          *profile.Snapshot // set once by the reference unit; its only copy
	train         *profile.Snapshot // set once by the training unit
	trainCompared bool
	live          int // units scheduled and not yet exited
}

// spawn schedules one unit of the benchmark, which the caller has
// already counted in live: a success or an absorbed failure exits it,
// and the last exit reports the result. A propagated failure never
// exits, and neither does a unit the pool drops unrun, so onDone never
// fires for a benchmark the pool abandoned.
func (b *benchRun) spawn(unit string, body func(worker int) error) {
	b.s.GoW(func(w int) error {
		if err := b.execute(unit, func() error { return body(w) }); err != nil {
			return err
		}
		b.exit()
		return nil
	})
}

// exit retires one live unit; the last one reports the result.
func (b *benchRun) exit() {
	b.mu.Lock()
	b.live--
	done := b.live == 0
	b.mu.Unlock()
	if done && b.onDone != nil {
		b.onDone(b.out)
	}
}

// record closes a measured span: the duration lands in the matching
// Timing phase bucket and — when tracing is on — one flight-recorder
// event is emitted. Both observers are fed from the same interval, so
// trace per-phase sums reconcile exactly with the Perf phase totals.
func (b *benchRun) record(unit string, threshold uint64, worker int, start time.Time, blocks uint64, err error) {
	b.recordEv(unit, threshold, worker, start, obs.Event{Blocks: blocks}, err)
}

// recordRun is record for executed run spans: the engines' hot-loop
// counters ride along in the trace event, so -tracesum can report
// blocks/s and the cache-lookup rate from the trace alone.
func (b *benchRun) recordRun(unit string, threshold uint64, worker int, start time.Time, stats ...*dbt.RunStats) {
	var ev obs.Event
	for _, st := range stats {
		ev.Blocks += st.BlocksExecuted
		ev.Lookups += st.CacheLookups
	}
	b.recordEv(unit, threshold, worker, start, ev, nil)
}

// recordEv is the shared body of record/recordRun; ev carries the
// span's counter payload, identity and timeline are filled here.
func (b *benchRun) recordEv(unit string, threshold uint64, worker int, start time.Time, ev obs.Event, err error) {
	dur := time.Since(start)
	if tm := b.opts.Timing; tm != nil {
		switch unit {
		case obs.UnitBuild:
			tm.Build.Add(int64(dur))
		case obs.UnitRef:
			tm.RefRuns.Add(int64(dur))
		case obs.UnitTrain:
			tm.TrainRuns.Add(int64(dur))
		case obs.UnitCompare, obs.UnitTrainCompare, obs.UnitSampleCompare:
			tm.Compare.Add(int64(dur))
		}
	}
	ev.Bench, ev.Unit, ev.T, ev.Worker = b.t.Name, unit, threshold, worker
	b.opts.Trace.RecordEvent(ev, start, dur, err)
}

// addRunStats folds one run's engine counters into the study aggregate.
func (b *benchRun) addRunStats(st *dbt.RunStats) {
	if b.opts.Timing != nil {
		b.opts.Timing.AddRunStats(st)
	}
}

// addSampleStats folds one executed sampled context's profiling volume
// into the study aggregate. Called only on cold paths, so warm reruns
// report zero sampled units, mirroring BlocksExecuted.
func (b *benchRun) addSampleStats(ops uint64) {
	if tm := b.opts.Timing; tm != nil {
		tm.SampledUnits.Add(1)
		tm.SampledProfilingOps.Add(ops)
	}
}

// ScheduleBenchmark decomposes the three-way study of one target into
// two run units on the scheduler: the reference unit (AVEP and every
// other follower replayed over its trace, each compared with AVEP) and
// the training unit. The training comparison needs both runs, so it
// runs inline in whichever of the two finishes second. No unit ever
// holds a pool slot while waiting, so the pipeline cannot deadlock at
// any pool size. onDone is called once with the completed result, on
// whichever goroutine retires the benchmark's last unit (the caller's,
// when every unit finishes before ScheduleBenchmark returns); on a
// propagated failure the scheduler records the first error instead and
// onDone never fires.
func ScheduleBenchmark(s *Scheduler, t Target, opts Options, onDone func(*BenchmarkResult)) {
	scheduleBenchmark(s, t, opts, onDone)
}

// scheduleBenchmark is ScheduleBenchmark returning the in-flight state,
// which the fail-fast regression tests inspect (results must stay
// untouched when units are dropped).
func scheduleBenchmark(s *Scheduler, t Target, opts Options, onDone func(*BenchmarkResult)) *benchRun {
	b := &benchRun{
		s:      s,
		t:      t,
		opts:   opts,
		out:    &BenchmarkResult{Name: t.Name, PerT: make([]ThresholdResult, len(opts.Thresholds))},
		onDone: onDone,
	}
	if len(opts.SamplePeriods) > 0 {
		b.out.Sampling = make([]SamplePeriodResult, len(opts.SamplePeriods))
	}
	if len(opts.Variants) > 0 {
		b.out.Variants = make([]ThresholdResult, len(opts.Variants))
	}
	// No unit spawns another, so the count is known before the first
	// spawn: a unit that finishes before its sibling exists cannot pass
	// for the benchmark's last.
	if t.Build == nil {
		b.live = 1
		b.spawn(obs.UnitBuild, func(int) error {
			return fmt.Errorf("core: target %q has no builder", t.Name)
		})
		return b
	}
	b.live = 2
	b.spawn(obs.UnitRef, b.refBody)
	b.spawn(obs.UnitTrain, b.trainBody)
	return b
}

// dbtConfig attaches the scheduler's cancellation channel, when there is
// a scheduler, and any armed guest-trap fault for this (bench, input).
func (b *benchRun) dbtConfig(input string, threshold uint64, optimize bool) dbt.Config {
	cfg := TranslatorConfig(input, threshold, optimize)
	if b.s != nil {
		cfg.Interrupt = b.s.Done()
	}
	if n, ok := b.opts.Faults.Trap(b.t.Name, input); ok {
		cfg.TrapAfter = n
	}
	return cfg
}

// build builds one input of the benchmark, under its own span. Injected
// build faults fire before the builder is consulted. Each input is
// built once per benchmark: the reference step and the training unit
// each run their input once.
func (b *benchRun) build(input string, worker int) (*guest.Image, interp.Tape, error) {
	start := time.Now()
	err := b.opts.Faults.BuildError(b.t.Name, input)
	var img *guest.Image
	var tape interp.Tape
	if err == nil {
		img, tape, err = b.t.Build(input)
	}
	if err != nil {
		err = fmt.Errorf("core: build %s/%s: %w", b.t.Name, input, err)
	}
	b.record(obs.UnitBuild, 0, worker, start, 0, err)
	return img, tape, err
}

// execute runs one unit body once under the scheduler's failure
// policy, with fault injection and panic containment. It returns nil
// when the body succeeds or its failure is absorbed (Degrade: the
// failure is recorded in the result and the benchmark still completes
// and reports), and the error when the failure propagates (FailFast,
// an interrupted run, or a pool that is already cancelling): the
// scheduler cancels the study with it.
func (b *benchRun) execute(unit string, f func() error) error {
	err := b.protect(unit, f)
	if err == nil || b.s.Policy() != Degrade || errors.Is(err, dbt.ErrInterrupted) || b.s.Stopped() {
		return err
	}
	b.recordFailure(unit, err)
	return nil
}

// protect runs the unit body once: injected delays and panics for this
// site fire first, and any panic — injected or a genuine defect in the
// body — is converted into an ordinary unit error so the failure
// policy applies to it like to any other failure.
func (b *benchRun) protect(unit string, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: %s unit of %s panicked: %v", unit, b.t.Name, r)
		}
	}()
	if d := b.opts.Faults.Delay(b.t.Name, unit); d > 0 {
		select {
		case <-time.After(d):
		case <-b.s.Done():
		}
	}
	if msg, ok := b.opts.Faults.PanicMessage(b.t.Name, unit); ok {
		panic(msg)
	}
	return f()
}

// recordFailure appends one absorbed failure under the result lock.
// The append happens before the failing unit exits, and exit takes the
// same lock, so when the last unit exits and onDone publishes the
// result every failure is visible.
func (b *benchRun) recordFailure(unit string, err error) {
	b.mu.Lock()
	b.out.Failures = append(b.out.Failures, UnitFailure{
		Bench: b.t.Name,
		Unit:  unit,
		Err:   err.Error(),
	})
	b.mu.Unlock()
}

// newLearnedCollector extracts the static branch-site features and
// builds the tally observer for the learned predictor class.
// Extraction is pure static analysis of the image (internal/cfg + a
// successor-closure walk), traced under its own flight-recorder unit.
func (b *benchRun) newLearnedCollector(img *guest.Image, worker int) (*learned.Collector, error) {
	start := time.Now()
	sites, err := learned.ExtractSites(img)
	b.record(obs.UnitLearnedCollect, 0, worker, start, 0, err)
	if err != nil {
		return nil, fmt.Errorf("core: learned feature extraction of %s: %w", b.t.Name, err)
	}
	return learned.NewCollector(sites), nil
}

// distinctRungs deduplicates the threshold ladder: a ladder scaled far
// down collapses — several paper-unit rungs clamp to the same effective
// threshold — and identical configs would run identical engines. It
// returns the distinct thresholds in first-appearance order and
// rungs[j], the ladder indexes served by distinct[j]; results computed
// once per distinct threshold fan out to every collapsed rung under its
// own paper-unit label.
func (b *benchRun) distinctRungs() (distinct []uint64, rungs [][]int) {
	byThreshold := make(map[uint64]int, len(b.opts.Thresholds))
	for i, threshold := range b.opts.Thresholds {
		if j, ok := byThreshold[threshold]; ok {
			rungs[j] = append(rungs[j], i)
			continue
		}
		byThreshold[threshold] = len(rungs)
		rungs = append(rungs, []int{i})
		distinct = append(distinct, threshold)
	}
	return distinct, rungs
}

// referenceConfigs lists every follower of the reference run in trace
// order: AVEP, one INIP config per distinct threshold, then, for each
// sample period, the same rungs with the sampling stride switched on,
// then the variants. Sampled ladders and variants ride the reference
// trace as extra followers, so the guest still executes exactly once.
func (b *benchRun) referenceConfigs(distinct []uint64) []dbt.Config {
	cfgs := make([]dbt.Config, 0, 1+len(distinct)*(1+len(b.opts.SamplePeriods))+len(b.opts.Variants))
	cfgs = append(cfgs, b.dbtConfig("ref", 0, false))
	for _, period := range append([]uint64{0}, b.opts.SamplePeriods...) {
		for _, threshold := range distinct {
			cfg := b.dbtConfig("ref", threshold, true)
			cfg.SamplePeriod = period
			cfgs = append(cfgs, cfg)
		}
	}
	for _, v := range b.opts.Variants {
		own := b.dbtConfig("ref", v.Threshold, v.Optimize)
		v.Perf, v.Interrupt, v.TrapAfter = own.Perf, own.Interrupt, own.TrapAfter
		cfgs = append(cfgs, v)
	}
	return cfgs
}

// reference is the reference step: it builds the reference input, makes
// one cache lookup, and either returns the warm entry or runs the trace
// once — AVEP, every distinct rung, every sampled rung and every variant
// as followers, the predictor and learned observers on the same branch
// stream — compares each follower with AVEP, and settles the entry. The
// warm path executes no guest block and compares nothing, and
// addRunStats is deliberately not called on it: a fully cached
// benchmark reports zero blocks.
func (b *benchRun) reference(worker int) (refEntry, error) {
	img, tape, err := b.build("ref", worker)
	if err != nil {
		return refEntry{}, err
	}
	if b.cacheUsable() {
		b.refImgHash = img.ContentHash()
	}
	distinct, _ := b.distinctRungs()
	n := len(distinct)
	cfgs := b.referenceConfigs(distinct)
	ref := lookupSlot(b, func() resultcache.Key { return b.refCacheKey(cfgs) },
		func(e *refEntry) bool { return b.refEntryMatches(e, cfgs, n) }, worker)
	if ref.warm() {
		return ref.cached, nil
	}

	var observers []dbt.TraceObserver
	var suite *predict.Suite
	if len(b.opts.Predictors) > 0 {
		// Unknown names are a unit error here: study.Config and the flag
		// layer validate earlier, so this guards direct API use.
		if suite, err = predict.NewSuite(b.opts.Predictors); err != nil {
			return refEntry{}, err
		}
		observers = append(observers, suite)
	}
	var col *learned.Collector
	if b.opts.Learned != nil {
		if col, err = b.newLearnedCollector(img, worker); err != nil {
			return refEntry{}, err
		}
		observers = append(observers, col)
	}
	start := time.Now()
	snaps, stats, err := dbt.RunMultiObserved(img, tape, cfgs, observers)
	if err != nil {
		err = fmt.Errorf("core: reference runs of %s: %w", b.t.Name, err)
		b.record(obs.UnitRef, 0, worker, start, 0, err)
		return refEntry{}, err
	}
	for _, st := range stats {
		b.addRunStats(st)
	}
	b.recordRun(obs.UnitRef, 0, worker, start, stats...)
	avep := snaps[0]
	// compare compares the m followers from config c on with AVEP under
	// one span of unit labelled t; what names them in a failed
	// comparison's error.
	compare := func(unit string, t uint64, what string, c, m int) ([]metrics.Summary, error) {
		start := time.Now()
		sums := make([]metrics.Summary, m)
		var err error
		for j := range sums {
			if sums[j], _, err = Compare(snaps[c+j], avep); err != nil {
				err = fmt.Errorf("core: %s comparison of %s at T=%d: %w", what, b.t.Name, cfgs[c+j].Threshold, err)
				break
			}
		}
		b.record(unit, t, worker, start, 0, err)
		return sums, err
	}
	// result is follower c's result, compared under its own span.
	result := func(c int, what string) (ThresholdResult, error) {
		sums, err := compare(obs.UnitCompare, cfgs[c].Threshold, what, c, 1)
		return ThresholdResult{T: cfgs[c].Threshold, Summary: sums[0], ProfilingOps: snaps[c].ProfilingOps, Cycles: cfgs[c].Perf.Cycles, Stats: *stats[c]}, err
	}
	entry := refEntry{AVEP: cachedSnapshot{avep}, AVEPCycles: cfgs[0].Perf.Cycles,
		Runs: make([]ThresholdResult, n), Variants: make([]ThresholdResult, len(b.opts.Variants))}
	for j := range entry.Runs {
		if entry.Runs[j], err = result(1+j, "INIP"); err != nil {
			return refEntry{}, err
		}
	}
	for k, period := range b.opts.SamplePeriods {
		c := 1 + (k+1)*n
		for _, snap := range snaps[c : c+n] {
			b.addSampleStats(snap.ProfilingOps)
		}
		sums, err := compare(obs.UnitSampleCompare, period, fmt.Sprintf("sampled INIP (period %d)", period), c, n)
		if err != nil {
			return refEntry{}, err
		}
		ladder := make([]SampleThresholdResult, n)
		for j := range ladder {
			ladder[j] = SampleThresholdResult{T: cfgs[c+j].Threshold, Summary: sums[j], ProfilingOps: snaps[c+j].ProfilingOps, Cycles: cfgs[c+j].Perf.Cycles}
		}
		entry.Sampling = append(entry.Sampling, ladder)
	}
	v0 := len(cfgs) - len(entry.Variants)
	for vi := range entry.Variants {
		if entry.Variants[vi], err = result(v0+vi, fmt.Sprintf("variant %d", vi)); err != nil {
			return refEntry{}, err
		}
	}
	if suite != nil {
		entry.Predictors = suite.Results()
	}
	if col != nil {
		data := col.BenchData(b.t.Name)
		entry.Learned = &data
	}
	// Settle before the caller publishes: a settle failure then fails
	// the step before any of its results reaches the output.
	return entry, ref.settle(entry, worker)
}

// refBody runs the reference step and publishes its outputs: every
// comparison is in the entry, so a collapsed rung receives the result
// of the follower that serves it (the same threshold). Indexes are
// step-owned, so the writes need no lock; the AVEP memo, which the
// training comparison reads, is set under it.
func (b *benchRun) refBody(worker int) error {
	entry, err := b.reference(worker)
	if err != nil {
		return err
	}
	_, rungs := b.distinctRungs()
	b.out.Predictors = entry.Predictors
	b.out.Learned = entry.Learned
	b.out.AVEPCycles = entry.AVEPCycles
	for j, idxs := range rungs {
		for _, i := range idxs {
			b.out.PerT[i] = entry.Runs[j]
		}
	}
	for pi, period := range b.opts.SamplePeriods {
		perT := make([]SampleThresholdResult, len(b.opts.Thresholds))
		for j, idxs := range rungs {
			for _, i := range idxs {
				perT[i] = entry.Sampling[pi][j]
			}
		}
		b.out.Sampling[pi] = SamplePeriodResult{Period: period, PerT: perT}
	}
	copy(b.out.Variants, entry.Variants)
	b.mu.Lock()
	b.avep = entry.AVEP.Snapshot
	b.mu.Unlock()
	return b.maybeCompareTrain(worker)
}

// trainBody runs INIP(train) and stores its snapshot for the training
// comparison.
func (b *benchRun) trainBody(worker int) error {
	img, tape, err := b.build("train", worker)
	if err != nil {
		return err
	}
	cfg := b.dbtConfig("train", 0, false)
	if b.cacheUsable() {
		b.trainImgHash = img.ContentHash()
	}
	run := lookupSlot(b, func() resultcache.Key { return b.runCacheKey(b.trainImgHash, "train", cfg) },
		func(e *cachedSnapshot) bool { return e.Snapshot != nil }, worker)
	train := run.cached.Snapshot
	if !run.warm() {
		start := time.Now()
		var stats *dbt.RunStats
		train, stats, err = dbt.Run(img, tape, cfg)
		if err != nil {
			err = fmt.Errorf("core: train run of %s: %w", b.t.Name, err)
			b.record(obs.UnitTrain, 0, worker, start, 0, err)
			return err
		}
		b.addRunStats(stats)
		b.recordRun(obs.UnitTrain, 0, worker, start, stats)
		if err := run.settle(cachedSnapshot{train}, worker); err != nil {
			return err
		}
	}
	b.out.TrainOps = train.ProfilingOps
	b.mu.Lock()
	b.train = train
	b.mu.Unlock()
	return b.maybeCompareTrain(worker)
}

// maybeCompareTrain runs the training comparison in whichever run unit
// finishes second — at that point it already holds a pool slot, so the
// work runs inline instead of being queued. An absorbed failure is the
// comparison's own (recorded as train_compare, the host exits
// normally); a propagated one is returned to the hosting run unit,
// which then never exits.
func (b *benchRun) maybeCompareTrain(worker int) error {
	b.mu.Lock()
	ready := b.avep != nil && b.train != nil && !b.trainCompared
	if ready {
		b.trainCompared = true
	}
	train, avep := b.train, b.avep
	b.mu.Unlock()
	if !ready {
		return nil
	}
	return b.execute(obs.UnitTrainCompare, func() error {
		return b.compareTrain(train, avep, worker)
	})
}

// trainRegionThreshold is the reference threshold for offline region
// formation over the training profile: the paper's proposed extension
// for obtaining Sd.CP(train) and Sd.LP(train). It participates in the
// training comparison's cache key.
const trainRegionThreshold = 2000

func (b *benchRun) compareTrain(train, avep *profile.Snapshot, worker int) error {
	tc := lookupSlot[trainCmpEntry](b, b.trainCmpCacheKey, nil, worker)
	if tc.warm() {
		b.out.Train, b.out.TrainRegions = tc.cached.Train, tc.cached.TrainRegions
		return nil
	}
	start := time.Now()
	var err error
	if b.out.Train, _, err = Compare(train, avep); err != nil {
		err = fmt.Errorf("core: train comparison of %s: %w", b.t.Name, err)
		b.record(obs.UnitTrainCompare, 0, worker, start, 0, err)
		return err
	}
	trainWithRegions := region.WithOfflineRegions(train, trainRegionThreshold, region.Config{})
	if b.out.TrainRegions, _, err = Compare(trainWithRegions, avep); err != nil {
		err = fmt.Errorf("core: train region comparison of %s: %w", b.t.Name, err)
		b.record(obs.UnitTrainCompare, 0, worker, start, 0, err)
		return err
	}
	b.record(obs.UnitTrainCompare, 0, worker, start, 0, nil)
	return tc.settle(trainCmpEntry{Train: b.out.Train, TrainRegions: b.out.TrainRegions}, worker)
}

// RunBenchmark executes the full three-way study for one target: AVEP
// and INIP(train) once, then INIP(T) for every threshold in the ladder.
// It is a self-contained wrapper around ScheduleBenchmark with a private
// GOMAXPROCS scheduler; studies share one scheduler across benchmarks
// instead, and callers that need a pool size schedule on their own.
func RunBenchmark(t Target, opts Options) (*BenchmarkResult, error) {
	s := NewScheduler(0)
	var out *BenchmarkResult
	ScheduleBenchmark(s, t, opts, func(r *BenchmarkResult) { out = r })
	if err := s.Wait(); err != nil {
		return nil, err
	}
	return out, nil
}

// CollectLearnedData runs the learned-predictor collection pass for one
// target outside the full study pipeline: the reference step with an
// empty ladder and no other axis or variant, so the reference input
// executes once under the AVEP config while the collector tallies
// outcomes. Its `ref` entry is keyed by that config set plus the model
// fingerprint, so repeated corpus collections at one scale warm each
// other and a warm call executes zero guest blocks. A study's entries
// carry its ladder in their key and serve no collection. Only Cache,
// CacheContext, CacheVerify, Timing, Trace and Faults are honored from
// opts.
func CollectLearnedData(t Target, lcfg learned.Config, opts Options) (*learned.BenchData, error) {
	if err := lcfg.Validate(); err != nil {
		return nil, err
	}
	opts.Thresholds, opts.Predictors, opts.SamplePeriods, opts.Variants, opts.Learned = nil, nil, nil, nil, &lcfg
	b := &benchRun{t: t, opts: opts}
	entry, err := b.reference(0)
	if err != nil {
		return nil, err
	}
	return entry.Learned, nil
}

// BuildFromAsm is a convenience Target builder for fixed assembler
// programs whose behaviour differs between inputs only through the tape
// seed.
func BuildFromAsm(name, src string) Target {
	return Target{
		Name: name,
		Build: func(input string) (*guest.Image, interp.Tape, error) {
			img, err := guest.Assemble(src)
			if err != nil {
				return nil, nil, err
			}
			img.Name = name
			return img, interp.NewUniformTape(name + "/" + input), nil
		},
		NewTape: func(input string) (interp.Tape, error) {
			return interp.NewUniformTape(name + "/" + input), nil
		},
		TapeID: func(input string) string {
			return "uniform:" + name + "/" + input
		},
	}
}
