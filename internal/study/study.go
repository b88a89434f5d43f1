// Package study orchestrates the full reproduction: it sweeps the
// retranslation-threshold ladder over the synthetic SPEC2000 suite and
// derives the data behind every figure of the paper's evaluation
// (Figures 8-18).
//
// All thresholds are specified in paper units and scaled — together with
// benchmark lengths and phase boundaries — by a single Scale factor.
// Because every reported quantity is a probability, a normalized count,
// or a ratio of cycle totals, uniform scaling preserves the figures'
// shapes while keeping runs laptop-sized.
package study

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/learned"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/resultcache"
	"repro/internal/spec"
)

// PaperThresholds is the threshold ladder of the accuracy figures
// (Figures 8-16, 18), in paper units.
var PaperThresholds = []float64{100, 200, 500, 1e3, 2e3, 5e3, 1e4, 2e4, 4e4, 8e4, 16e4, 1e6, 4e6}

// AllThresholds extends the ladder with the small values of the
// performance figure (Figure 17), whose base is T=1.
var AllThresholds = append([]float64{1, 50}, PaperThresholds...)

// Config controls a study run: which benchmarks and thresholds, at
// which scale, with which study axes, under which failure and cache
// policy. It is also the daemon's compare request (one benchmark, one
// threshold), so Validate and UnitOptions judge and lower both. The
// translator configuration is not part of it: every run uses the
// paper's IA32EL setup (see core.Options).
type Config struct {
	// Scale multiplies paper-unit thresholds, run lengths and phase
	// boundaries. The default of 1.0 runs the paper's actual threshold
	// ladder (benchmark run lengths are already laptop-sized, see
	// package spec); smaller values trade sampling fidelity at the
	// bottom of the ladder for speed. Validate rejects values above
	// maxScale.
	Scale float64
	// Thresholds is the paper-unit ladder (default AllThresholds).
	Thresholds []float64
	// Benchmarks selects the suite subset (default spec.Suite()).
	Benchmarks []*spec.Benchmark
	// Parallelism bounds concurrently-running work units (default
	// GOMAXPROCS, matching the scheduler's own default — unlike NumCPU
	// it respects cgroup quotas and GOMAXPROCS overrides). Units are
	// finer than benchmarks: each benchmark's reference execution,
	// training run and per-threshold comparisons schedule
	// independently, so small Parallelism values still make progress on
	// wide suites.
	Parallelism int
	// Progress, when non-nil, receives one line per completed
	// benchmark. Write failures do not stop the study; they are counted
	// in Perf.ProgressWriteErrors.
	Progress io.Writer
	// Trace, when non-nil, receives one flight-recorder event per
	// completed pipeline span (see internal/obs). Tracing never alters
	// results: figure output is byte-identical with it on or off.
	Trace *obs.Recorder
	// Policy selects what a unit failure does to the study: cancel it
	// (core.FailFast, the default) or isolate the failing benchmark and
	// let the rest complete (core.Degrade). Degraded results carry the
	// failures in Results.Failures and exclude the failed benchmarks
	// from every figure.
	Policy core.FailurePolicy
	// Faults is the armed fault-injection plan, nil for none. Faults
	// are consulted at fixed pipeline sites, so a given plan fails the
	// same way on every run.
	Faults *faultinject.Plan
	// Cache, when non-nil, memoizes expensive unit outputs in an
	// on-disk content-addressed store keyed by image hash, tape
	// identity, engine fingerprint, effective threshold and scale. A
	// warm rerun of an unchanged study executes zero guest blocks and
	// produces byte-identical figures. It is also the only resume
	// mechanism: every unit a stopped or failed study finished is
	// stored as it completes, so rerunning the same study over the
	// same cache recomputes only the missing units. Fault-injected
	// runs never touch the cache (their results are deliberately
	// perturbed).
	Cache *resultcache.Store
	// CacheVerify turns every cache hit into a differential self-check:
	// units execute anyway and a divergence between computed and cached
	// values is a hard unit error (subject to Policy like any other
	// failure). Requires Cache.
	CacheVerify bool
	// Predictors names the dynamic branch predictors (internal/predict)
	// to drive off each benchmark's reference trace as read-only
	// observers. The guest still executes exactly once per benchmark;
	// mispredict tallies are threshold-independent and identical across
	// Parallelism values and dispatch paths. Empty (the default) runs
	// no predictors and leaves every figure byte-identical.
	Predictors []string
	// SamplePeriods is the ladder of sampled-profiling periods to sweep
	// (dbt.Config.SamplePeriod): each period reruns the whole threshold
	// ladder with counters updated only every Nth block event, feeding
	// the accuracy-vs-cost frontier figures (figs1/figs2). The sampled
	// runs replay the reference trace, so each benchmark's guest still
	// executes exactly once.
	// Empty (the default) runs no sampled ladders and leaves every
	// figure byte-identical. Periods of 1 exercise the sampling
	// machinery but are full instrumentation by definition.
	SamplePeriods []uint64
	// Learned, when non-nil, adds the profile-free learned static
	// branch model as a third predictor class: per-benchmark static
	// features and reference-trace tallies are collected off the shared
	// trace (the guest still executes once per benchmark), then the
	// model is fit suite-wide with leave-one-benchmark-out cross
	// validation after every benchmark completes — each benchmark's
	// reported accuracy comes from a model that never saw any profile
	// of it. Fills Results.Learned and the figl1/figl2 figures; every
	// legacy figure stays byte-identical. The config's Fingerprint is
	// part of every learned cache key.
	Learned *learned.Config
	// Stop, when non-nil, triggers a graceful drain when it is closed:
	// in-flight guest runs are interrupted, completed units stay in
	// Cache, and Run returns the partial results with ErrStopped.
	Stop <-chan struct{}
	// StopAfter, when positive, stops the study after that many
	// benchmark completions — a deterministic stand-in for Stop in
	// tests and the stop-and-rerun CI smoke.
	StopAfter int
}

func (c *Config) defaults() {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if len(c.Thresholds) == 0 {
		c.Thresholds = AllThresholds
	}
	if len(c.Benchmarks) == 0 {
		c.Benchmarks = spec.Suite()
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
}

// ErrStopped re-exports the scheduler's cooperative-stop sentinel:
// Run returns it (wrapped) together with the partial results when the
// study was drained through Stop or StopAfter.
var ErrStopped = core.ErrStopped

// maxScale is the largest Scale a study accepts: 1 runs the paper's own
// ladder and run lengths, and since Scale multiplies every run length,
// a larger one only asks for more guest work (1e9 would run for hours)
// without reaching anything the paper measured.
const maxScale = 1.0

// Validate rejects configurations that would run garbage rather than
// fail up front, naming the offending value. Run calls it after
// applying defaults; commands call it directly to report flag errors
// before any work starts.
func (c *Config) Validate() error {
	if !(c.Scale > 0 && c.Scale <= maxScale) { // also rejects NaN and ±Inf
		return fmt.Errorf("study: invalid scale %v (want a factor in (0, %g])", c.Scale, maxScale)
	}
	seen := make(map[float64]bool, len(c.Thresholds))
	for _, t := range c.Thresholds {
		if math.IsNaN(t) || math.IsInf(t, 0) || t <= 0 {
			return fmt.Errorf("study: invalid threshold %v (want a positive paper-unit value)", t)
		}
		if seen[t] {
			return fmt.Errorf("study: duplicate threshold %v in ladder", t)
		}
		seen[t] = true
	}
	names := make(map[string]bool, len(c.Benchmarks))
	for i, b := range c.Benchmarks {
		if b == nil {
			return fmt.Errorf("study: benchmark %d is nil", i)
		}
		if names[b.Name] {
			return fmt.Errorf("study: benchmark %q selected twice", b.Name)
		}
		names[b.Name] = true
	}
	if c.StopAfter < 0 {
		return fmt.Errorf("study: invalid stop-after count %d", c.StopAfter)
	}
	if c.CacheVerify && c.Cache == nil {
		return errors.New("study: cache verification requested without a cache")
	}
	spSeen := make(map[uint64]bool, len(c.SamplePeriods))
	for _, p := range c.SamplePeriods {
		if p < 1 {
			return fmt.Errorf("study: invalid sample period %d (want >= 1)", p)
		}
		if spSeen[p] {
			return fmt.Errorf("study: duplicate sample period %d", p)
		}
		spSeen[p] = true
	}
	predSeen := make(map[string]bool, len(c.Predictors))
	for _, name := range c.Predictors {
		if _, err := predict.New(name); err != nil {
			return fmt.Errorf("study: %w", err)
		}
		if predSeen[name] {
			return fmt.Errorf("study: predictor %q selected twice", name)
		}
		predSeen[name] = true
	}
	if c.Learned != nil {
		if err := c.Learned.Validate(); err != nil {
			return fmt.Errorf("study: %w", err)
		}
	}
	return nil
}

// EffectiveThreshold converts a paper-unit threshold to the scaled value
// actually passed to the translator (minimum 1).
func EffectiveThreshold(paperT, scale float64) uint64 {
	v := float64(paperT * scale)
	if v < 1 {
		return 1
	}
	return uint64(v + 0.5)
}

// EffectiveLadder sorts a paper-unit threshold ladder and converts it
// to the effective values passed to the translator, exactly as Run
// builds its ladder.
func EffectiveLadder(paperT []float64, scale float64) (sorted []float64, effective []uint64) {
	sorted = append([]float64(nil), paperT...)
	sort.Float64s(sorted)
	effective = make([]uint64, len(sorted))
	for i, pt := range sorted {
		effective[i] = EffectiveThreshold(pt, scale)
	}
	return sorted, effective
}

// UnitOptions lowers the study configuration to the core.Options every
// benchmark of the study runs with: the effective threshold ladder, the
// study axes, the execution plumbing and the cache context. It is the
// one place a configuration becomes unit options, so a study and a
// daemon compare of the same work share cache entries.
func (c *Config) UnitOptions(timing *core.Timing) core.Options {
	_, thresholds := EffectiveLadder(c.Thresholds, c.Scale)
	return core.Options{
		Thresholds:    thresholds,
		Timing:        timing,
		Trace:         c.Trace,
		Faults:        c.Faults,
		Cache:         c.Cache,
		CacheVerify:   c.CacheVerify,
		Predictors:    c.Predictors,
		SamplePeriods: c.SamplePeriods,
		Learned:       c.Learned,
		// Scale is the one study parameter that shapes results
		// without being visible in image, tape or engine config
		// (it clamps the effective ladder), so it anchors the key
		// context. %g is canonical for a given float64.
		CacheContext: fmt.Sprintf("scale=%g", c.Scale),
	}
}

// BenchmarkSeries is one benchmark's complete sweep.
type BenchmarkSeries struct {
	Name  string
	Class spec.Class
	// Train is the INIP(train)-vs-AVEP comparison.
	Train metrics.Summary
	// TrainRegions adds offline-formed regions to the training profile
	// (section-5 future work): Sd.CP(train)/Sd.LP(train) references.
	TrainRegions metrics.Summary
	// TrainOps is the training run's profiling-operation total.
	TrainOps uint64
	// AVEPCycles is the cycle cost with optimization disabled.
	AVEPCycles float64
	// PerT is indexed like Results.PaperT.
	PerT []core.ThresholdResult
	// Failures lists the units of this benchmark that failed permanently
	// under the Degrade policy, sorted by unit and threshold. A series
	// with failures carries incomplete data and is excluded from every
	// figure (the exclusion is annotated in Figure.Gaps).
	Failures []core.UnitFailure `json:",omitempty"`
	// Predictors holds the dynamic-predictor tallies over this
	// benchmark's reference trace, in Config.Predictors order; absent
	// when no predictors were requested.
	Predictors []predict.Result `json:",omitempty"`
	// Sampling holds the sampled-profiling rerun ladders, one per
	// Config.SamplePeriods entry; absent when no periods were requested.
	Sampling []core.SamplePeriodResult `json:",omitempty"`
	// Learned holds this benchmark's learned-predictor collection
	// (static site features + reference-trace tallies); absent when
	// Config.Learned was nil. The
	// suite-level fit consumes these after every benchmark completes.
	Learned *learned.BenchData `json:",omitempty"`
}

// seriesFromResult converts one benchmark's completed unit result into
// its study series, sorting absorbed failures into their deterministic
// order.
func seriesFromResult(b *spec.Benchmark, out *core.BenchmarkResult) BenchmarkSeries {
	sortFailures(out.Failures)
	return BenchmarkSeries{
		Name:         b.Name,
		Class:        b.Class,
		Train:        out.Train,
		TrainRegions: out.TrainRegions,
		TrainOps:     out.TrainOps,
		AVEPCycles:   out.AVEPCycles,
		PerT:         out.Results,
		Failures:     out.Failures,
		Predictors:   out.Predictors,
		Sampling:     out.Sampling,
		Learned:      out.Learned,
	}
}

// ok reports whether the series carries complete measurement data: the
// benchmark finished (a stopped study leaves unfinished series with an
// empty name) and none of its units failed.
func (s *BenchmarkSeries) ok() bool {
	return s.Name != "" && len(s.Failures) == 0
}

// Results is the study output.
type Results struct {
	Scale  float64
	PaperT []float64
	Series []BenchmarkSeries
	// Failures flattens every absorbed unit failure across the suite,
	// sorted by benchmark, unit and threshold — the study-level record
	// of what a degraded run is missing.
	Failures []core.UnitFailure `json:",omitempty"`
	// Learned is the suite-level leave-one-benchmark-out fit of the
	// learned static branch model, present when Config.Learned was set
	// and at least two benchmarks completed cleanly. It is recomputed
	// from the per-benchmark series on every Run — including warm
	// ones, where the series come out of the cache — so it is a pure
	// function of Series and the model config.
	Learned *learned.CVResult `json:",omitempty"`
	// Perf reports where the study's wall-clock went.
	Perf Perf
}

// Perf summarizes a study run's execution profile. Phase seconds are
// summed across concurrent units, so they exceed WallSeconds whenever
// the pool kept more than one core busy.
type Perf struct {
	WallSeconds    float64 `json:"wall_seconds"`
	BuildSeconds   float64 `json:"build_seconds"`
	RefRunSeconds  float64 `json:"ref_run_seconds"`
	TrainSeconds   float64 `json:"train_run_seconds"`
	CompareSeconds float64 `json:"compare_seconds"`
	// BlocksExecuted totals dynamic block executions across every run
	// unit (each profiling context counts its pass over the trace).
	BlocksExecuted uint64  `json:"blocks_executed"`
	BlocksPerSec   float64 `json:"blocks_per_sec"`
	// Sampled-profiling accounting (Config.SamplePeriods), all zero —
	// and omitted — when no periods were requested or every sampled
	// ladder replayed from the cache. SampledProfilingOps counts actual
	// counter updates of the sampled contexts (sampled units, not
	// period-scaled estimates), so it is directly comparable to the
	// full-instrumentation rungs' ProfilingOps; the rate is guarded so a
	// zero-duration or fully-warm run reports 0, never NaN or Inf.
	SampledUnits        int64   `json:"sampled_units,omitempty"`
	SampledProfilingOps uint64  `json:"sampled_profiling_ops,omitempty"`
	SampledOpsPerSec    float64 `json:"sampled_ops_per_sec,omitempty"`
	// Workers is the scheduler's resolved pool size — what actually
	// ran, not the requested Parallelism (which may be zero = default).
	Workers int `json:"workers"`

	// Engine-counter aggregates, summed over every profiling context of
	// every run unit (see dbt.RunStats for per-counter semantics).
	Translations      int64  `json:"blocks_translated"`
	Retranslations    int64  `json:"retranslations"`
	OptimizationWaves int64  `json:"optimization_waves"`
	RegionsFormed     int64  `json:"regions_formed"`
	RegionsDissolved  int64  `json:"regions_dissolved"`
	FastDispatches    uint64 `json:"fast_dispatches"`
	GenericDispatches uint64 `json:"generic_dispatches"`
	CacheLookups      uint64 `json:"cache_lookups"`
	InterruptPolls    uint64 `json:"interrupt_polls"`
	FreezeEvents      uint64 `json:"freeze_events"`

	// Observability-pipeline health: progress lines whose write failed
	// and flight-recorder events dropped on queue overflow.
	ProgressWriteErrors uint64 `json:"progress_write_errors,omitempty"`
	TraceEventsDropped  uint64 `json:"trace_events_dropped,omitempty"`

	// Robustness accounting (zero on a clean run, so the report shape is
	// unchanged when the machinery is idle): unit failures absorbed by
	// Degrade.
	UnitFailures int `json:"unit_failures,omitempty"`

	// Result-cache accounting (all zero — and omitted — when no cache
	// is configured, so the report shape is unchanged): validated hits,
	// misses, entry writes, and corrupt-entry rejections plus failed
	// writes.
	ResultCacheHits   uint64 `json:"result_cache_hits,omitempty"`
	ResultCacheMisses uint64 `json:"result_cache_misses,omitempty"`
	ResultCacheStores uint64 `json:"result_cache_stores,omitempty"`
	ResultCacheErrors uint64 `json:"result_cache_errors,omitempty"`
	// ResultCacheHealFailures counts entry writes demoted to no-ops
	// after the store latched read-only (unwritable cache directory).
	ResultCacheHealFailures uint64 `json:"result_cache_heal_failures,omitempty"`
}

// Run executes the study: every benchmark is decomposed into run units
// (reference execution, training run, per-threshold comparisons) on one
// shared worker pool. The failure policy decides whether a unit error
// cancels the study (fail-fast, the default) or only its benchmark
// (degrade). With a Cache, every finished unit is stored as it
// completes, so rerunning a stopped or failed study over the same cache
// re-executes only the missing units. On a graceful stop Run returns
// the partial results together with a wrapped ErrStopped.
func Run(cfg Config) (*Results, error) {
	cfg.defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	paperT, _ := EffectiveLadder(cfg.Thresholds, cfg.Scale)

	res := &Results{Scale: cfg.Scale, PaperT: paperT, Series: make([]BenchmarkSeries, len(cfg.Benchmarks))}

	var timing core.Timing
	var progressErrs atomic.Uint64
	start := time.Now()
	sched := core.NewSchedulerPolicy(cfg.Parallelism, cfg.Policy)
	if cfg.Stop != nil {
		go func() {
			select {
			case <-cfg.Stop:
				sched.Stop()
			case <-sched.Done():
			}
		}()
	}
	// progressMu serializes Progress writes only; result recording is
	// lock-free (each benchmark owns its series slot), so a slow writer
	// never stalls the pool.
	var progressMu sync.Mutex
	progress := func(line string) {
		if cfg.Progress == nil {
			return
		}
		progressMu.Lock()
		_, werr := io.WriteString(cfg.Progress, line)
		progressMu.Unlock()
		if werr != nil {
			// A broken progress sink must not abort (or skew) a
			// multi-minute study, but it must not vanish either:
			// count the dropped line and surface it in Perf.
			progressErrs.Add(1)
		}
	}
	var completions atomic.Int64
	for i, b := range cfg.Benchmarks {
		i, b := i, b
		core.ScheduleBenchmark(sched, b.Target(cfg.Scale), cfg.UnitOptions(&timing), func(out *core.BenchmarkResult) {
			res.Series[i] = seriesFromResult(b, out)
			if len(out.Failures) == 0 {
				progress(fmt.Sprintf("done %-8s (%s): train Sd.BP=%.3f mismatch=%.1f%%\n",
					b.Name, b.Class, out.Train.SdBP, out.Train.BPMismatch*100))
			} else {
				progress(fmt.Sprintf("FAIL %-8s (%s): %d unit failure(s), first: %s\n",
					b.Name, b.Class, len(out.Failures), out.Failures[0].Err))
			}
			if n := cfg.StopAfter; n > 0 && completions.Add(1) == int64(n) {
				sched.Stop()
			}
		})
	}
	werr := sched.Wait()
	if werr != nil && !errors.Is(werr, core.ErrStopped) {
		return nil, fmt.Errorf("study: %w", werr)
	}

	for i := range res.Series {
		res.Failures = append(res.Failures, res.Series[i].Failures...)
	}
	sortFailures(res.Failures)

	// Suite-level learned fit: leave-one-benchmark-out cross validation
	// over every cleanly completed series. It runs on stopped studies
	// too, so Results.Learned is always a pure function of Series and
	// the model config. A fit error on an otherwise clean study is a
	// study error; on a stopped study the stop sentinel wins.
	if cfg.Learned != nil {
		if ferr := res.fitLearned(*cfg.Learned, cfg.Trace); ferr != nil && werr == nil {
			return nil, fmt.Errorf("study: %w", ferr)
		}
	}

	wall := time.Since(start)
	res.Perf = Perf{
		WallSeconds:    wall.Seconds(),
		BuildSeconds:   time.Duration(timing.Build.Load()).Seconds(),
		RefRunSeconds:  time.Duration(timing.RefRuns.Load()).Seconds(),
		TrainSeconds:   time.Duration(timing.TrainRuns.Load()).Seconds(),
		CompareSeconds: time.Duration(timing.Compare.Load()).Seconds(),
		BlocksExecuted: timing.BlocksExecuted.Load(),
		Workers:        sched.Workers(),

		Translations:      timing.Translations.Load(),
		Retranslations:    timing.Retranslations.Load(),
		OptimizationWaves: timing.OptimizationWaves.Load(),
		RegionsFormed:     timing.RegionsFormed.Load(),
		RegionsDissolved:  timing.RegionsDissolved.Load(),
		FastDispatches:    timing.FastDispatches.Load(),
		GenericDispatches: timing.GenericDispatches.Load(),
		CacheLookups:      timing.CacheLookups.Load(),
		InterruptPolls:    timing.InterruptPolls.Load(),
		FreezeEvents:      timing.FreezeEvents.Load(),

		ProgressWriteErrors: progressErrs.Load(),
		// Exact here: every emitter finished when Wait returned.
		TraceEventsDropped: cfg.Trace.Dropped(),

		UnitFailures: len(res.Failures),
	}
	// Counters accumulate over the store's lifetime; a store shared
	// across Run calls reports the cumulative totals here.
	cacheCounters := cfg.Cache.Counters()
	res.Perf.ResultCacheHits = cacheCounters.Hits
	res.Perf.ResultCacheMisses = cacheCounters.Misses
	res.Perf.ResultCacheStores = cacheCounters.Stores
	res.Perf.ResultCacheErrors = cacheCounters.Errors
	res.Perf.ResultCacheHealFailures = cacheCounters.HealFailures
	res.Perf.SampledUnits = timing.SampledUnits.Load()
	res.Perf.SampledProfilingOps = timing.SampledProfilingOps.Load()
	if wall > 0 {
		res.Perf.BlocksPerSec = float64(res.Perf.BlocksExecuted) / wall.Seconds()
		res.Perf.SampledOpsPerSec = float64(res.Perf.SampledProfilingOps) / wall.Seconds()
	}
	if werr != nil {
		// Graceful stop: the caller gets everything that completed (and,
		// with a Cache, was stored) plus the sentinel to tell this apart from
		// success or failure.
		return res, fmt.Errorf("study: %w", werr)
	}
	return res, nil
}

// sortFailures orders failures deterministically: by benchmark, unit,
// then threshold (unit completion order is scheduling-dependent).
func sortFailures(fs []core.UnitFailure) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Bench != fs[j].Bench {
			return fs[i].Bench < fs[j].Bench
		}
		if fs[i].Unit != fs[j].Unit {
			return fs[i].Unit < fs[j].Unit
		}
		return fs[i].T < fs[j].T
	})
}

// ByName returns the series of the named benchmark, or nil.
func (r *Results) ByName(name string) *BenchmarkSeries {
	for i := range r.Series {
		if r.Series[i].Name == name {
			return &r.Series[i]
		}
	}
	return nil
}

// classIndexes returns the series indexes belonging to the class.
// Failed or unfinished series are excluded here — the single chokepoint
// every aggregation goes through — so a degraded study's figures are
// computed exactly as if the failed benchmarks had not been selected.
func (r *Results) classIndexes(c spec.Class) []int {
	var out []int
	for i := range r.Series {
		if r.Series[i].Class == c && r.Series[i].ok() {
			out = append(out, i)
		}
	}
	return out
}

// tIndex locates a paper threshold in the ladder, or -1.
func (r *Results) tIndex(paperT float64) int {
	for i, t := range r.PaperT {
		if t == paperT {
			return i
		}
	}
	return -1
}

// avgOver averages f over the class's benchmarks at each threshold
// index in keep.
func (r *Results) avgOver(c spec.Class, keep []int, f func(*core.ThresholdResult, *BenchmarkSeries) float64) []float64 {
	idxs := r.classIndexes(c)
	out := make([]float64, len(keep))
	for k, ti := range keep {
		sum := 0.0
		for _, bi := range idxs {
			s := &r.Series[bi]
			sum += f(&s.PerT[ti], s)
		}
		if len(idxs) > 0 {
			out[k] = sum / float64(len(idxs))
		}
	}
	return out
}

// avgTrain averages a train-summary metric over the class.
func (r *Results) avgTrain(c spec.Class, f func(metrics.Summary) float64) float64 {
	idxs := r.classIndexes(c)
	if len(idxs) == 0 {
		return 0
	}
	sum := 0.0
	for _, bi := range idxs {
		sum += f(r.Series[bi].Train)
	}
	return sum / float64(len(idxs))
}

// avgTrainRegions averages a metric of the offline-region train
// comparison (Sd.CP(train)/Sd.LP(train)) over the class.
func (r *Results) avgTrainRegions(c spec.Class, f func(metrics.Summary) float64) float64 {
	idxs := r.classIndexes(c)
	if len(idxs) == 0 {
		return 0
	}
	sum := 0.0
	for _, bi := range idxs {
		sum += f(r.Series[bi].TrainRegions)
	}
	return sum / float64(len(idxs))
}
