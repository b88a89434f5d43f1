package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/study"
)

// perfTotals accumulates study.Perf aggregates over every job this
// process finished; /v1/metrics exposes them as monotonic counters.
type perfTotals struct {
	mu             sync.Mutex
	jobs           uint64
	wallSeconds    float64
	blocksExecuted uint64
	unitFailures   uint64
	// Hot-loop engine counters (see dbt.RunStats): the fast/generic
	// dispatch split, translation-cache probes, and the wall-clock the
	// jobs spent inside run units — the denominator of the exported
	// blocks-per-second gauge.
	fastDispatches    uint64
	genericDispatches uint64
	cacheLookups      uint64
	runSeconds        float64
	// Sampled-profiling accounting: sampled ladder units executed and
	// their actual (sampled, unscaled) counter updates across finished
	// jobs. Zero — and absent from the exposition — unless some job ran
	// with sample_periods.
	sampledUnits        uint64
	sampledProfilingOps uint64
}

// recordJobPerf folds one finished job's Perf into the totals.
func (s *Server) recordJobPerf(p study.Perf) {
	t := &s.perf
	t.mu.Lock()
	t.jobs++
	t.wallSeconds += p.WallSeconds
	t.blocksExecuted += p.BlocksExecuted
	t.unitFailures += uint64(p.UnitFailures)
	t.fastDispatches += p.FastDispatches
	t.genericDispatches += p.GenericDispatches
	t.cacheLookups += p.CacheLookups
	t.runSeconds += p.RefRunSeconds + p.TrainSeconds
	t.sampledUnits += uint64(p.SampledUnits)
	t.sampledProfilingOps += p.SampledProfilingOps
	t.mu.Unlock()
}

// handleMetrics renders the Prometheus text exposition format (0.0.4):
// the server's own admission/coalescing counters, the aggregated
// study.Perf of finished jobs, result-cache and flight-recorder
// accounting, and job-state gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder

	gauge := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}

	ready := 1
	if s.draining.Load() || s.sched.Stopped() {
		ready = 0
	}
	gauge("inipd_ready", "1 while the daemon admits new work", ready)
	gauge("inipd_uptime_seconds", "seconds since the daemon started", fmt.Sprintf("%.3f", time.Since(s.start).Seconds()))
	gauge("inipd_scheduler_workers", "size of the shared comparison worker pool", s.sched.Workers())
	gauge("inipd_compare_inflight", "compare requests holding an execution slot", len(s.inflight))

	counter("inipd_compare_requests_total", "POST /v1/compare requests received", s.m.compareRequests.Load())
	counter("inipd_compare_ok_total", "compare requests answered 200", s.m.compareOK.Load())
	counter("inipd_compare_overload_total", "compare requests rejected 429 at admission", s.m.compareOverload.Load())
	counter("inipd_compare_deadline_total", "compare requests expired 504", s.m.compareDeadline.Load())
	counter("inipd_compare_coalesced_total", "compare requests served from another caller's in-flight work", s.m.compareCoalesced.Load())
	counter("inipd_compare_warm_total", "compare responses served with zero guest blocks executed", s.m.compareWarm.Load())
	counter("inipd_compare_errors_total", "compare requests answered 5xx (excluding deadlines)", s.m.compareErrors.Load())
	counter("inipd_compare_guest_blocks_total", "guest blocks executed by compare requests", s.m.guestBlocks.Load())
	counter("inipd_study_requests_total", "POST /v1/study requests received", s.m.studyRequests.Load())
	counter("inipd_job_records_dropped_total", "corrupt jobs.json tails salvaged at startup (leading records kept)", s.jobs.recordsDropped)

	s.perf.mu.Lock()
	jobs, wall, blocks := s.perf.jobs, s.perf.wallSeconds, s.perf.blocksExecuted
	fails := s.perf.unitFailures
	fast, generic, lookups := s.perf.fastDispatches, s.perf.genericDispatches, s.perf.cacheLookups
	runSecs := s.perf.runSeconds
	sampledUnits, sampledStudyOps := s.perf.sampledUnits, s.perf.sampledProfilingOps
	s.perf.mu.Unlock()
	counter("inipd_study_jobs_finished_total", "study jobs completed by this process", jobs)
	counter("inipd_study_wall_seconds_total", "summed wall-clock of finished study jobs", fmt.Sprintf("%.3f", wall))
	counter("inipd_study_guest_blocks_total", "guest blocks executed by finished study jobs", blocks)
	counter("inipd_study_unit_failures_total", "absorbed unit failures across finished jobs", fails)
	counter("inipd_study_fast_dispatches_total", "blocks executed through the pre-lowered arena fast path", fast)
	counter("inipd_study_generic_dispatches_total", "blocks executed through the generic interp dispatch", generic)
	counter("inipd_study_cache_lookups_total", "translation-cache probes (successor threading keeps this below the block count)", lookups)
	bps := 0.0
	if runSecs > 0 {
		bps = float64(blocks) / runSecs
	}
	gauge("inipd_study_blocks_per_second", "hot-loop throughput: guest blocks over run-unit wall-clock of finished jobs", fmt.Sprintf("%.1f", bps))

	s.predMu.Lock()
	predNames := make([]string, 0, len(s.predTotals))
	for name := range s.predTotals {
		predNames = append(predNames, name)
	}
	sort.Strings(predNames)
	type predRow struct {
		name                  string
		branches, mispredicts uint64
	}
	predRows := make([]predRow, len(predNames))
	for i, name := range predNames {
		t := s.predTotals[name]
		predRows[i] = predRow{name, t.branches, t.mispredicts}
	}
	s.predMu.Unlock()
	if len(predRows) > 0 {
		fmt.Fprintf(&b, "# HELP inipd_predictor_branches_total branches observed per dynamic predictor across compare requests\n# TYPE inipd_predictor_branches_total counter\n")
		for _, row := range predRows {
			fmt.Fprintf(&b, "inipd_predictor_branches_total{predictor=%q} %d\n", row.name, row.branches)
		}
		fmt.Fprintf(&b, "# HELP inipd_predictor_mispredicts_total mispredictions per dynamic predictor across compare requests\n# TYPE inipd_predictor_mispredicts_total counter\n")
		for _, row := range predRows {
			fmt.Fprintf(&b, "inipd_predictor_mispredicts_total{predictor=%q} %d\n", row.name, row.mispredicts)
		}
		// Guarded like blocks-per-second: an empty branch stream (a
		// degenerate benchmark, never a warm hit — tallies replay fully
		// populated) exports 0, not NaN.
		fmt.Fprintf(&b, "# HELP inipd_predictor_mispredict_rate mispredict rate per dynamic predictor across compare requests\n# TYPE inipd_predictor_mispredict_rate gauge\n")
		for _, row := range predRows {
			rate := 0.0
			if row.branches > 0 {
				rate = float64(row.mispredicts) / float64(row.branches)
			}
			fmt.Fprintf(&b, "inipd_predictor_mispredict_rate{predictor=%q} %.6f\n", row.name, rate)
		}
	}

	// Sampled-profiling accounting, emitted only once some sampled work
	// ran — a sampling-less process keeps the legacy exposition
	// byte-identical.
	if sc := s.m.sampledCompares.Load(); sc > 0 {
		counter("inipd_compare_sampled_total", "compare requests that ran a sampled-profiling rerun", sc)
		sOps, fOps := s.m.sampledOps.Load(), s.m.sampledFullOps.Load()
		counter("inipd_sampled_profiling_ops_total", "counter updates performed by sampled compare reruns", sOps)
		counter("inipd_sampled_full_profiling_ops_total", "counter updates performed by the matching full-instrumentation runs", fOps)
		// Guarded like blocks-per-second: a full ladder with zero
		// profiling operations exports 0, not NaN.
		ratio := 0.0
		if fOps > 0 {
			ratio = float64(sOps) / float64(fOps)
		}
		gauge("inipd_sampled_cost_ratio", "aggregate sampled over full-instrumentation counter-update ratio of compare reruns", fmt.Sprintf("%.6f", ratio))
	}
	// Learned-model accounting, same emit-only-when-used contract.
	if lc := s.m.learnedCompares.Load(); lc > 0 {
		counter("inipd_learned_compares_total", "compare requests that scored the held-out learned static model", lc)
		branches := s.m.learnedBranches.Load()
		mis := s.m.learnedMispredicts.Load()
		takenMis := s.m.learnedTakenMispredicts.Load()
		counter("inipd_learned_branches_total", "held-out branches scored by the learned model across compare requests", branches)
		counter("inipd_learned_mispredicts_total", "held-out learned-model mispredictions across compare requests", mis)
		counter("inipd_learned_taken_mispredicts_total", "always-taken baseline mispredictions on the same held-out streams", takenMis)
		// Guarded like blocks-per-second: an empty stream exports 0, not NaN.
		rate := 0.0
		if branches > 0 {
			rate = float64(mis) / float64(branches)
		}
		gauge("inipd_learned_mispredict_rate", "aggregate held-out learned-model mispredict rate", fmt.Sprintf("%.6f", rate))
	}
	if sampledUnits > 0 {
		counter("inipd_study_sampled_units_total", "sampled-profiling ladder units executed by finished study jobs", sampledUnits)
		counter("inipd_study_sampled_profiling_ops_total", "counter updates performed by sampled study units (actual sampled events, not scaled)", sampledStudyOps)
	}

	states := map[JobState]int{}
	for _, rec := range s.jobs.list() {
		states[rec.State]++
	}
	fmt.Fprintf(&b, "# HELP inipd_jobs current jobs by state\n# TYPE inipd_jobs gauge\n")
	keys := make([]string, 0, len(states))
	for st := range states {
		keys = append(keys, string(st))
	}
	sort.Strings(keys)
	for _, st := range keys {
		fmt.Fprintf(&b, "inipd_jobs{state=%q} %d\n", st, states[JobState(st)])
	}

	if s.cfg.Cache != nil {
		c := s.cfg.Cache.Counters()
		counter("inipd_result_cache_hits_total", "validated result-cache hits", c.Hits)
		counter("inipd_result_cache_misses_total", "result-cache misses", c.Misses)
		counter("inipd_result_cache_stores_total", "result-cache entry writes", c.Stores)
		counter("inipd_result_cache_errors_total", "rejected entries and surfaced write failures", c.Errors)
		counter("inipd_result_cache_heal_failures_total", "writes demoted after the cache latched read-only", c.HealFailures)
		ro := 0
		if s.cfg.Cache.ReadOnly() {
			ro = 1
		}
		gauge("inipd_result_cache_read_only", "1 after the cache demoted itself to read-only", ro)
	}
	if s.cfg.Trace != nil {
		counter("inipd_trace_dropped_events_total", "flight-recorder events dropped (overflow or post-close)", s.cfg.Trace.Dropped())
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}
