package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"
)

// handleMetrics renders the Prometheus text exposition format (0.0.4):
// the server's own admission/coalescing counters, the predictor,
// sampled and learned compare totals, and result-cache and
// flight-recorder accounting.
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
	counter("inipd_compare_warm_total", "successful compare responses served with zero guest blocks executed", s.m.compareWarm.Load())
	counter("inipd_compare_errors_total", "compare requests answered 5xx (excluding deadlines)", s.m.compareErrors.Load())
	counter("inipd_compare_guest_blocks_total", "guest blocks executed by compare flights, failed ones included", s.m.guestBlocks.Load())

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
		// An empty branch stream (a degenerate benchmark, never a warm
		// hit — tallies replay fully populated) exports 0, not NaN.
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
		// A full ladder with zero profiling operations exports 0, not
		// NaN.
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
		// An empty stream exports 0, not NaN.
		rate := 0.0
		if branches > 0 {
			rate = float64(mis) / float64(branches)
		}
		gauge("inipd_learned_mispredict_rate", "aggregate held-out learned-model mispredict rate", fmt.Sprintf("%.6f", rate))
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
