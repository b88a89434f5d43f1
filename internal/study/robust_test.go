package study

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/resultcache"
	"repro/internal/spec"
)

// robustConfig is the reduced study configuration the robustness tests
// share: two benchmarks, short ladder, tiny scale.
func robustConfig(names ...string) Config {
	var benches []*spec.Benchmark
	for _, n := range names {
		benches = append(benches, spec.ByName(n))
	}
	return Config{
		Scale:      0.001,
		Thresholds: []float64{1, 100, 1e3, 1e6},
		Benchmarks: benches,
	}
}

func plan(t *testing.T, spec string) *faultinject.Plan {
	t.Helper()
	p, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// figureJSON is the byte-exact figure fingerprint the acceptance
// criteria compare (Gaps are json:"-" and so excluded by design).
func figureJSON(t *testing.T, r *Results) string {
	t.Helper()
	data, err := json.Marshal(r.Figures())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestDegradeStudyCompletes is the headline acceptance test: with the
// Degrade policy and one injected failing benchmark the study must
// complete, list exactly one UnitFailure, and produce figure rows
// byte-identical to a fault-free run over the surviving benchmarks.
func TestDegradeStudyCompletes(t *testing.T) {
	clean, err := Run(robustConfig("swim"))
	if err != nil {
		t.Fatal(err)
	}

	cfg := robustConfig("gzip", "swim")
	cfg.Policy = core.Degrade
	cfg.Faults = plan(t, "trap:gzip/ref@500")
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("degraded study failed outright: %v", err)
	}

	if len(res.Failures) != 1 {
		t.Fatalf("Failures = %+v, want exactly one", res.Failures)
	}
	f := res.Failures[0]
	if f.Bench != "gzip" || f.Unit != obs.UnitRef {
		t.Fatalf("failure misattributed: %+v", f)
	}
	if !strings.Contains(f.Err, "injected guest trap at block 500") {
		t.Fatalf("failure lost the trap diagnostic: %q", f.Err)
	}
	if res.Perf.UnitFailures != 1 {
		t.Fatalf("Perf.UnitFailures = %d, want 1", res.Perf.UnitFailures)
	}

	if got, want := figureJSON(t, res), figureJSON(t, clean); got != want {
		t.Fatal("degraded figures are not byte-identical to the fault-free survivor run")
	}

	// The exclusion must be visible, not silent: every figure carries
	// the gap annotation and the reports render it.
	figs := res.Figures()
	if len(figs[0].Gaps) != 1 || !strings.Contains(figs[0].Gaps[0], "gzip excluded") {
		t.Fatalf("Gaps = %v, want one gzip exclusion", figs[0].Gaps)
	}
	if md := res.MarkdownReport(); !strings.Contains(md, "gzip excluded") {
		t.Fatal("markdown report hides the gap")
	}
	if txt := TextReport(res.Figures(), false); !strings.Contains(txt, "gzip excluded") {
		t.Fatal("text report hides the gap")
	}
}

// TestFailFastUnchangedByDefault: the zero-value policy must keep the
// historical behavior — first unit error cancels the study.
func TestFailFastUnchangedByDefault(t *testing.T) {
	cfg := robustConfig("gzip", "swim")
	cfg.Faults = plan(t, "build:gzip/ref")
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "faultinject: build failure") {
		t.Fatalf("fail-fast study did not surface the injected failure: %v", err)
	}
}

// openCache opens the result cache in dir; each call stands for a new
// process over the same directory, so Perf's cumulative cache counters
// cover exactly one Run.
func openCache(t *testing.T, dir string) *resultcache.Store {
	t.Helper()
	store, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestStopRerunByteIdentical is the resume acceptance test: a study
// stopped mid-run and rerun over the same cache must produce
// byte-identical figures, and a further rerun executes nothing.
func TestStopRerunByteIdentical(t *testing.T) {
	full, err := Run(robustConfig("gzip", "swim"))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	first := robustConfig("gzip", "swim")
	first.Cache = openCache(t, dir)
	first.StopAfter = 1
	partial, err := Run(first)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped study returned %v, want ErrStopped", err)
	}
	if partial == nil {
		t.Fatal("stopped study returned no partial results")
	}
	if partial.Perf.ResultCacheStores == 0 {
		t.Fatal("stopped study stored no finished unit")
	}

	second := robustConfig("gzip", "swim")
	second.Cache = openCache(t, dir)
	res, err := Run(second)
	if err != nil {
		t.Fatalf("rerun failed: %v", err)
	}
	if res.Perf.ResultCacheHits == 0 {
		t.Fatal("rerun served nothing from the stopped study's entries")
	}
	if got, want := figureJSON(t, res), figureJSON(t, full); got != want {
		t.Fatal("rerun figures are not byte-identical to the uninterrupted run")
	}

	third := robustConfig("gzip", "swim")
	third.Cache = openCache(t, dir)
	res3, err := Run(third)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Perf.BlocksExecuted != 0 || res3.Perf.ResultCacheMisses != 0 {
		t.Fatalf("third run still executed work: blocks=%d misses=%d",
			res3.Perf.BlocksExecuted, res3.Perf.ResultCacheMisses)
	}
	if got, want := figureJSON(t, res3), figureJSON(t, full); got != want {
		t.Fatal("fully-warm figures are not byte-identical to the uninterrupted run")
	}
}

// TestStopLeavesOnlyCleanEntries: a stop that interrupts units in
// flight on every study axis must store only finished, correct
// entries. The verified rerun recomputes every hit and fails on any
// divergence, so a torn or partial entry cannot pass unnoticed. Scale
// 0.01 keeps the second benchmark's units running when the first one
// completes, so the stop lands mid-unit.
func TestStopLeavesOnlyCleanEntries(t *testing.T) {
	axes := func() Config {
		cfg := robustConfig("gzip", "swim")
		cfg.Scale = 0.01
		cfg.Predictors = predict.Names()
		cfg.SamplePeriods = []uint64{4, 16}
		cfg.Parallelism = 2
		return cfg
	}
	full, err := Run(axes())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	first := axes()
	first.Cache = openCache(t, dir)
	first.StopAfter = 1
	if _, err := Run(first); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped study returned %v, want ErrStopped", err)
	}

	rerun := axes()
	rerun.Cache = openCache(t, dir)
	rerun.CacheVerify = true
	res, err := Run(rerun)
	if err != nil {
		t.Fatalf("verified rerun over the stopped study's cache failed: %v", err)
	}
	if got, want := figureJSON(t, res), figureJSON(t, full); got != want {
		t.Fatal("verified rerun figures are not byte-identical to an uncached run")
	}
}

// TestResumeRetriesFailedBenchmark: a degraded benchmark is completed
// by a clean rerun over the same cache, converging to the clean result.
func TestResumeRetriesFailedBenchmark(t *testing.T) {
	full, err := Run(robustConfig("gzip", "swim"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	first := robustConfig("gzip", "swim")
	first.Cache = openCache(t, dir)
	first.Policy = core.Degrade
	first.Faults = plan(t, "build:gzip/ref")
	if _, err := Run(first); err != nil {
		t.Fatal(err)
	}
	second := robustConfig("gzip", "swim")
	second.Cache = openCache(t, dir)
	res, err := Run(second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("failures survived the rerun: %+v", res.Failures)
	}
	if got, want := figureJSON(t, res), figureJSON(t, full); got != want {
		t.Fatal("rerun-after-degrade figures differ from the clean run")
	}
}

// TestValidateNamesTheBadValue: every rejected configuration names the
// offending value.
func TestValidateNamesTheBadValue(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"nan scale", func(c *Config) { c.Scale = math.NaN() }, "scale"},
		{"negative scale", func(c *Config) { c.Scale = -2 }, "-2"},
		{"scale above the paper's", func(c *Config) { c.Scale = 1e9 }, "scale 1e+09"},
		{"zero threshold", func(c *Config) { c.Thresholds = []float64{0, 100} }, "threshold 0"},
		{"nan threshold", func(c *Config) { c.Thresholds = []float64{math.NaN()} }, "threshold"},
		{"dup threshold", func(c *Config) { c.Thresholds = []float64{100, 100} }, "duplicate threshold 100"},
		{"nil bench", func(c *Config) { c.Benchmarks = []*spec.Benchmark{nil} }, "benchmark 0"},
		{"dup bench", func(c *Config) { c.Benchmarks = append(c.Benchmarks, c.Benchmarks[0]) }, "twice"},
		{"negative stopafter", func(c *Config) { c.StopAfter = -1 }, "stop-after"},
		{"negative parallelism", func(c *Config) { c.Parallelism = -3 }, "parallelism -3"},
		{"section 5 without its rungs", func(c *Config) { c.Section5 = true }, "threshold 500"},
	}
	for _, tc := range cases {
		cfg := robustConfig("gzip")
		tc.mutate(&cfg)
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestStopChannelDrains: closing Stop ends the study with ErrStopped
// and partial results.
func TestStopChannelDrains(t *testing.T) {
	stop := make(chan struct{})
	close(stop) // stop immediately: nothing should run
	cfg := robustConfig("gzip", "swim")
	cfg.Stop = stop
	res, err := Run(cfg)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if res == nil {
		t.Fatal("no partial results returned")
	}
	if res.Perf.Workers == 0 {
		t.Fatal("partial results carry no Perf")
	}
}
