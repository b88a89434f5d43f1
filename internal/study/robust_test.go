package study

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
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
	if txt := res.TextReport(false); !strings.Contains(txt, "gzip excluded") {
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

// TestCheckpointResumeByteIdentical is the resume acceptance test: a
// study stopped mid-run and resumed must produce byte-identical
// figures while re-executing only the unfinished benchmarks.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	full, err := Run(robustConfig("gzip", "swim"))
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "state.jsonl")
	first := robustConfig("gzip", "swim")
	first.Checkpoint = ckpt
	first.StopAfter = 1
	partial, err := Run(first)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped study returned %v, want ErrStopped", err)
	}
	if partial == nil {
		t.Fatal("stopped study returned no partial results")
	}

	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("no checkpoint written before stop: %v", err)
	}
	stored := strings.Count(strings.TrimSpace(string(data)), "\n") // header + series
	if stored < 1 {
		t.Fatalf("checkpoint holds no series:\n%s", data)
	}

	second := robustConfig("gzip", "swim")
	second.Checkpoint = ckpt
	second.Resume = true
	res, err := Run(second)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if res.Perf.ResumedSeries != stored {
		t.Fatalf("ResumedSeries = %d, checkpoint held %d", res.Perf.ResumedSeries, stored)
	}
	if got, want := figureJSON(t, res), figureJSON(t, full); got != want {
		t.Fatal("resumed figures are not byte-identical to the uninterrupted run")
	}

	// A second resume restores everything and re-executes nothing.
	third := robustConfig("gzip", "swim")
	third.Checkpoint = ckpt
	third.Resume = true
	res3, err := Run(third)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Perf.ResumedSeries != 2 || res3.Perf.BlocksExecuted != 0 {
		t.Fatalf("full resume still executed work: resumed=%d blocks=%d",
			res3.Perf.ResumedSeries, res3.Perf.BlocksExecuted)
	}
	if got, want := figureJSON(t, res3), figureJSON(t, full); got != want {
		t.Fatal("fully-resumed figures are not byte-identical to the uninterrupted run")
	}
}

// TestResumeRetriesFailedBenchmark: a degraded benchmark is not
// checkpointed, so a resumed run (without the fault) completes it and
// converges to the clean result.
func TestResumeRetriesFailedBenchmark(t *testing.T) {
	full, err := Run(robustConfig("gzip", "swim"))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "state.jsonl")
	first := robustConfig("gzip", "swim")
	first.Checkpoint = ckpt
	first.Policy = core.Degrade
	first.Faults = plan(t, "build:gzip/ref")
	if _, err := Run(first); err != nil {
		t.Fatal(err)
	}
	second := robustConfig("gzip", "swim")
	second.Checkpoint = ckpt
	second.Resume = true
	res, err := Run(second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Perf.ResumedSeries != 1 {
		t.Fatalf("ResumedSeries = %d, want 1 (swim only)", res.Perf.ResumedSeries)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("failures survived the resume: %+v", res.Failures)
	}
	if got, want := figureJSON(t, res), figureJSON(t, full); got != want {
		t.Fatal("resume-after-degrade figures differ from the clean run")
	}
}

// TestResumeRejectsMismatchedFingerprint: resuming under a different
// scale, ladder or benchmark set must fail with an error naming the
// difference, never silently mix results.
func TestResumeRejectsMismatchedFingerprint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "state.jsonl")
	base := robustConfig("gzip", "swim")
	base.Checkpoint = ckpt
	if _, err := Run(base); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"scale", func(c *Config) { c.Scale = 0.002 }, "scale"},
		{"ladder", func(c *Config) { c.Thresholds = []float64{1, 100} }, "ladder"},
		{"benchmarks", func(c *Config) { c.Benchmarks = c.Benchmarks[:1] }, "benchmarks"},
	}
	for _, tc := range cases {
		cfg := robustConfig("gzip", "swim")
		cfg.Checkpoint = ckpt
		cfg.Resume = true
		tc.mutate(&cfg)
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s mismatch: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	// Corruption must be a hard error too.
	if err := os.WriteFile(ckpt, []byte("{\"version\":1 garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := robustConfig("gzip", "swim")
	cfg.Checkpoint = ckpt
	cfg.Resume = true
	if _, err := Run(cfg); err == nil {
		t.Fatal("corrupted checkpoint accepted")
	}
}

// TestResumeRejectsVersionOneCheckpoint: a checkpoint written before
// the header lost independent_runs must fail closed, with an error that
// names both versions — not the strict decoder's complaint about the
// field it no longer knows.
func TestResumeRejectsVersionOneCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "state.jsonl")
	v1 := `{"version":1,"scale":0.001,"paper_t":[1,100,1000,1000000],"independent_runs":false,"benchmarks":["gzip","swim"]}` + "\n"
	if err := os.WriteFile(ckpt, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := robustConfig("gzip", "swim")
	cfg.Checkpoint = ckpt
	cfg.Resume = true
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("version-1 checkpoint accepted")
	}
	for _, want := range []string{"version 1", fmt.Sprintf("version %d", checkpointVersion)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want mention of %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("err = %v, want the version mismatch, not a decode error", err)
	}
}

// TestResumeWithMissingFileStartsFresh: a kill before the first
// completion leaves no checkpoint; resume must run the whole study.
func TestResumeWithMissingFileStartsFresh(t *testing.T) {
	cfg := robustConfig("swim")
	cfg.Checkpoint = filepath.Join(t.TempDir(), "never-written.jsonl")
	cfg.Resume = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Perf.ResumedSeries != 0 || res.Perf.CheckpointWrites != 1 {
		t.Fatalf("resumed=%d writes=%d, want 0 and 1", res.Perf.ResumedSeries, res.Perf.CheckpointWrites)
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
		{"zero threshold", func(c *Config) { c.Thresholds = []float64{0, 100} }, "threshold 0"},
		{"nan threshold", func(c *Config) { c.Thresholds = []float64{math.NaN()} }, "threshold"},
		{"dup threshold", func(c *Config) { c.Thresholds = []float64{100, 100} }, "duplicate threshold 100"},
		{"nil bench", func(c *Config) { c.Benchmarks = []*spec.Benchmark{nil} }, "benchmark 0"},
		{"dup bench", func(c *Config) { c.Benchmarks = append(c.Benchmarks, c.Benchmarks[0]) }, "twice"},
		{"negative attempts", func(c *Config) { c.MaxAttempts = -1 }, "max attempts"},
		{"negative backoff", func(c *Config) { c.RetryBackoff = -1 }, "backoff"},
		{"negative stopafter", func(c *Config) { c.StopAfter = -1 }, "stop-after"},
		{"resume sans checkpoint", func(c *Config) { c.Resume = true }, "resume"},
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
