package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestSmokeRunWithTrace: a traced single run emits exactly one valid
// flight-recorder event whose block count matches the -stats output.
func TestSmokeRunWithTrace(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "run.jsonl")
	var stdout bytes.Buffer
	args := []string{"-bench", "gzip", "-scale", "0.001", "-T", "5", "-stats", "-trace", traceFile}
	if code := run(args, &stdout, new(bytes.Buffer)); code != 0 {
		t.Fatalf("run exited %d:\n%s", code, stdout.String())
	}
	for _, want := range []string{"blocks executed:", "retranslations:", "cache lookups:", "interrupt polls:"} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("-stats output missing %q:\n%s", want, stdout.String())
		}
	}

	f, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatalf("trace schema: %v", err)
	}
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	ev := events[0]
	if ev.Unit != obs.UnitRun || ev.Bench != "gzip" || ev.T != 5 || ev.Err != "" {
		t.Fatalf("unexpected event: %+v", ev)
	}
	if ev.Blocks == 0 || ev.DurNS <= 0 {
		t.Fatalf("empty measurement: %+v", ev)
	}
}

// TestBadSource: source-selection misuse is a usage error.
func TestBadSource(t *testing.T) {
	if code := run(nil, new(bytes.Buffer), new(bytes.Buffer)); code != 2 {
		t.Fatalf("no source exited %d, want 2", code)
	}
	if code := run([]string{"-bench", "gzip", "-image", "x.sg32"},
		new(bytes.Buffer), new(bytes.Buffer)); code != 2 {
		t.Fatalf("two sources exited %d, want 2", code)
	}
}

// TestSampledRuns: a sampled run has no region cursor and no cycle
// model, so the flags that need them are usage errors, and -stats
// reports simulated cycles for an unsampled run only.
func TestSampledRuns(t *testing.T) {
	for _, flag := range []string{"-adaptive", "-continuous-trips"} {
		var stderr bytes.Buffer
		args := []string{"-bench", "gzip", "-scale", "0.001", "-T", "5", "-sampleperiod", "4", flag}
		if code := run(args, new(bytes.Buffer), &stderr); code != 2 {
			t.Fatalf("%s with -sampleperiod 4 exited %d, want 2", flag, code)
		}
		if !strings.Contains(stderr.String(), "SamplePeriod") {
			t.Fatalf("%s: error does not name SamplePeriod: %s", flag, stderr.String())
		}
	}
	for _, c := range []struct {
		period     string
		wantCycles bool
	}{{"0", true}, {"4", false}} {
		var stdout bytes.Buffer
		args := []string{"-bench", "gzip", "-scale", "0.001", "-T", "5", "-stats", "-sampleperiod", c.period}
		if code := run(args, &stdout, new(bytes.Buffer)); code != 0 {
			t.Fatalf("-sampleperiod %s exited %d", c.period, code)
		}
		if got := strings.Contains(stdout.String(), "simulated cycles:"); got != c.wantCycles {
			t.Fatalf("-sampleperiod %s: simulated cycles printed %t, want %t:\n%s", c.period, got, c.wantCycles, stdout.String())
		}
	}
}

// TestIgnoredFlags: a flag the run would ignore is a usage error that
// names it. The optimization-phase knobs do nothing under -T 0, and the
// stride phase exists only under -sampleperiod > 1.
func TestIgnoredFlags(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-adaptive", []string{"-T", "0", "-adaptive"}},
		{"-continuous-trips", []string{"-T", "0", "-continuous-trips"}},
		{"-converge", []string{"-T", "0", "-converge", "0.01"}},
		{"-sampleseed", []string{"-T", "5", "-sampleperiod", "1", "-sampleseed", "3"}},
	} {
		var stderr bytes.Buffer
		args := append([]string{"-bench", "gzip", "-scale", "0.001"}, c.args...)
		if code := run(args, new(bytes.Buffer), &stderr); code != 2 {
			t.Errorf("%v exited %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.flag) {
			t.Errorf("%v: error does not name %s: %q", c.args, c.flag, stderr.String())
		}
	}
}

// TestBadNumbers: a -scale the study rejects and a non-finite or
// negative -converge epsilon are usage errors that name the value; at
// the parent of this test they ran a degenerate program or silently
// fell back to the fixed-threshold policy.
func TestBadNumbers(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-scale", "NaN"},
		{"-scale", "-3"},
		{"-scale", "0"},
		{"-scale", "3"},
		{"-scale", "+Inf"},
		{"-converge", "NaN"},
		{"-converge", "-1"},
		{"-converge", "+Inf"},
	} {
		var stderr bytes.Buffer
		args := []string{"-bench", "gzip", "-scale", "0.001", "-T", "5", c.flag, c.value}
		if code := run(args, new(bytes.Buffer), &stderr); code != 2 {
			t.Errorf("%s %s exited %d, want 2", c.flag, c.value, code)
		}
		if !strings.Contains(stderr.String(), c.value) {
			t.Errorf("%s %s: error does not name the value: %q", c.flag, c.value, stderr.String())
		}
	}
}
