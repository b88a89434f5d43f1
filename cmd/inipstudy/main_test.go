package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// readBenchFile strict-decodes a -benchjson trajectory file and returns
// its entries; schema drift in any entry fails the test.
func readBenchFile(t *testing.T, path string) []benchReport {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var traj []benchReport
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&traj); err != nil {
		t.Fatalf("benchjson schema: %v\n%s", err, raw)
	}
	if len(traj) == 0 {
		t.Fatalf("benchjson trajectory is empty:\n%s", raw)
	}
	return traj
}

// TestSmokeFigurePipeline runs the real figure pipeline at tiny scale on
// a two-benchmark subset and validates the observability outputs: the
// -benchjson record parses against its schema with live counters, the
// -trace file parses against the flight-recorder schema, per-phase event
// durations reconcile with the Perf phase totals, and tracing leaves the
// figure output byte-identical.
func TestSmokeFigurePipeline(t *testing.T) {
	dir := t.TempDir()
	benchJSON := filepath.Join(dir, "bench.json")
	traceFile := filepath.Join(dir, "trace.jsonl")

	base := []string{"-scale", "0.001", "-bench", "gzip,swim", "-fig", "fig8"}

	var plain bytes.Buffer
	if code := run(base, &plain, new(bytes.Buffer)); code != 0 {
		t.Fatalf("plain run exited %d", code)
	}
	if !strings.Contains(plain.String(), "fig8") {
		t.Fatalf("figure output missing fig8:\n%s", plain.String())
	}

	var traced bytes.Buffer
	args := append([]string{"-trace", traceFile, "-benchjson", benchJSON}, base...)
	if code := run(args, &traced, new(bytes.Buffer)); code != 0 {
		t.Fatalf("traced run exited %d", code)
	}
	if !bytes.Equal(plain.Bytes(), traced.Bytes()) {
		t.Fatal("figure output differs with tracing enabled")
	}

	// -benchjson schema: strict-decode into the writer's own struct, then
	// sanity-check the counters a real run cannot leave at zero.
	rep := readBenchFile(t, benchJSON)[0]
	if rep.Scale != 0.001 || rep.Benchmarks != 2 || rep.Workers < 1 {
		t.Fatalf("benchjson header wrong: %+v", rep)
	}
	if rep.BlocksExecuted == 0 || rep.Translations == 0 || rep.CacheLookups == 0 ||
		rep.InterruptPolls == 0 {
		t.Fatalf("benchjson counters empty: %+v", rep)
	}
	if rep.TraceEventsDropped != 0 {
		t.Fatalf("tiny-scale run dropped %d trace events", rep.TraceEventsDropped)
	}

	// -trace schema: the strict reader rejects unknown fields and invalid
	// units, so a clean parse is the schema check.
	tf, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(tf)
	tf.Close()
	if err != nil {
		t.Fatalf("trace schema: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace file has no events")
	}

	// Per-phase event durations must reconcile with the Perf totals: both
	// are fed from the same measured spans, so 5% is generous slack for
	// clock granularity.
	sums := map[string]float64{}
	benches := map[string]bool{}
	for _, ev := range events {
		sums[ev.Unit] += float64(ev.DurNS) / 1e9
		benches[ev.Bench] = true
	}
	if !benches["gzip"] || !benches["swim"] {
		t.Fatalf("trace missing benchmarks: %v", benches)
	}
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"build", sums[obs.UnitBuild], rep.BuildSeconds},
		{"ref", sums[obs.UnitRef], rep.RefRunSeconds},
		{"train", sums[obs.UnitTrain], rep.TrainSeconds},
		{"compare", sums[obs.UnitCompare] + sums[obs.UnitTrainCompare], rep.CompareSeconds},
	}
	for _, c := range checks {
		if c.want == 0 {
			t.Fatalf("Perf phase %s is zero", c.name)
		}
		if math.Abs(c.got-c.want) > 0.05*c.want {
			t.Fatalf("phase %s: trace sum %.6fs vs Perf %.6fs (>5%%)", c.name, c.got, c.want)
		}
	}

	// -tracesum renders the recorded file.
	var sum bytes.Buffer
	if code := run([]string{"-tracesum", traceFile}, &sum, new(bytes.Buffer)); code != 0 {
		t.Fatalf("-tracesum exited %d", code)
	}
	for _, want := range []string{"phase", "build", "compare", "worker occupancy",
		"hot loop", "blocks/s", "cache lookups"} {
		if !strings.Contains(sum.String(), want) {
			t.Fatalf("-tracesum output missing %q:\n%s", want, sum.String())
		}
	}
}

// TestSmokeProfiles: the pprof hooks must produce non-empty profile
// files without disturbing the run.
func TestSmokeProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	args := []string{"-scale", "0.001", "-bench", "gzip", "-fig", "fig8",
		"-cpuprofile", cpu, "-memprofile", mem}
	if code := run(args, new(bytes.Buffer), new(bytes.Buffer)); code != 0 {
		t.Fatalf("profiled run exited %d", code)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}

// TestBadFlags: unknown benchmarks, figures, policies and fault specs
// are usage errors.
func TestBadFlags(t *testing.T) {
	if code := run([]string{"-bench", "nosuch"}, new(bytes.Buffer), new(bytes.Buffer)); code != 2 {
		t.Fatalf("unknown benchmark exited %d, want 2", code)
	}
	if code := run([]string{"-scale", "0.001", "-bench", "gzip", "-fig", "fig99"},
		new(bytes.Buffer), new(bytes.Buffer)); code != 2 {
		t.Fatalf("unknown figure exited %d, want 2", code)
	}
	var errBuf bytes.Buffer
	if code := run([]string{"-failpolicy", "nosuch"}, new(bytes.Buffer), &errBuf); code != 2 {
		t.Fatalf("unknown policy exited %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "nosuch") {
		t.Fatalf("policy error does not name the value:\n%s", errBuf.String())
	}
	errBuf.Reset()
	if code := run([]string{"-inject", "meteor:gzip/ref"}, new(bytes.Buffer), &errBuf); code != 2 {
		t.Fatalf("bad fault spec exited %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "faultinject") {
		t.Fatalf("fault-spec error lost its diagnostic:\n%s", errBuf.String())
	}
	errBuf.Reset()
	if code := run([]string{"-scale", "-1", "-bench", "gzip"}, new(bytes.Buffer), &errBuf); code != 1 {
		t.Fatalf("negative scale exited %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), "-1") {
		t.Fatalf("scale error does not name the value:\n%s", errBuf.String())
	}
	errBuf.Reset()
	if code := run([]string{"-par", "-3", "-scale", "0.001", "-bench", "gzip"}, new(bytes.Buffer), &errBuf); code != 1 {
		t.Fatalf("negative -par exited %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), "parallelism -3") {
		t.Fatalf("-par error does not name the value:\n%s", errBuf.String())
	}
}

// TestDegradeCLI: with -failpolicy degrade and one injected failure the
// command succeeds, prints the failure on stderr, annotates the gap in
// the figure output, and the surviving rows match a fault-free run.
func TestDegradeCLI(t *testing.T) {
	var clean bytes.Buffer
	args := []string{"-scale", "0.001", "-bench", "swim", "-fig", "fig8"}
	if code := run(args, &clean, new(bytes.Buffer)); code != 0 {
		t.Fatalf("clean run exited %d", code)
	}

	var out, errBuf bytes.Buffer
	args = []string{"-scale", "0.001", "-bench", "gzip,swim", "-fig", "fig8",
		"-failpolicy", "degrade", "-inject", "build:gzip/ref"}
	if code := run(args, &out, &errBuf); code != 0 {
		t.Fatalf("degraded run exited %d:\n%s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "1 unit failure") ||
		!strings.Contains(errBuf.String(), "gzip") {
		t.Fatalf("stderr does not summarize the failure:\n%s", errBuf.String())
	}
	if !strings.Contains(out.String(), "gzip excluded") {
		t.Fatalf("figure output does not annotate the gap:\n%s", out.String())
	}

	// The surviving benchmark's table must be present verbatim.
	table := strings.TrimRight(strings.SplitN(clean.String(), "\n", 2)[1], "\n")
	if !strings.Contains(out.String(), table) {
		t.Fatalf("survivor rows differ from the fault-free run:\nclean:\n%s\ndegraded:\n%s",
			clean.String(), out.String())
	}

	// The same failure under the default fail-fast policy kills the run.
	args = []string{"-scale", "0.001", "-bench", "gzip,swim", "-fig", "fig8",
		"-inject", "build:gzip/ref"}
	if code := run(args, new(bytes.Buffer), new(bytes.Buffer)); code != 1 {
		t.Fatalf("fail-fast run exited %d, want 1", code)
	}
}

// TestStopRerunCLI: -stopafter ends the run with exit 130 and a hint
// naming -cache; rerunning with the same -cache completes the study
// with output byte-identical to an uninterrupted run. Without -cache
// the hint says nothing was kept, and -checkpoint is an unknown flag.
func TestStopRerunCLI(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	base := []string{"-scale", "0.001", "-bench", "gzip,swim", "-fig", "fig8"}

	var full bytes.Buffer
	if code := run(base, &full, new(bytes.Buffer)); code != 0 {
		t.Fatalf("uninterrupted run exited %d", code)
	}

	var errBuf bytes.Buffer
	args := append([]string{"-cache", cacheDir, "-stopafter", "1"}, base...)
	if code := run(args, new(bytes.Buffer), &errBuf); code != 130 {
		t.Fatalf("stopped run exited %d, want 130:\n%s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "-cache "+cacheDir) {
		t.Fatalf("stop message has no -cache resume hint:\n%s", errBuf.String())
	}

	var resumed bytes.Buffer
	args = append([]string{"-cache", cacheDir}, base...)
	if code := run(args, &resumed, new(bytes.Buffer)); code != 0 {
		t.Fatalf("rerun exited %d", code)
	}
	if !bytes.Equal(full.Bytes(), resumed.Bytes()) {
		t.Fatalf("rerun output differs from the uninterrupted run:\nfull:\n%s\nrerun:\n%s",
			full.String(), resumed.String())
	}

	errBuf.Reset()
	args = append([]string{"-stopafter", "1"}, base...)
	if code := run(args, new(bytes.Buffer), &errBuf); code != 130 {
		t.Fatalf("uncached stopped run exited %d, want 130", code)
	}
	if !strings.Contains(errBuf.String(), "nothing was kept") {
		t.Fatalf("uncached stop message does not say nothing was kept:\n%s", errBuf.String())
	}

	if code := run([]string{"-checkpoint", "x"}, new(bytes.Buffer), new(bytes.Buffer)); code != 2 {
		t.Fatalf("-checkpoint exited %d, want 2 (unknown flag)", code)
	}
}

// TestCacheCLI: a cold -cache run stores entries, a warm rerun serves
// the whole study from the cache — zero guest blocks executed, nonzero
// hits, byte-identical figures — and -cacheverify re-executes the suite
// against the cached values and passes.
func TestCacheCLI(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	base := []string{"-scale", "0.001", "-bench", "gzip,swim", "-fig", "fig8", "-cache", cacheDir}

	var cold, coldErr bytes.Buffer
	args := append([]string{"-benchjson", filepath.Join(dir, "cold.json")}, base...)
	if code := run(args, &cold, &coldErr); code != 0 {
		t.Fatalf("cold run exited %d:\n%s", code, coldErr.String())
	}
	if !strings.Contains(coldErr.String(), "0 hits") {
		t.Fatalf("cold run stderr lacks the cache summary:\n%s", coldErr.String())
	}

	var warm, warmErr bytes.Buffer
	warmJSON := filepath.Join(dir, "warm.json")
	args = append([]string{"-benchjson", warmJSON}, base...)
	if code := run(args, &warm, &warmErr); code != 0 {
		t.Fatalf("warm run exited %d:\n%s", code, warmErr.String())
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Fatalf("warm figure output differs from cold:\ncold:\n%s\nwarm:\n%s", cold.String(), warm.String())
	}

	rep := readBenchFile(t, warmJSON)[0]
	if rep.BlocksExecuted != 0 {
		t.Fatalf("warm run executed %d guest blocks, want 0", rep.BlocksExecuted)
	}
	if rep.ResultCacheHits == 0 || rep.ResultCacheMisses != 0 || rep.ResultCacheStores != 0 {
		t.Fatalf("warm cache counters wrong: hits=%d misses=%d stores=%d",
			rep.ResultCacheHits, rep.ResultCacheMisses, rep.ResultCacheStores)
	}

	var verify, verifyErr bytes.Buffer
	args = append([]string{"-cacheverify"}, base...)
	if code := run(args, &verify, &verifyErr); code != 0 {
		t.Fatalf("-cacheverify run exited %d:\n%s", code, verifyErr.String())
	}
	if !bytes.Equal(cold.Bytes(), verify.Bytes()) {
		t.Fatal("verify figure output differs from cold")
	}
}

func TestCacheVerifyRequiresCache(t *testing.T) {
	var errBuf bytes.Buffer
	if code := run([]string{"-cacheverify", "-scale", "0.001", "-bench", "gzip"},
		new(bytes.Buffer), &errBuf); code != 2 {
		t.Fatalf("-cacheverify without -cache exited %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "-cache") {
		t.Fatalf("error does not mention -cache:\n%s", errBuf.String())
	}
}

// TestBenchBaseSpeedup: the -benchbase speedup claim path is gone —
// paired sets of the repository benchmark replaced it — so the flag is
// an unknown-flag error, and a -benchjson entry carries no speedup
// fields (readBenchFile rejects unknown fields).
func TestBenchBaseSpeedup(t *testing.T) {
	base := []string{"-scale", "0.001", "-bench", "gzip", "-fig", "fig8"}
	var errBuf bytes.Buffer
	if code := run(append([]string{"-benchbase", "1000"}, base...), new(bytes.Buffer), &errBuf); code != 2 {
		t.Fatalf("-benchbase exited %d, want 2\n%s", code, errBuf.String())
	}
	path := filepath.Join(t.TempDir(), "b.json")
	if code := run(append([]string{"-benchjson", path}, base...), new(bytes.Buffer), new(bytes.Buffer)); code != 0 {
		t.Fatalf("-benchjson run exited %d", code)
	}
	readBenchFile(t, path)
}

// TestBenchTrajectory covers the append-only -benchjson format: each
// run appends a dated entry, and a file that is not a trajectory array
// fails the run with an error naming the file and is left untouched.
func TestBenchTrajectory(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-scale", "0.001", "-bench", "gzip", "-fig", "fig8"}
	traj := filepath.Join(dir, "traj.json")

	for i := 1; i <= 2; i++ {
		args := append([]string{"-benchjson", traj}, base...)
		if code := run(args, new(bytes.Buffer), new(bytes.Buffer)); code != 0 {
			t.Fatalf("run %d exited %d", i, code)
		}
		if got := len(readBenchFile(t, traj)); got != i {
			t.Fatalf("after %d runs the trajectory has %d entries", i, got)
		}
	}

	object := filepath.Join(dir, "object.json")
	seed := `{"date": "2026-01-01", "scale": 0.5, "wall_seconds": 123.5}` + "\n"
	if err := os.WriteFile(object, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	if code := run(append([]string{"-benchjson", object}, base...), new(bytes.Buffer), &stderr); code != 1 {
		t.Fatalf("single-object file exited %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), object) {
		t.Fatalf("error does not name the file: %s", stderr.String())
	}
	if raw, err := os.ReadFile(object); err != nil || string(raw) != seed {
		t.Fatalf("single-object file changed (err %v):\n%s", err, raw)
	}
}

// TestSection5Input: -ext and -conv run a Section5 study, so they are
// judged by the study's own rules (each bad input gets the message and
// exit code it gets on the figure path), honour the study's flags, and
// refuse only the flags that select figure output.
func TestSection5Input(t *testing.T) {
	invoke := func(args ...string) (int, string, string) {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		return code, stdout.String(), stderr.String()
	}
	figure := func(args ...string) []string {
		code, _, stderr := invoke(append(args, "-fig", "fig8")...)
		return []string{strconv.Itoa(code), stderr}
	}
	usage := func(flag string) []string {
		return []string{"2", "inipstudy: -" + flag + " selects figure output, which -ext and -conv replace with their tables\n"}
	}
	for _, c := range []struct {
		args []string
		want []string // exit code, stderr
	}{
		{[]string{"-ext", "-scale", "3", "-bench", "gzip"}, figure("-scale", "3", "-bench", "gzip")},
		{[]string{"-conv", "-scale", "0.001", "-bench", "gzip", "-par", "-3"}, figure("-scale", "0.001", "-bench", "gzip", "-par", "-3")},
		{[]string{"-conv", "-scale", "0.001", "-bench", "gzip, vortex"}, figure("-scale", "0.001", "-bench", "gzip, vortex")},
		{[]string{"-ext", "-scale", "0.001", "-bench", "gzip", "-fig", "fig8"}, usage("fig")},
		{[]string{"-conv", "-scale", "0.001", "-bench", "gzip", "-chart"}, usage("chart")},
		{[]string{"-ext", "-conv", "-scale", "0.001", "-bench", "gzip", "-json"}, usage("json")},
		{[]string{"-ext", "-scale", "0.001", "-bench", "gzip", "-md", filepath.Join(t.TempDir(), "r.md")}, usage("md")},
		{[]string{"-ext", "-extT", "5", "-scale", "0.001", "-bench", "gzip"},
			[]string{"2", "flag provided but not defined: -extT\n"}},
	} {
		code, _, stderr := invoke(c.args...)
		stderr, _, _ = strings.Cut(stderr, "Usage")
		if got := []string{strconv.Itoa(code), stderr}; got[0] != c.want[0] || got[1] != c.want[1] {
			t.Errorf("%q: exit %s, stderr %q; want exit %s, stderr %q", c.args, got[0], got[1], c.want[0], c.want[1])
		}
	}

	// One run prints both tables, with rows for the -bench benchmarks
	// in -bench order.
	code, out, stderr := invoke("-ext", "-conv", "-scale", "0.001", "-bench", "vortex,gzip")
	if code != 0 {
		t.Fatalf("-ext -conv exited %d:\n%s", code, stderr)
	}
	ext, conv, ok := strings.Cut(out, "threshold-selection heuristics")
	if !ok || !strings.HasPrefix(ext, "section-5 extensions") ||
		strings.Index(ext, "\nvortex") > strings.Index(ext, "\ngzip") ||
		strings.Index(conv, "\nvortex") > strings.Index(conv, "\ngzip") {
		t.Fatalf("-ext -conv output:\n%s", out)
	}
}

// TestSection5Machinery: the section-5 tables come out of the study's
// units, so a warm -cache rerun executes no guest block and prints the
// same tables, -par does not move them, and -trace records the study's
// spans.
func TestSection5Machinery(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-ext", "-conv", "-scale", "0.001", "-bench", "gzip,vortex", "-cache", filepath.Join(dir, "cache")}
	var cold bytes.Buffer
	trace := filepath.Join(dir, "t.jsonl")
	if code := run(append([]string{"-trace", trace, "-par", "1"}, base...), &cold, new(bytes.Buffer)); code != 0 {
		t.Fatalf("cold run exited %d", code)
	}
	warmJSON := filepath.Join(dir, "warm.json")
	var warm bytes.Buffer
	if code := run(append([]string{"-benchjson", warmJSON, "-par", "2"}, base...), &warm, new(bytes.Buffer)); code != 0 {
		t.Fatalf("warm run exited %d", code)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Fatalf("warm tables differ from cold:\ncold:\n%s\nwarm:\n%s", cold.String(), warm.String())
	}
	if rep := readBenchFile(t, warmJSON)[0]; rep.BlocksExecuted != 0 || rep.ResultCacheHits == 0 {
		t.Fatalf("warm run executed %d guest blocks with %d cache hits, want 0 and some", rep.BlocksExecuted, rep.ResultCacheHits)
	}
	var sum bytes.Buffer
	if code := run([]string{"-tracesum", trace}, &sum, new(bytes.Buffer)); code != 0 {
		t.Fatalf("-tracesum exited %d", code)
	}
	for _, unit := range []string{obs.UnitRef, obs.UnitTrain, obs.UnitCompare} {
		if !strings.Contains(sum.String(), "\n"+unit+" ") {
			t.Fatalf("-tracesum output has no %s span:\n%s", unit, sum.String())
		}
	}
}
