package study

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/resultcache"
	"repro/internal/spec"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden figure corpus")

// goldenConfig is the frozen study configuration behind the golden
// corpus: two benchmarks (one INT, one FP) over the full paper ladder at
// the smallest scale the suite uses. Changing it invalidates the golden
// files — regenerate with `go test ./internal/study -run Golden -update`.
func goldenConfig(t *testing.T) Config {
	t.Helper()
	var benches []*spec.Benchmark
	for _, n := range []string{"gzip", "swim"} {
		b := spec.ByName(n)
		if b == nil {
			t.Fatalf("unknown benchmark %q", n)
		}
		benches = append(benches, b)
	}
	return Config{
		Scale:      0.001,
		Thresholds: []float64{1, 100, 1e3, 1e4, 1e6},
		Benchmarks: benches,
	}
}

// renderCorpus produces the two golden artifacts: the markdown report
// and the indented JSON of every figure.
func renderCorpus(t *testing.T, res *Results) (report, figures []byte) {
	t.Helper()
	figJSON, err := json.MarshalIndent(res.Figures(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return []byte(res.MarkdownReport()), append(figJSON, '\n')
}

// TestGoldenFigures byte-compares the full figure set of the frozen
// configuration against the committed corpus, pinning every number the
// figures report. Any change to the guest generators, the translator,
// the profile comparison or the figure rendering shows up here as a
// diff that must be regenerated deliberately.
func TestGoldenFigures(t *testing.T) {
	res, err := Run(goldenConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	report, figures := renderCorpus(t, res)
	for _, g := range []struct {
		name string
		got  []byte
	}{
		{"golden_report.md", report},
		{"golden_figures.json", figures},
	} {
		path := filepath.Join("testdata", g.name)
		if *updateGolden {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to generate)", err)
		}
		if !reflect.DeepEqual(g.got, want) {
			t.Errorf("%s drifted from the committed corpus (regenerate with -update if intended)", g.name)
		}
	}
}

// TestWarmRerunReadsOnlyEntries: every comparison is stored with its
// run, so a warm rerun of a study with every follower axis on the
// reference trace — all predictors, two sample periods and the
// section-5 variants — reads exactly three entries per benchmark (ref,
// the training run and the training comparison), computes no
// comparison, and returns the cold series.
func TestWarmRerunReadsOnlyEntries(t *testing.T) {
	dir := t.TempDir()
	benches := goldenConfig(t).Benchmarks
	run := func(trace *obs.Recorder) *Results {
		t.Helper()
		store, err := resultcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Scale:         0.001,
			Thresholds:    append([]float64{1, 100}, Section5Thresholds...),
			Benchmarks:    benches,
			Predictors:    predict.Names(),
			SamplePeriods: []uint64{4, 16},
			Section5:      true,
			Cache:         store,
			Trace:         trace,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run(nil)
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	warm := run(rec)
	if dropped, err := rec.Close(); err != nil || dropped != 0 {
		t.Fatalf("recorder close: dropped=%d err=%v", dropped, err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	hits := make(map[string]int)
	for _, ev := range events {
		switch ev.Unit {
		case obs.UnitCacheHit:
			hits[ev.Bench]++
		case obs.UnitCompare, obs.UnitSampleCompare, obs.UnitCacheMiss, obs.UnitCacheStore:
			t.Fatalf("warm rerun traced a %s span of %s (T=%d)", ev.Unit, ev.Bench, ev.T)
		}
	}
	for _, b := range benches {
		if hits[b.Name] != 3 {
			t.Fatalf("warm rerun of %s traced %d cache hits, want 3: %v", b.Name, hits[b.Name], hits)
		}
	}
	if len(hits) != len(benches) {
		t.Fatalf("cache hits traced for %v, want only %d benchmarks", hits, len(benches))
	}
	if len(cold.Series[0].Variants) == 0 || len(cold.Series[0].Sampling) != 2 {
		t.Fatal("the cold study ran without its variants or sampled ladders; the test would not cover them")
	}
	if !reflect.DeepEqual(cold.Series, warm.Series) {
		t.Fatal("warm series differ from cold series")
	}
}

// TestStudyCacheColdWarmDeterminism is the end-to-end determinism check
// for the result cache: a cold study populates the store, a warm rerun
// must reproduce the exact series and byte-identical figures without
// executing a single guest block, and disabling the cache must change
// nothing about a cold run's results.
func TestStudyCacheColdWarmDeterminism(t *testing.T) {
	dir := t.TempDir()
	open := func() *resultcache.Store {
		store, err := resultcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return store
	}

	cold := goldenConfig(t)
	cold.Cache = open()
	coldRes, err := Run(cold)
	if err != nil {
		t.Fatal(err)
	}
	if coldRes.Perf.ResultCacheStores == 0 || coldRes.Perf.ResultCacheHits != 0 {
		t.Fatalf("cold cache counters %+v, want stores and no hits", coldRes.Perf)
	}
	if coldRes.Perf.BlocksExecuted == 0 {
		t.Fatal("cold study executed no guest blocks")
	}

	warm := goldenConfig(t)
	warm.Cache = open()
	warmRes, err := Run(warm)
	if err != nil {
		t.Fatal(err)
	}
	if warmRes.Perf.BlocksExecuted != 0 {
		t.Fatalf("warm study executed %d guest blocks, want 0", warmRes.Perf.BlocksExecuted)
	}
	if warmRes.Perf.ResultCacheHits == 0 || warmRes.Perf.ResultCacheMisses != 0 {
		t.Fatalf("warm cache counters %+v, want only hits", warmRes.Perf)
	}
	if !reflect.DeepEqual(coldRes.Series, warmRes.Series) {
		t.Fatal("warm series differ from cold series")
	}
	coldReport, coldFigs := renderCorpus(t, coldRes)
	warmReport, warmFigs := renderCorpus(t, warmRes)
	if !reflect.DeepEqual(coldReport, warmReport) || !reflect.DeepEqual(coldFigs, warmFigs) {
		t.Fatal("warm figures are not byte-identical to cold figures")
	}

	// A cache must never perturb results: an uncached run of the same
	// configuration produces the same series.
	plainRes, err := Run(goldenConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plainRes.Series, coldRes.Series) {
		t.Fatal("cached cold run differs from an uncached run")
	}
}

// TestStudyCacheVerifyMode runs the differential verify pass over a
// warmed store: everything re-executes, every hit is compared against
// the recomputed value, and a clean store passes.
func TestStudyCacheVerifyMode(t *testing.T) {
	dir := t.TempDir()
	store, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenConfig(t)
	cfg.Cache = store
	coldRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	vcfg := goldenConfig(t)
	if vcfg.Cache, err = resultcache.Open(dir); err != nil {
		t.Fatal(err)
	}
	vcfg.CacheVerify = true
	vres, err := Run(vcfg)
	if err != nil {
		t.Fatal(err)
	}
	if vres.Perf.BlocksExecuted == 0 {
		t.Fatal("verify mode must execute for real")
	}
	if vres.Perf.ResultCacheHits == 0 {
		t.Fatal("verify run saw no cache hits over a warmed store")
	}
	if !reflect.DeepEqual(coldRes.Series, vres.Series) {
		t.Fatal("verify-mode series differ from cold series")
	}
}

// TestGoldenPredictorFigures pins the predictor corpus: the same frozen
// configuration with every registered predictor observing must render
// figp1/figp2 byte-identically to the committed files. The paper
// figures of that run are covered transitively — the read-only-observer
// test proves them equal to the predictor-less corpus above.
func TestGoldenPredictorFigures(t *testing.T) {
	cfg := goldenConfig(t)
	cfg.Predictors = predict.Names()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	figs := res.Figures()
	if len(figs) < 2 {
		t.Fatalf("only %d figures", len(figs))
	}
	predFigs := figs[len(figs)-2:]
	if predFigs[0].ID != "figp1" || predFigs[1].ID != "figp2" {
		t.Fatalf("trailing figures are %q, %q; want figp1, figp2", predFigs[0].ID, predFigs[1].ID)
	}
	got, err := json.MarshalIndent(predFigs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "golden_predictors.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("golden_predictors.json drifted from the committed corpus (regenerate with -update if intended)")
	}
}

// TestGoldenSection5 byte-compares the section-5 tables of one
// Section5 study over their default benchmarks at scale 0.01 with the
// committed output of `inipstudy -ext -scale 0.01` and `inipstudy
// -conv -scale 0.01`. The files are CLI captures from the version that
// ran each variant on its own, not -update output: a diff here means
// the experiments' numbers moved.
func TestGoldenSection5(t *testing.T) {
	res := runSection5(t, 0.01, ExtensionBenchmarks...)
	for _, g := range []struct {
		name, got string
	}{
		{"golden_ext.txt", res.Extensions().Render()},
		{"golden_conv.txt", res.Convergence().Render()},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", g.name))
		if err != nil {
			t.Fatal(err)
		}
		if g.got != string(want) {
			t.Errorf("%s drifted:\n got:\n%s\nwant:\n%s", g.name, g.got, want)
		}
	}
}
