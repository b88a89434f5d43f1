package study

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/learned"
	"repro/internal/resultcache"
	"repro/internal/spec"
)

// learnedConfig runs the full spec suite with the learned class on. One
// threshold suffices: the collected tallies are a property of the
// reference trace, which no ladder shapes.
func learnedConfig(parallelism int) Config {
	return Config{
		Scale:       0.001,
		Thresholds:  []float64{100},
		Parallelism: parallelism,
		Learned:     &learned.Config{Model: learned.ModelLogReg},
	}
}

// learnedArtifacts serializes everything the learned class reports —
// the cross-validated fit and the two appended figures — for
// byte-identity comparison.
func learnedArtifacts(t *testing.T, res *Results) []byte {
	t.Helper()
	if res.Learned == nil {
		t.Fatal("study produced no learned fit")
	}
	out, err := json.Marshal(struct {
		CV   *learned.CVResult
		Figs []Figure
	}{res.Learned, res.learnedFigures()})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLearnedDeterminismAcrossWorkersAndModes is the satellite
// determinism requirement: the cross-validated fit and figl1/figl2 are
// byte-identical between repeat runs and between a 1-worker and a
// GOMAXPROCS-worker run. (The serial-run oracle in internal/core checks
// the collection against per-config runs.)
func TestLearnedDeterminismAcrossWorkersAndModes(t *testing.T) {
	ref, err := Run(learnedConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	refBytes := learnedArtifacts(t, ref)
	if len(ref.Learned.Folds) != len(ref.Series) {
		t.Fatalf("%d folds for %d benchmarks", len(ref.Learned.Folds), len(ref.Series))
	}
	for i := range ref.Series {
		s := &ref.Series[i]
		if s.Learned == nil || s.Learned.Branches() == 0 {
			t.Fatalf("%s: no learned collection", s.Name)
		}
		if s.Learned.Unknown != 0 {
			t.Fatalf("%s: %d branch events at unextracted sites", s.Name, s.Learned.Unknown)
		}
	}
	for _, alt := range []struct {
		name string
		cfg  Config
	}{
		{"repeat run", learnedConfig(1)},
		{"maxprocs workers", learnedConfig(runtime.GOMAXPROCS(0))},
	} {
		got, err := Run(alt.cfg)
		if err != nil {
			t.Fatalf("%s: %v", alt.name, err)
		}
		if !reflect.DeepEqual(learnedArtifacts(t, got), refBytes) {
			t.Errorf("%s: learned fit or figures diverge from the reference run", alt.name)
		}
	}
}

// TestLearnedHeldOutBeatsAlwaysTaken is the acceptance gate at study
// level: over the full suite, the leave-one-benchmark-out mispredict
// rate must be strictly better than the always-taken baseline.
func TestLearnedHeldOutBeatsAlwaysTaken(t *testing.T) {
	res, err := Run(learnedConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Learned == nil {
		t.Fatal("no learned fit")
	}
	if got, base := res.Learned.Rate(), res.Learned.TakenRate(); got >= base {
		t.Fatalf("held-out learned rate %.4f does not beat always-taken %.4f", got, base)
	}
}

// TestLearnedDoesNotPerturbStudyResults pins the read-only-observer
// contract: a study with the learned class reports the exact
// measurement data of one without, and only appends figures — the
// legacy figure set stays byte-identical.
func TestLearnedDoesNotPerturbStudyResults(t *testing.T) {
	plainRes, err := Run(goldenConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	withLearned := goldenConfig(t)
	withLearned.Learned = &learned.Config{Model: learned.ModelLogReg}
	learnedRes, err := Run(withLearned)
	if err != nil {
		t.Fatal(err)
	}

	for i := range plainRes.Series {
		p, q := plainRes.Series[i], learnedRes.Series[i]
		q.Learned = nil
		if !reflect.DeepEqual(p, q) {
			t.Errorf("%s: measurement data changed when the learned class observes", p.Name)
		}
	}

	plainFigs, learnedFigs := plainRes.Figures(), learnedRes.Figures()
	if len(learnedFigs) != len(plainFigs)+2 {
		t.Fatalf("learned run has %d figures, want %d (+figl1/figl2)", len(learnedFigs), len(plainFigs))
	}
	a, err := json.Marshal(plainFigs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(learnedFigs[:len(plainFigs)])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("paper figures are not byte-identical when the learned class observes")
	}
	if learnedFigs[len(plainFigs)].ID != "figl1" || learnedFigs[len(plainFigs)+1].ID != "figl2" {
		t.Errorf("appended figures are %q, %q; want figl1, figl2",
			learnedFigs[len(plainFigs)].ID, learnedFigs[len(plainFigs)+1].ID)
	}
}

// TestLearnedCacheWarmRerun extends the warm-rerun guarantee to the
// learned collection in the `ref` entries: a warm rerun with the same model executes zero guest
// blocks and replays identical collections, a changed model fingerprint
// re-executes, and -cacheverify recomputes everything over the warmed
// store without divergence.
func TestLearnedCacheWarmRerun(t *testing.T) {
	dir := t.TempDir()
	withLearned := func(model string, verify bool) Config {
		cfg := goldenConfig(t)
		store, err := resultcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = store
		cfg.CacheVerify = verify
		cfg.Learned = &learned.Config{Model: model}
		return cfg
	}

	coldRes, err := Run(withLearned(learned.ModelLogReg, false))
	if err != nil {
		t.Fatal(err)
	}
	if coldRes.Perf.BlocksExecuted == 0 {
		t.Fatal("cold study executed no guest blocks")
	}

	warmRes, err := Run(withLearned(learned.ModelLogReg, false))
	if err != nil {
		t.Fatal(err)
	}
	if warmRes.Perf.BlocksExecuted != 0 {
		t.Fatalf("warm rerun executed %d guest blocks, want 0 (the ref entries should replay the collections)", warmRes.Perf.BlocksExecuted)
	}
	if !reflect.DeepEqual(coldRes.Series, warmRes.Series) {
		t.Fatal("warm series (including learned collections) differ from cold")
	}
	if !reflect.DeepEqual(learnedArtifacts(t, coldRes), learnedArtifacts(t, warmRes)) {
		t.Fatal("warm learned fit/figures are not byte-identical to cold")
	}

	// The tree model shares features and tallies but carries a different
	// fingerprint, so its ref entries are not in the store: the reference
	// trace re-executes, and the collected data still matches.
	altRes, err := Run(withLearned(learned.ModelTree, false))
	if err != nil {
		t.Fatal(err)
	}
	if altRes.Perf.BlocksExecuted == 0 {
		t.Fatal("changed model fingerprint must re-execute the reference trace")
	}
	for i := range altRes.Series {
		if !reflect.DeepEqual(altRes.Series[i].Learned, coldRes.Series[i].Learned) {
			t.Errorf("%s: collected data changed across model fingerprints", altRes.Series[i].Name)
		}
	}

	// Differential verify over the warmed store: everything re-executes
	// and every cached collection must match the recomputed one.
	vres, err := Run(withLearned(learned.ModelLogReg, true))
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

// TestValidateRejectsBadLearned covers the config-level gate.
func TestValidateRejectsBadLearned(t *testing.T) {
	for _, lc := range []learned.Config{
		{Model: "bogus"},
		{Model: learned.ModelLogReg, Epochs: -1},
		{Model: learned.ModelTree, TreeDepth: 99},
	} {
		lc := lc
		cfg := Config{Scale: 1, Thresholds: []float64{100}, Benchmarks: []*spec.Benchmark{spec.ByName("gzip")}, Learned: &lc}
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted learned config %+v", lc)
		}
	}
}

// TestGoldenLearnedFigures pins the learned corpus: the frozen golden
// configuration with the default logreg model must render figl1/figl2
// byte-identically to the committed file. The paper figures of that run
// are covered transitively by the read-only-observer test above.
func TestGoldenLearnedFigures(t *testing.T) {
	cfg := goldenConfig(t)
	cfg.Learned = &learned.Config{Model: learned.ModelLogReg}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	figs := res.Figures()
	if len(figs) < 2 {
		t.Fatalf("only %d figures", len(figs))
	}
	lfigs := figs[len(figs)-2:]
	if lfigs[0].ID != "figl1" || lfigs[1].ID != "figl2" {
		t.Fatalf("trailing figures are %q, %q; want figl1, figl2", lfigs[0].ID, lfigs[1].ID)
	}
	got, err := json.MarshalIndent(lfigs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "golden_learned.json")
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
		t.Errorf("golden_learned.json drifted from the committed corpus (regenerate with -update if intended)")
	}
}
