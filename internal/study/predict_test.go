package study

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/predict"
	"repro/internal/resultcache"
	"repro/internal/spec"
)

// predictorConfig runs the full spec suite with every registered
// predictor observing. One threshold suffices: predictor tallies are a
// property of the reference trace, which no ladder shapes.
func predictorConfig(parallelism int) Config {
	return Config{
		Scale:       0.001,
		Thresholds:  []float64{100},
		Parallelism: parallelism,
		Predictors:  predict.Names(),
	}
}

// TestPredictorDeterminismAcrossWorkersAndModes is the satellite
// determinism requirement: per-predictor mispredict counts over the
// full spec suite are identical between a 1-worker and a
// GOMAXPROCS-worker run — the branch stream is the reference trace,
// which the worker count does not shape. (The serial-run oracle in
// internal/core checks the tallies against per-config runs.)
func TestPredictorDeterminismAcrossWorkersAndModes(t *testing.T) {
	ref, err := Run(predictorConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Series {
		s := &ref.Series[i]
		if len(s.Predictors) != len(predict.Names()) {
			t.Fatalf("%s: %d predictor tallies, want %d", s.Name, len(s.Predictors), len(predict.Names()))
		}
		if s.Predictors[0].Branches == 0 {
			t.Fatalf("%s: predictors observed no branches", s.Name)
		}
	}
	for _, alt := range []struct {
		name string
		cfg  Config
	}{
		{"maxprocs workers", predictorConfig(runtime.GOMAXPROCS(0))},
	} {
		got, err := Run(alt.cfg)
		if err != nil {
			t.Fatalf("%s: %v", alt.name, err)
		}
		for i := range ref.Series {
			if !reflect.DeepEqual(got.Series[i].Predictors, ref.Series[i].Predictors) {
				t.Errorf("%s: %s predictor tallies diverge:\nref: %+v\ngot: %+v",
					alt.name, ref.Series[i].Name, ref.Series[i].Predictors, got.Series[i].Predictors)
			}
		}
	}
}

// TestPredictorsDoNotPerturbStudyResults pins the tentpole's
// read-only-observer contract end to end: a study with predictors
// reports the exact measurement data of one without, and only appends
// figures — the paper figure set stays byte-identical.
func TestPredictorsDoNotPerturbStudyResults(t *testing.T) {
	plain := goldenConfig(t)
	plainRes, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	withPreds := goldenConfig(t)
	withPreds.Predictors = predict.Names()
	predRes, err := Run(withPreds)
	if err != nil {
		t.Fatal(err)
	}

	for i := range plainRes.Series {
		p, q := plainRes.Series[i], predRes.Series[i]
		q.Predictors = nil
		if !reflect.DeepEqual(p, q) {
			t.Errorf("%s: measurement data changed when predictors observe", p.Name)
		}
	}

	plainFigs, predFigs := plainRes.Figures(), predRes.Figures()
	if len(predFigs) != len(plainFigs)+2 {
		t.Fatalf("predictor run has %d figures, want %d (+figp1/figp2)", len(predFigs), len(plainFigs))
	}
	a, err := json.Marshal(plainFigs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(predFigs[:len(plainFigs)])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("paper figures are not byte-identical when predictors observe")
	}
	if predFigs[len(plainFigs)].ID != "figp1" || predFigs[len(plainFigs)+1].ID != "figp2" {
		t.Errorf("appended figures are %q, %q; want figp1, figp2",
			predFigs[len(plainFigs)].ID, predFigs[len(plainFigs)+1].ID)
	}
}

// TestPredictorCacheWarmRerun extends the warm-rerun guarantee to the
// predictor entry kind: a warm rerun with the same predictor list
// executes zero guest blocks and replays identical tallies, while a
// changed predictor list re-executes the reference trace (its tallies
// are not in the store) without disturbing the legacy entries.
func TestPredictorCacheWarmRerun(t *testing.T) {
	dir := t.TempDir()
	open := func() *resultcache.Store {
		store, err := resultcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	withPreds := func(names []string) Config {
		cfg := goldenConfig(t)
		cfg.Cache = open()
		cfg.Predictors = names
		return cfg
	}

	coldRes, err := Run(withPreds(predict.Names()))
	if err != nil {
		t.Fatal(err)
	}
	if coldRes.Perf.BlocksExecuted == 0 {
		t.Fatal("cold study executed no guest blocks")
	}

	warmRes, err := Run(withPreds(predict.Names()))
	if err != nil {
		t.Fatal(err)
	}
	if warmRes.Perf.BlocksExecuted != 0 {
		t.Fatalf("warm rerun executed %d guest blocks, want 0 (bp entry should replay)", warmRes.Perf.BlocksExecuted)
	}
	if !reflect.DeepEqual(coldRes.Series, warmRes.Series) {
		t.Fatal("warm series (including predictor tallies) differ from cold")
	}

	// A different predictor list misses the bp entry: the reference
	// trace re-executes to feed the new predictors, and the fresh
	// tallies agree with the cold run's on the shared predictors.
	altRes, err := Run(withPreds([]string{"2bit"}))
	if err != nil {
		t.Fatal(err)
	}
	if altRes.Perf.BlocksExecuted == 0 {
		t.Fatal("changed predictor list must re-execute the reference trace")
	}
	for i := range altRes.Series {
		got := altRes.Series[i].Predictors
		if len(got) != 1 || got[0].Predictor != "2bit" {
			t.Fatalf("%s: tallies %+v, want exactly 2bit", altRes.Series[i].Name, got)
		}
		for _, p := range coldRes.Series[i].Predictors {
			if p.Predictor == "2bit" && !reflect.DeepEqual(p, got[0]) {
				t.Errorf("%s: 2bit tally changed across predictor selections: %+v vs %+v",
					altRes.Series[i].Name, p, got[0])
			}
		}
	}
}

// TestPredictorCheckpointCompatibility: predictor runs checkpoint and
// resume like any other, and a checkpoint written with one predictor
// selection refuses to resume a run with another — mixing them would
// silently drop or fabricate tallies.
func TestPredictorCheckpointCompatibility(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	cfg := goldenConfig(t)
	cfg.Predictors = predict.Names()
	cfg.Checkpoint = path
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	resumeCfg := goldenConfig(t)
	resumeCfg.Predictors = predict.Names()
	resumeCfg.Checkpoint = path
	resumeCfg.Resume = true
	resumed, err := Run(resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Perf.ResumedSeries != len(resumed.Series) {
		t.Fatalf("resumed %d of %d series", resumed.Perf.ResumedSeries, len(resumed.Series))
	}
	if !reflect.DeepEqual(first.Series, resumed.Series) {
		t.Fatal("resumed series (including predictor tallies) differ")
	}

	mismatch := goldenConfig(t)
	mismatch.Predictors = []string{"2bit"}
	mismatch.Checkpoint = path
	mismatch.Resume = true
	if _, err := Run(mismatch); err == nil {
		t.Fatal("resume with a different predictor selection must be rejected")
	}
}

// TestValidateRejectsBadPredictors covers the config-level gate.
func TestValidateRejectsBadPredictors(t *testing.T) {
	for _, preds := range [][]string{{"bogus"}, {"2bit", "2bit"}} {
		cfg := Config{Scale: 1, Thresholds: []float64{100}, Benchmarks: []*spec.Benchmark{spec.ByName("gzip")}, Predictors: preds}
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted predictors %v", preds)
		}
	}
}
