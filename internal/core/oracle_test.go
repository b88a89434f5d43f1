package core

import (
	"encoding/json"
	"testing"

	"repro/internal/dbt"
	"repro/internal/learned"
	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/region"
)

// serialOracle computes a benchmark's result the slow, obvious way, as
// the reference the scheduled shared-trace pipeline is checked against:
// a fresh build and one translator run per config — AVEP, each ladder
// rung, each sampled rung and the training run — each compared to AVEP
// with Compare. Predictor and learned observers watch the AVEP run on
// its own. Nothing is shared between runs: no follower replay, no rung
// dedup (a collapsed rung is run again), no scheduler and no cache.
// Only the options that shape results are honored. Next to the result
// it returns the two snapshots the cache stores and the result does not
// carry: AVEP and the training run's.
func serialOracle(t *testing.T, target Target, opts Options) (*BenchmarkResult, oracleSnapshots) {
	t.Helper()
	run := func(input string, cfg dbt.Config, observers ...dbt.TraceObserver) (*profile.Snapshot, *dbt.RunStats) {
		t.Helper()
		img, tape, err := target.Build(input)
		if err != nil {
			t.Fatal(err)
		}
		if len(observers) == 0 {
			snap, stats, err := dbt.Run(img, tape, cfg)
			if err != nil {
				t.Fatalf("oracle %s run (T=%d): %v", input, cfg.Threshold, err)
			}
			return snap, stats
		}
		// dbt.Run exposes no branch stream; a single-config RunMulti is
		// the same driver loop with the observers attached.
		snaps, stats, err := dbt.RunMultiObserved(img, tape, []dbt.Config{cfg}, observers)
		if err != nil {
			t.Fatalf("oracle %s run: %v", input, err)
		}
		return snaps[0], stats[0]
	}
	compare := func(inip, avep *profile.Snapshot) metrics.Summary {
		t.Helper()
		s, _, err := Compare(inip, avep)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	out := &BenchmarkResult{Name: target.Name, PerT: make([]ThresholdResult, len(opts.Thresholds))}

	var observers []dbt.TraceObserver
	var suite *predict.Suite
	if len(opts.Predictors) > 0 {
		var err error
		if suite, err = predict.NewSuite(opts.Predictors); err != nil {
			t.Fatal(err)
		}
		observers = append(observers, suite)
	}
	var col *learned.Collector
	if opts.Learned != nil {
		img, _, err := target.Build("ref")
		if err != nil {
			t.Fatal(err)
		}
		sites, err := learned.ExtractSites(img)
		if err != nil {
			t.Fatal(err)
		}
		col = learned.NewCollector(sites)
		observers = append(observers, col)
	}
	avepCfg := TranslatorConfig("ref", 0, false)
	avep, _ := run("ref", avepCfg, observers...)
	out.AVEPCycles = avepCfg.Perf.Cycles
	if suite != nil {
		out.Predictors = suite.Results()
	}
	if col != nil {
		data := col.BenchData(target.Name)
		out.Learned = &data
	}

	for i, threshold := range opts.Thresholds {
		cfg := TranslatorConfig("ref", threshold, true)
		snap, stats := run("ref", cfg)
		out.PerT[i] = ThresholdResult{T: threshold, Summary: compare(snap, avep), ProfilingOps: snap.ProfilingOps, Cycles: cfg.Perf.Cycles, Stats: *stats}
	}

	for _, period := range opts.SamplePeriods {
		pr := SamplePeriodResult{Period: period, PerT: make([]SampleThresholdResult, len(opts.Thresholds))}
		for i, threshold := range opts.Thresholds {
			cfg := TranslatorConfig("ref", threshold, true)
			cfg.SamplePeriod = period
			snap, _ := run("ref", cfg)
			pr.PerT[i] = SampleThresholdResult{T: threshold, Summary: compare(snap, avep), ProfilingOps: snap.ProfilingOps, Cycles: cfg.Perf.Cycles}
		}
		out.Sampling = append(out.Sampling, pr)
	}

	train, _ := run("train", TranslatorConfig("train", 0, false))
	out.TrainOps = train.ProfilingOps
	out.Train = compare(train, avep)
	out.TrainRegions = compare(region.WithOfflineRegions(train, trainRegionThreshold, region.Config{}), avep)
	return out, oracleSnapshots{avep: avep, train: train}
}

// oracleSnapshots are the snapshots a cached run stores: the ref
// entry's AVEP and the run entry's training snapshot.
type oracleSnapshots struct {
	avep, train *profile.Snapshot
}

// storedSnapshots reads back the two snapshots a cached run stored in
// dir, so a scheduled run's can be checked although its result does not
// carry them. The store must hold a single benchmark's entries.
func storedSnapshots(t *testing.T, dir string) oracleSnapshots {
	t.Helper()
	var ref refEntry
	storedValue(t, cacheEntryPath(t, dir, "ref"), &ref)
	var train cachedSnapshot
	storedValue(t, cacheEntryPath(t, dir, "run"), &train)
	return oracleSnapshots{avep: decodedSnapshot(t, &ref.AVEP), train: decodedSnapshot(t, &train)}
}

// decodedSnapshot decodes a stored snapshot, failing the test when it
// does not decode.
func decodedSnapshot(t *testing.T, c *cachedSnapshot) *profile.Snapshot {
	t.Helper()
	snap, err := c.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// storedValue decodes the value of the cache entry at path into v.
func storedValue(t *testing.T, path string, v any) {
	t.Helper()
	if err := json.Unmarshal(readEnvelope(t, path).Value, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
