package core

import (
	"testing"

	"repro/internal/dbt"
	"repro/internal/learned"
	"repro/internal/metrics"
	"repro/internal/navep"
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
// Only the options that shape results are honored.
func serialOracle(t *testing.T, target Target, opts Options) *BenchmarkResult {
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
	compare := func(inip, avep *profile.Snapshot) (metrics.Summary, *navep.Result) {
		t.Helper()
		s, norm, err := Compare(inip, avep)
		if err != nil {
			t.Fatal(err)
		}
		return s, norm
	}

	out := &BenchmarkResult{Name: target.Name, Results: make([]ThresholdResult, len(opts.Thresholds))}

	var observers []dbt.TraceObserver
	var suite *predict.Suite
	if len(opts.Predictors) > 0 {
		var err error
		if suite, err = predict.NewSuite(opts.Predictors); err != nil {
			t.Fatal(err)
		}
		observers = append(observers, suiteObserver{suite})
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
	avepCfg := opts.dbtConfig("ref", 0, false)
	avep, _ := run("ref", avepCfg, observers...)
	out.AVEP, out.AVEPCycles = avep, cyclesOf(avepCfg)
	if suite != nil {
		out.Predictors = suite.Results()
	}
	if col != nil {
		data := col.BenchData(target.Name)
		out.Learned = &data
	}

	for i, threshold := range opts.Thresholds {
		cfg := opts.dbtConfig("ref", threshold, true)
		snap, stats := run("ref", cfg)
		summary, norm := compare(snap, avep)
		tr := ThresholdResult{T: threshold, Summary: summary, ProfilingOps: snap.ProfilingOps, Cycles: cyclesOf(cfg), Stats: *stats}
		if opts.KeepNormalized {
			tr.Normalized = norm
		}
		if opts.KeepSnapshots {
			tr.Snapshot = snap
		}
		out.Results[i] = tr
	}

	for _, period := range opts.SamplePeriods {
		pr := SamplePeriodResult{Period: period, PerT: make([]SampleThresholdResult, len(opts.Thresholds))}
		for i, threshold := range opts.Thresholds {
			cfg := opts.dbtConfig("ref", threshold, true)
			cfg.SamplePeriod, cfg.SampleSeed = period, opts.SampleSeed
			snap, _ := run("ref", cfg)
			summary, _ := compare(snap, avep)
			pr.PerT[i] = SampleThresholdResult{T: threshold, Summary: summary, ProfilingOps: snap.ProfilingOps, Cycles: cyclesOf(cfg)}
		}
		out.Sampling = append(out.Sampling, pr)
	}

	train, _ := run("train", opts.dbtConfig("train", 0, false))
	out.TrainOps = train.ProfilingOps
	out.Train, _ = compare(train, avep)
	out.TrainRegions, _ = compare(region.WithOfflineRegions(train, trainRegionThreshold, region.Config{}), avep)
	return out
}
