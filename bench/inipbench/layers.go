package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/learned"
	"repro/internal/metrics"
	"repro/internal/navep"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/region"
	"repro/internal/resultcache"
	"repro/internal/spec"
	"repro/internal/study"
)

// trainRegionThreshold is the threshold at which the pipeline forms
// regions offline over the training profile for its second training
// comparison (core's Sd.CP(train)/Sd.LP(train) reference). It and
// dbtConfig copy unexported pipeline decisions; the probe's fidelity
// gate fails the run when they drift from the pipeline's.
const trainRegionThreshold = 2000

// probeRepeats is how often the probe times the calls whose
// differences make up small layers; the minimum counts, which discards
// the host's one-off stalls.
const probeRepeats = 3

// probePlan is the layer work of one op (suite_*) or of one pass over
// the compare key space (compare_*), replayed call by call so each
// layer's public functions can be timed on their own. The study runs
// these calls interleaved on a worker pool; the probe runs them one at
// a time on one goroutine.
type probePlan struct {
	// builds lists the benchmarks whose ref and train images are built,
	// once per entry; hash adds the content hash a cached pipeline takes
	// of each image.
	builds []*spec.Benchmark
	hash   bool
	// trains are the training executions and refs the reference
	// executions: the AVEP driver plus one follower per threshold.
	trains []*spec.Benchmark
	refs   []refUnit
	// The extension axes riding each reference trace.
	predictors    []string
	samplePeriods []uint64
	learned       *learned.Config
	// sweep adds the follower-count sweep on vortex.
	sweep bool
	// want is the study whose work the plan replays, if any: what the
	// probe computes must equal the study's (see checkFidelity).
	want *study.Results
}

type refUnit struct {
	bench      *spec.Benchmark
	thresholds []uint64
}

// studyLadder is the study's distinct effective threshold ladder.
func studyLadder(scale float64) []uint64 {
	_, eff := study.EffectiveLadder(study.AllThresholds, scale)
	var out []uint64
	seen := map[uint64]bool{}
	for _, t := range eff {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// suitePlan replays the cold study want, which ran with or without the
// axes.
func (r *run) suitePlan(axes bool, want *study.Results) probePlan {
	ladder := studyLadder(r.scale)
	p := probePlan{sweep: true, want: want}
	for _, b := range spec.Suite() {
		p.builds = append(p.builds, b)
		p.trains = append(p.trains, b)
		p.refs = append(p.refs, refUnit{b, ladder})
	}
	if axes {
		cfg := r.studyConfig(true)
		p.predictors, p.samplePeriods, p.learned = cfg.Predictors, cfg.SamplePeriods, cfg.Learned
	}
	return p
}

// comparePlan is one pass over the compare key space. Every request
// builds its benchmark's two images. Warm, it hashes them for the cache
// lookups; cold, with no cache, each key runs its own training
// execution, its own reference execution with one follower, and both
// comparisons.
func (r *run) comparePlan(cold bool) probePlan {
	p := probePlan{hash: !cold, sweep: cold}
	for _, k := range keySpace() {
		b := spec.ByName(k.bench)
		p.builds = append(p.builds, b)
		if cold {
			p.trains = append(p.trains, b)
			p.refs = append(p.refs, refUnit{b, []uint64{study.EffectiveThreshold(k.t, r.scale)}})
		}
	}
	return p
}

// dbtConfig mirrors the pipeline's translator configuration; perf
// attaches the cycle model, which every study run carries.
func dbtConfig(input string, threshold uint64, optimize, perf bool) dbt.Config {
	cfg := dbt.Config{Input: input, Threshold: threshold, Optimize: optimize, RegisterTwice: true}
	if perf {
		cfg.Perf = perfmodel.NewAccumulator(perfmodel.DefaultParams())
	}
	return cfg
}

// ladderConfigs is the AVEP driver followed by one INIP(T) follower per
// threshold.
func ladderConfigs(thresholds []uint64, perf bool) []dbt.Config {
	cfgs := []dbt.Config{dbtConfig("ref", 0, false, perf)}
	for _, t := range thresholds {
		cfgs = append(cfgs, dbtConfig("ref", t, true, perf))
	}
	return cfgs
}

func newTape(b *spec.Benchmark, input string, scale float64) (interp.Tape, error) {
	return b.Target(scale).NewTape(input)
}

// suiteObserver feeds the trace's branch stream to a predictor suite.
type suiteObserver struct{ suite *predict.Suite }

func (o suiteObserver) ObserveBranches(evs []dbt.BranchEvent) {
	for _, ev := range evs {
		o.suite.Record(ev.PC, ev.Taken)
	}
}

// probe replays the plan and adds its layer metrics. Each timed call is
// a span under one "probe" span.
func (r *run) probe(p probePlan) error {
	r.host.stop()
	L := r.layers
	start := time.Now()
	root := r.spans.add(0, "probe", "", start, start)
	timeIt := func(name, bench string, f func() error) (time.Duration, error) {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		r.spans.add(root, name, bench, t0, t1)
		return t1.Sub(t0), err
	}

	for _, b := range p.builds {
		for _, input := range []string{"ref", "train"} {
			var img *guest.Image
			d, err := timeIt("spec.build", b.Name, func() (err error) {
				img, _, err = b.Build(input, r.scale)
				return err
			})
			if err != nil {
				return err
			}
			L["spec.build_ms"] += ms(d)
			if p.hash {
				d, _ = timeIt("guest.content_hash", b.Name, func() error {
					img.ContentHash()
					return nil
				})
				L["guest.content_hash_ms"] += ms(d)
			}
		}
	}

	gated := map[string]bool{}
	trains := map[string]*profile.Snapshot{}
	for _, b := range p.trains {
		img, _, err := b.Build("train", r.scale)
		if err != nil {
			return err
		}
		snap, _, err := r.drive(b, "train", img, root, gated)
		if err != nil {
			return err
		}
		trains[b.Name] = snap
	}

	var replay time.Duration
	var contextBlocks, allBlocks, fast, lookups uint64
	var data []learned.BenchData
	for _, u := range p.refs {
		b := u.bench
		img, _, err := b.Build("ref", r.scale)
		if err != nil {
			return err
		}
		_, driver, err := r.drive(b, "ref", img, root, gated)
		if err != nil {
			return err
		}
		ladder := func(name string, cfgs []dbt.Config, observers []dbt.TraceObserver) (snaps []*profile.Snapshot, stats []*dbt.RunStats, d time.Duration, err error) {
			tape, err := newTape(b, "ref", r.scale)
			if err != nil {
				return nil, nil, 0, err
			}
			d, err = timeIt(name, b.Name, func() (err error) {
				if observers == nil {
					snaps, stats, err = dbt.RunMulti(img, tape, cfgs)
				} else {
					snaps, stats, err = dbt.RunMultiObserved(img, tape, cfgs, observers)
				}
				return err
			})
			return snaps, stats, d, err
		}
		// The cycle model's share is a small difference of two large
		// times, so both sides are timed alternately and the minimum kept.
		var snaps []*profile.Snapshot
		var stats []*dbt.RunStats
		var cfgs []dbt.Config
		plain, full := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for i := 0; i < probeRepeats; i++ {
			_, _, d, err := ladder("dbt.ladder_noperf", ladderConfigs(u.thresholds, false), nil)
			if err != nil {
				return err
			}
			plain = min(plain, d)
			cfgs = ladderConfigs(u.thresholds, true)
			snaps, stats, d, err = ladder("dbt.ladder", cfgs, nil)
			if err != nil {
				return err
			}
			full = min(full, d)
		}
		L["dbt.ladder_s"] += full.Seconds()
		L["perfmodel.charge_s"] += (full - plain).Seconds()
		replay += plain - driver
		for i, st := range stats {
			allBlocks += st.BlocksExecuted
			fast += st.FastDispatches
			lookups += st.CacheLookups
			if i > 0 {
				contextBlocks += st.BlocksExecuted
			}
		}
		avep := snaps[0]
		got := replayed{avepCycles: cfgs[0].Perf.Cycles}
		followers := snaps[1:]
		for _, cfg := range cfgs[1:] {
			got.rungs = append(got.rungs, rung{t: cfg.Threshold, cycles: cfg.Perf.Cycles})
		}

		if len(p.samplePeriods) > 0 {
			cfgs := ladderConfigs(u.thresholds, true)
			for _, period := range p.samplePeriods {
				for _, t := range u.thresholds {
					cfg := dbtConfig("ref", t, true, true)
					cfg.SamplePeriod = period
					cfgs = append(cfgs, cfg)
				}
			}
			sampled, _, d, err := ladder("dbt.sampled_ladder", cfgs, nil)
			if err != nil {
				return err
			}
			L["dbt.sampled_followers_s"] += (d - full).Seconds()
			for k := 1 + len(u.thresholds); k < len(cfgs); k++ {
				followers = append(followers, sampled[k])
				got.rungs = append(got.rungs, rung{period: cfgs[k].SamplePeriod, t: cfgs[k].Threshold, cycles: cfgs[k].Perf.Cycles})
			}
		}
		if len(p.predictors) > 0 {
			suite, err := predict.NewSuite(p.predictors)
			if err != nil {
				return err
			}
			_, _, d, err := ladder("predict.observe", ladderConfigs(u.thresholds, true), []dbt.TraceObserver{suiteObserver{suite}})
			if err != nil {
				return err
			}
			L["predict.observe_s"] += (d - full).Seconds()
			got.predictors = suite.Results()
			L["predict.branches"] += float64(got.predictors[0].Branches)
		}
		if p.learned != nil {
			var sites []learned.Site
			d, err := timeIt("learned.extract", b.Name, func() (err error) {
				sites, err = learned.ExtractSites(img)
				return err
			})
			if err != nil {
				return err
			}
			L["learned.extract_ms"] += ms(d)
			col := learned.NewCollector(sites)
			_, _, d, err = ladder("learned.collect", ladderConfigs(u.thresholds, true), []dbt.TraceObserver{col})
			if err != nil {
				return err
			}
			L["learned.collect_s"] += (d - full).Seconds()
			bd := col.BenchData(b.Name)
			got.learned = &bd
			data = append(data, bd)
		}

		for i, inip := range followers {
			if got.rungs[i].summary, err = r.compareLayer(inip, avep, b.Name, root); err != nil {
				return err
			}
		}
		if train := trains[b.Name]; train != nil {
			withRegions := region.WithOfflineRegions(train, trainRegionThreshold, region.Config{})
			got.train = make([]metrics.Summary, 2)
			for i, t := range []*profile.Snapshot{train, withRegions} {
				if got.train[i], err = r.compareLayer(t, avep, b.Name, root); err != nil {
					return err
				}
			}
		}
		r.checkFidelity(p.want, b.Name, got)
	}
	if p.learned != nil {
		d, err := timeIt("learned.crossval", "suite", func() error {
			_, err := learned.CrossValidate(*p.learned, data)
			return err
		})
		if err != nil {
			return err
		}
		L["learned.crossval_ms"] = ms(d)
	}
	if p.sweep {
		if err := r.followerSweep(timeIt); err != nil {
			return err
		}
	}

	if L["dbt.driver_s"] > 0 {
		L["dbt.guest_blocks_per_s"] = L["dbt.guest_blocks"] / L["dbt.driver_s"]
	}
	if contextBlocks > 0 {
		L["dbt.replay_ns_per_context_block"] = float64(replay) / float64(contextBlocks)
		L["dbt.context_blocks"] = float64(contextBlocks)
	}
	if allBlocks > 0 {
		L["dbt.fast_dispatch_frac"] = float64(fast) / float64(allBlocks)
		L["dbt.cache_lookups_per_mblock"] = float64(lookups) / (float64(allBlocks) / 1e6)
	}
	r.spans.setEnd(root, time.Now())
	return nil
}

// drive times one benchmark input through the translator alone — the
// AVEP configuration without the cycle model, which is the pure driver
// every shared-trace run pays once; the minimum of probeRepeats runs
// counts — and, the first time each input is driven, gates it against
// the reference interpreter.
func (r *run) drive(b *spec.Benchmark, input string, img *guest.Image, parent int64, gated map[string]bool) (*profile.Snapshot, time.Duration, error) {
	var e *dbt.Engine
	var snap *profile.Snapshot
	var stats *dbt.RunStats
	best := time.Duration(math.MaxInt64)
	for i := 0; i < probeRepeats; i++ {
		tape, err := newTape(b, input, r.scale)
		if err != nil {
			return nil, 0, err
		}
		if e, err = dbt.New(img, tape, dbtConfig(input, 0, false, false)); err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		snap, stats, err = e.Run()
		t1 := time.Now()
		if err != nil {
			return nil, 0, fmt.Errorf("%s/%s: %w", b.Name, input, err)
		}
		r.spans.add(parent, "dbt.driver", b.Name, t0, t1)
		best = min(best, t1.Sub(t0))
	}
	r.layers["dbt.driver_s"] += best.Seconds()
	r.layers["dbt.guest_blocks"] += float64(stats.BlocksExecuted)
	if key := b.Name + "/" + input; !gated[key] {
		gated[key] = true
		if err := r.interpGate(b, input, img, e, stats); err != nil {
			return nil, 0, err
		}
	}
	return snap, best, nil
}

// interpGate runs the input through interp.Machine, the independent
// reference interpreter, and requires the translator to have reached
// the same architectural end state over the same instruction and block
// counts.
func (r *run) interpGate(b *spec.Benchmark, input string, img *guest.Image, e *dbt.Engine, stats *dbt.RunStats) error {
	tape, err := newTape(b, input, r.scale)
	if err != nil {
		return err
	}
	m, err := interp.NewMachine(img, tape)
	if err != nil {
		return err
	}
	if err := m.Run(); err != nil {
		return fmt.Errorf("interp %s/%s: %w", b.Name, input, err)
	}
	want, got := m.State(), e.State()
	var diffs []string
	if want.Regs != got.Regs {
		diffs = append(diffs, "registers differ")
	}
	if !reflect.DeepEqual(want.Mem, got.Mem) {
		diffs = append(diffs, "memory differs")
	}
	if m.Steps() != stats.Instructions {
		diffs = append(diffs, fmt.Sprintf("%d instructions, reference %d", stats.Instructions, m.Steps()))
	}
	if m.Blocks() != stats.BlocksExecuted {
		diffs = append(diffs, fmt.Sprintf("%d blocks, reference %d", stats.BlocksExecuted, m.Blocks()))
	}
	r.check(len(diffs) == 0, "%s/%s against the reference interpreter: %s", b.Name, input, strings.Join(diffs, "; "))
	return nil
}

// compareLayer times the accuracy comparison of one initial profile
// against AVEP: the NAVEP normalization alone, then core.Compare, whose
// excess over it is the metrics summary (each the minimum of
// probeRepeats timings, the summary being a small difference). It
// returns the comparison.
func (r *run) compareLayer(inip, avep *profile.Snapshot, bench string, parent int64) (metrics.Summary, error) {
	var sum metrics.Summary
	norm, cmp := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < probeRepeats; i++ {
		t0 := time.Now()
		if _, err := navep.Normalize(inip, avep); err != nil {
			return sum, fmt.Errorf("%s: %w", bench, err)
		}
		t1 := time.Now()
		var err error
		if sum, _, err = core.Compare(inip, avep); err != nil {
			return sum, fmt.Errorf("%s: %w", bench, err)
		}
		t2 := time.Now()
		r.spans.add(parent, "navep.normalize", bench, t0, t1)
		r.spans.add(parent, "core.compare", bench, t1, t2)
		norm, cmp = min(norm, t1.Sub(t0)), min(cmp, t2.Sub(t1))
	}
	r.layers["navep.normalize_ms"] += ms(norm)
	r.layers["metrics.summary_ms"] += ms(cmp - norm)
	r.layers["navep.calls"]++
	return sum, nil
}

// rung is one follower's outcome on a benchmark's reference trace, in
// the terms the study records it: the INIP(T) comparison against AVEP
// and the run's modelled cycles. period is the sampling period, 0 for
// full instrumentation.
type rung struct {
	period, t uint64
	summary   metrics.Summary
	cycles    float64
}

// replayed is what the probe computed for one benchmark.
type replayed struct {
	avepCycles float64
	rungs      []rung
	// train holds the INIP(train) comparison without and with offline
	// regions; nil when the plan did not reach the benchmark's training
	// run.
	train      []metrics.Summary
	predictors []predict.Result
	learned    *learned.BenchData
}

// checkFidelity is the probe's fidelity gate. The probe copies the
// pipeline's translator configuration and constants rather than calling
// its unexported code, so each benchmark it replays must come out
// exactly as in the study want: every comparison, cycle count,
// predictor tally and learned collection. A probe that drifted from the
// pipeline would time other work than the study's, so a difference
// fails the run.
func (r *run) checkFidelity(want *study.Results, bench string, got replayed) {
	if want == nil {
		return
	}
	var s *study.BenchmarkSeries
	for i := range want.Series {
		if want.Series[i].Name == bench {
			s = &want.Series[i]
		}
	}
	if !r.check(s != nil, "probe: the study has no series for %s", bench) {
		return
	}
	wantRungs := map[[2]uint64]rung{}
	for _, pt := range s.PerT {
		wantRungs[[2]uint64{0, pt.T}] = rung{0, pt.T, pt.Summary, pt.Cycles}
	}
	for _, sp := range s.Sampling {
		for _, pt := range sp.PerT {
			wantRungs[[2]uint64{sp.Period, pt.T}] = rung{sp.Period, pt.T, pt.Summary, pt.Cycles}
		}
	}
	var diffs []string
	// Values print in full precision and NaN prints as itself, so equal
	// strings mean equal values.
	same := func(what string, a, b any) {
		if fmt.Sprint(a) != fmt.Sprint(b) {
			diffs = append(diffs, what)
		}
	}
	same("AVEP cycles", got.avepCycles, s.AVEPCycles)
	if len(got.rungs) != len(wantRungs) {
		diffs = append(diffs, fmt.Sprintf("%d rungs, the study has %d", len(got.rungs), len(wantRungs)))
	}
	for _, g := range got.rungs {
		same(fmt.Sprintf("period %d T %d", g.period, g.t), g, wantRungs[[2]uint64{g.period, g.t}])
	}
	if got.train != nil {
		same("INIP(train)", got.train, []metrics.Summary{s.Train, s.TrainRegions})
	}
	if got.predictors != nil {
		same("predictor tallies", got.predictors, s.Predictors)
	}
	if got.learned != nil && (s.Learned == nil || !reflect.DeepEqual(*got.learned, *s.Learned)) {
		diffs = append(diffs, "learned collection")
	}
	r.check(len(diffs) == 0, "probe of %s differs from the study it replays: %s", bench, strings.Join(diffs, "; "))
}

// followerSweep times the shared-trace replay on vortex with 1, 4 and
// 16 INIP followers behind the AVEP driver (thresholds taken from the
// study ladder, cycling).
func (r *run) followerSweep(timeIt func(string, string, func() error) (time.Duration, error)) error {
	b := spec.ByName("vortex")
	img, _, err := b.Build("ref", r.scale)
	if err != nil {
		return err
	}
	ladder := studyLadder(r.scale)
	for _, k := range []int{1, 4, 16} {
		ts := make([]uint64, k)
		for i := range ts {
			ts[i] = ladder[i%len(ladder)]
		}
		tape, err := newTape(b, "ref", r.scale)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("dbt.followers_%d", k)
		d, err := timeIt(name, b.Name, func() error {
			_, _, err := dbt.RunMulti(img, tape, ladderConfigs(ts, true))
			return err
		})
		if err != nil {
			return err
		}
		r.layers[name+"_s"] = d.Seconds()
	}
	return nil
}

// eventLayers derives the core and resultcache metrics from obs events.
// evs are the traced ops' events, covering n op-equivalents over wall
// time; setupEvents add the cache writes of traced set-up.
func (r *run) eventLayers(evs, setupEvents []obs.Event, n float64, wall time.Duration) {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var build, ref, train, cmp, busy time.Duration
	var lookups, puts []float64
	hits := 0
	for _, ev := range evs {
		d := time.Duration(ev.DurNS)
		switch ev.Unit {
		case obs.UnitBuild:
			build += d
		case obs.UnitRef:
			ref += d
		case obs.UnitTrain:
			train += d
		case obs.UnitCompare, obs.UnitTrainCompare, obs.UnitSampleCompare:
			cmp += d
		case obs.UnitCacheHit:
			hits++
			lookups = append(lookups, us(d))
		case obs.UnitCacheMiss:
			lookups = append(lookups, us(d))
		case obs.UnitCacheStore:
			puts = append(puts, us(d))
		}
		// The suite-level learned fit runs after the pool drains, on no
		// worker; every other span is pool time.
		if ev.Unit != obs.UnitLearnedFit {
			busy += d
		}
	}
	for _, ev := range setupEvents {
		if ev.Unit == obs.UnitCacheStore {
			puts = append(puts, us(time.Duration(ev.DurNS)))
		}
	}
	L := r.layers
	L["core.unit_build_s"] = build.Seconds() / n
	L["core.unit_ref_s"] = ref.Seconds() / n
	L["core.unit_train_s"] = train.Seconds() / n
	L["core.unit_compare_s"] = cmp.Seconds() / n
	L["core.worker_occupancy"] = busy.Seconds() / (wall.Seconds() * parallelism)
	if len(lookups) > 0 {
		L["resultcache.lookup_p50_us"] = median(lookups)
		L["resultcache.hit_frac"] = float64(hits) / float64(len(lookups))
	}
	if len(puts) > 0 {
		L["resultcache.put_p50_us"] = median(puts)
	}
}

// storeLayers records what the result cache holds on disk.
func (r *run) storeLayers(store *resultcache.Store) error {
	entries, err := os.ReadDir(store.Dir())
	if err != nil {
		return err
	}
	var n, size float64
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n++
		size += float64(info.Size())
	}
	r.layers["resultcache.entries"] = n
	r.layers["resultcache.bytes"] = size
	return nil
}
