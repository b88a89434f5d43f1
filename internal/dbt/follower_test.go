package dbt

import (
	"reflect"
	"testing"

	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/perfmodel"
)

// Shared-trace followers do only profiling work: no lowered code, no
// chain state, successors from the dense code cache, and the batch sums
// (instructions, lowered-block dispatches, trace-path CacheLookups) from
// the driver. These tests pin that they still
// report exactly a serial run's statistics.

// buildCallHeavy returns a guest whose one leaf function returns to
// four call sites, one of them reached only on a tape-driven branch, so
// the leaf's ret resolves a data-driven successor that its chain's
// single edge pointer keeps missing and its itab catches.
func buildCallHeavy(tb testing.TB, iters int32) *guest.Image {
	tb.Helper()
	src := `
.entry main
main:
	loadi r14, 0
	loadi r6, 4096
	loadi r10, ` + itoa(iters) + `
loop:
	call leaf
	addi r1, r1, 1
	call leaf
	addi r2, r2, 1
	call leaf
	in r5
	blt r5, r6, skip
	call leaf
skip:
	addi r14, r14, 1
	blt r14, r10, loop
	halt
leaf:
	addi r4, r4, 1
	ret
`
	img, err := guest.Assemble(src)
	if err != nil {
		tb.Fatalf("Assemble: %v", err)
	}
	return img
}

// withPerf gives every config a fresh perf accumulator, as the study's
// configs carry one.
func withPerf(cfgs []Config) []Config {
	out := append([]Config(nil), cfgs...)
	for i := range out {
		out[i].Perf = perfmodel.NewAccumulator(perfmodel.DefaultParams())
	}
	return out
}

// checkFollowersMatchSerial runs cfgs over one shared trace and requires
// every engine's snapshot and statistics, CacheLookups included, to be
// reflect.DeepEqual to a serial run of its config. It returns the
// engines for case-specific checks.
func checkFollowersMatchSerial(t *testing.T, img *guest.Image, seed string, cfgs []Config) []*Engine {
	t.Helper()
	engines, err := runEngines(img, interp.NewUniformTape(seed), withPerf(cfgs), nil)
	if err != nil {
		t.Fatalf("runEngines: %v", err)
	}
	for i, e := range engines {
		gotSnap, gotStats, _ := e.finish()
		wantSnap, wantStats, err := Run(img, interp.NewUniformTape(seed), withPerf(cfgs[i : i+1])[0])
		if err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Errorf("config %d: stats differ from serial\n got: %+v\nwant: %+v", i, gotStats, wantStats)
		}
		snapEqual(t, "config "+itoa(int32(i)), gotSnap, wantSnap)
	}
	return engines
}

// TestFollowerStatsMatchSerialOptimizingDriver: the driver's own waves
// probe the code cache, and those probes must not reach the followers'
// CacheLookups — only the trace-path ones do.
func TestFollowerStatsMatchSerialOptimizingDriver(t *testing.T) {
	img := buildLooper(t, 3000, 1800)
	engines := checkFollowersMatchSerial(t, img, "follow-opt", []Config{
		{Input: "ref", Optimize: true, Threshold: 5, PoolTrigger: 2, RegisterTwice: true},
		{Input: "ref", Optimize: false},
		{Input: "ref", Optimize: true, Threshold: 200, RegisterTwice: true},
	})
	if engines[0].stats.OptimizationWaves == 0 {
		t.Fatal("driver ran no optimization wave; the case does not test wave lookups")
	}
	if engines[0].stats.CacheLookups == engines[1].stats.CacheLookups {
		t.Fatal("driver and AVEP follower report equal CacheLookups; the driver's wave probes are not exercised")
	}
}

// TestFollowerStatsMatchSerialCallHeavy: a call-heavy guest whose driver
// resolves returns through itab.
func TestFollowerStatsMatchSerialCallHeavy(t *testing.T) {
	img := buildCallHeavy(t, 3000)
	engines := checkFollowersMatchSerial(t, img, "follow-call", []Config{
		{Input: "ref", Optimize: false},
		{Input: "ref", Optimize: true, Threshold: 10, RegisterTwice: true},
		{Input: "ref", Optimize: true, Threshold: 100, RegisterTwice: true, Adaptive: true, AdaptiveMinEntries: 16},
	})
	itabs := 0
	for _, tb := range engines[0].cache {
		if tb != nil && tb.itab != nil {
			itabs++
		}
	}
	if itabs == 0 {
		t.Fatal("driver built no itab; the case does not exercise indirect chaining")
	}
}

// sampledPeriods are the periods the sampled-follower tests sweep: 4
// and 16 as the study runs them, odd periods whose sampled positions
// drift against the batch boundaries, and 5000, larger than replayBatch,
// so whole batches pass without a sampled event.
var sampledPeriods = []uint64{3, 4, 7, 16, 5000}

// sampledAt reports whether the engine's k-th block event (0-indexed)
// is a sampled one: the stride samples events phase, phase+P, and so on.
func sampledAt(cfg Config, k uint64) bool {
	phase := samplePhase(cfg)
	return k >= phase && (k-phase)%cfg.SamplePeriod == 0
}

// TestFollowerStatsMatchSerialSampledLadder: a ladder at full
// instrumentation and at every sampled period. Threshold 1 gives the
// region former a MinUse of 0, so a wave also absorbs blocks that are
// translated but not yet profiled: a strided follower that translated a
// first occurrence late (or early) would form different regions. With
// a pool trigger of 1 the wave runs at the very step that first reaches
// a block. The guest halts mid-batch, between the sampled positions of
// some periods.
func TestFollowerStatsMatchSerialSampledLadder(t *testing.T) {
	img := buildBranchHeavy(t, 3000)
	var cfgs []Config
	cfgs = append(cfgs, Config{Input: "ref", Optimize: false})
	for _, p := range append([]uint64{0}, sampledPeriods...) {
		for _, th := range []uint64{1, 8, 64, 512} {
			cfgs = append(cfgs, Config{Input: "ref", Optimize: true, Threshold: th, RegisterTwice: true,
				SamplePeriod: p, SampleSeed: 3})
		}
		cfgs = append(cfgs, Config{Input: "ref", Optimize: true, Threshold: 1, PoolTrigger: 1, RegisterTwice: true,
			SamplePeriod: p, SampleSeed: 3})
	}
	engines := checkFollowersMatchSerial(t, img, "follow-sampled", cfgs)
	blocks := engines[0].stats.BlocksExecuted
	if blocks < 3*replayBatch || blocks%replayBatch == 0 {
		t.Fatalf("guest ran %d blocks; want several batches and a halt mid-batch", blocks)
	}
	unsampledHalt := false
	for _, cfg := range cfgs {
		if cfg.SamplePeriod > 1 && !sampledAt(cfg, blocks-1) {
			unsampledHalt = true
		}
	}
	if !unsampledHalt {
		t.Fatal("every period samples the halting block; the case does not test a halt between sampled positions")
	}
}

// TestSampledFollowerStopsMatchSerial: a TrapAfter stop that lands
// between two sampled positions of a later batch stops a
// sampled follower behind a full driver exactly where its serial run
// stops: same error, and the same snapshot and statistics up to the
// stop.
func TestSampledFollowerStopsMatchSerial(t *testing.T) {
	img := buildBranchHeavy(t, 3000)
	for _, p := range []uint64{3, 7, 5000} {
		cfg := Config{Input: "ref", Optimize: true, Threshold: 8, RegisterTwice: true, SamplePeriod: p, SampleSeed: 3}
		// k is the stopped block's index: half a period past a sampled
		// event, beyond the first batch.
		k := samplePhase(cfg) + p/2
		for k <= replayBatch+p {
			k += p
		}
		if sampledAt(cfg, k) || sampledAt(cfg, k+1) {
			t.Fatalf("period %d: stop at %d is not between sampled positions", p, k)
		}
		cfg.TrapAfter = k + 1
		cfgs := withPerf([]Config{{Input: "ref"}, cfg})
		engines, err := runEngines(img, interp.NewUniformTape("follow-stop"), cfgs, nil)
		serial, nerr := New(img, interp.NewUniformTape("follow-stop"), withPerf(cfgs[1:])[0])
		if nerr != nil {
			t.Fatal(nerr)
		}
		_, _, serr := serial.Run()
		if err == nil || serr == nil || err.Error() != serr.Error() {
			t.Fatalf("period %d: follower error %v, serial %v", p, err, serr)
		}
		gotSnap, gotStats, _ := engines[1].finish()
		wantSnap, wantStats, _ := serial.finish()
		if gotStats.BlocksExecuted != k+1 {
			t.Fatalf("period %d: stopped after %d blocks, want %d", p, gotStats.BlocksExecuted, k+1)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Errorf("period %d: stats differ from serial\n got: %+v\nwant: %+v", p, gotStats, wantStats)
		}
		snapEqual(t, "period "+itoa(int32(p)), gotSnap, wantSnap)
	}
}

// TestFollowersKeepNoCodeOrChains: after a shared-trace run every
// follower has an empty arena and block table and no chain state. It
// holds its own block wherever the driver holds one, with the driver's
// static fields, and nowhere else; adopting a block allocates exactly
// the follower's tblock.
func TestFollowersKeepNoCodeOrChains(t *testing.T) {
	static := func(tb *tblock) tblock {
		return tblock{addr: tb.addr, takenTarget: tb.takenTarget, fallTarget: tb.fallTarget, end: tb.end, term: tb.term,
			costSum: tb.costSum, ninsts: tb.ninsts, hasBranch: tb.hasBranch, indirect: tb.indirect}
	}
	for _, img := range []*guest.Image{buildCallHeavy(t, 500), buildLooper(t, 500, 300)} {
		cfgs := []Config{
			{Input: "ref", Optimize: false},
			{Input: "ref", Optimize: true, Threshold: 10, RegisterTwice: true},
			{Input: "ref", Optimize: true, Threshold: 40, RegisterTwice: true, SamplePeriod: 4},
		}
		engines, err := runEngines(img, interp.NewUniformTape("follow-bare"), withPerf(cfgs), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(engines[0].arena) == 0 {
			t.Fatal("driver built no lowered code")
		}
		for i, e := range engines[1:] {
			if len(e.arena) != 0 || len(e.hot) != 0 {
				t.Errorf("follower %d: arena %d ops, block table %d rows; want none", i+1, len(e.arena), len(e.hot))
			}
			for addr, d := range engines[0].cache {
				tb := e.cache[addr]
				switch {
				case (d == nil) != (tb == nil):
					t.Fatalf("follower %d: block at %d: driver holds one %v, follower %v", i+1, addr, d != nil, tb != nil)
				case tb == nil:
				case tb == d:
					t.Fatalf("follower %d: block at %d is the driver's own", i+1, addr)
				case static(tb) != static(d):
					t.Fatalf("follower %d: block at %d: static fields %+v, driver's %+v", i+1, addr, static(tb), static(d))
				case tb.takenBlk != nil || tb.fallBlk != nil || tb.itab != nil:
					t.Errorf("follower %d: block %d keeps chain state", i+1, tb.addr)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := e.translate(img.Entry); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 1 {
				t.Errorf("follower %d: adopting a block allocates %v times, want 1", i+1, allocs)
			}
		}
	}
}
