package dbt

import (
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/perfmodel"
	"repro/internal/profile"
	"repro/internal/region"
)

// buildLooper returns a program that runs `iters` iterations of a loop
// containing one tape-driven branch with taken probability
// bias/interp.ProbScale.
func buildLooper(t testing.TB, iters, bias int32) *guest.Image {
	t.Helper()
	src := `
.entry main
main:
	loadi r0, 0
	loadi r14, 0
	loadi r6, ` + itoa(bias) + `
	loadi r10, ` + itoa(iters) + `
loop:
	in r1
	blt r1, r6, taken
	addi r2, r2, 1
	jmp next
taken:
	addi r3, r3, 1
next:
	addi r14, r14, 1
	blt r14, r10, loop
	halt
`
	img, err := guest.Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return img
}

func itoa(v int32) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func TestAVEPMatchesReferenceInterpreter(t *testing.T) {
	img := buildLooper(t, 500, 2048)
	// Reference interpreter counts block entries per address.
	m, err := interp.NewMachine(img, interp.NewUniformTape("looper/ref"))
	if err != nil {
		t.Fatal(err)
	}
	refCounts := make(map[int]uint64)
	m.BlockHook = func(pc int) { refCounts[pc]++ }
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}

	snap, stats, err := Run(img, interp.NewUniformTape("looper/ref"), Config{Optimize: false})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Optimized || snap.Threshold != 0 {
		t.Fatalf("AVEP snapshot flags wrong: %+v", snap)
	}
	if len(snap.Regions) != 0 {
		t.Fatalf("AVEP must have no regions, got %d", len(snap.Regions))
	}
	if stats.BlocksExecuted != m.Blocks() {
		t.Fatalf("block executions: dbt %d vs interp %d", stats.BlocksExecuted, m.Blocks())
	}
	if stats.Instructions != m.Steps() {
		t.Fatalf("instructions: dbt %d vs interp %d", stats.Instructions, m.Steps())
	}
	for addr, want := range refCounts {
		blk, ok := snap.Blocks[addr]
		if !ok {
			t.Fatalf("dbt missing block %d", addr)
		}
		if blk.Use != want {
			t.Fatalf("block %d use = %d, interp saw %d", addr, blk.Use, want)
		}
	}
	if len(snap.Blocks) != len(refCounts) {
		t.Fatalf("block sets differ: dbt %d vs interp %d", len(snap.Blocks), len(refCounts))
	}
}

func TestAVEPBranchProbabilityMatchesBias(t *testing.T) {
	img := buildLooper(t, 5000, 2048) // p = 0.25
	snap, _, err := Run(img, interp.NewUniformTape("looper/ref"), Config{Optimize: false})
	if err != nil {
		t.Fatal(err)
	}
	// Find the block ending in the tape-driven branch: it is the block
	// whose terminator's taken target is the 'taken' label.
	// Several cache blocks can end at the same branch (the entry block
	// falls through into the loop body), so take the hottest one.
	takenAddr := img.Symbols["taken"]
	var bp float64
	var best uint64
	found := false
	for _, blk := range snap.Blocks {
		if blk.HasBranch && blk.TakenTarget == takenAddr && blk.Use > best {
			best = blk.Use
			bp = blk.BranchProb()
			found = true
		}
	}
	if !found {
		t.Fatal("tape-driven branch block not found")
	}
	if bp < 0.22 || bp > 0.28 {
		t.Fatalf("branch probability %v, want ~0.25", bp)
	}
}

func TestINIPFreezesCountersInThresholdWindow(t *testing.T) {
	img := buildLooper(t, 5000, 7372) // p = 0.9: biased, forms regions
	const T = 50
	snap, stats, err := Run(img, interp.NewUniformTape("looper/ref"), Config{
		Optimize: true, Threshold: T, PoolTrigger: 4, RegisterTwice: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.OptimizationWaves == 0 {
		t.Fatal("no optimization wave ran")
	}
	if len(snap.Regions) == 0 {
		t.Fatal("no regions formed")
	}
	// The paper: "all the blocks in INIP(T) have similar execution
	// frequencies (i.e. the use counts) between T and 2*T". The
	// register-twice trigger fires exactly at 2T, so 2T is inclusive.
	for _, r := range snap.Regions {
		for i := range r.Blocks {
			rb := &r.Blocks[i]
			if rb.Use < T || rb.Use > 2*T {
				t.Fatalf("region block at %d frozen use %d outside [T, 2T] = [%d, %d]", rb.Addr, rb.Use, T, 2*T)
			}
		}
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}
}

func TestINIPWithHugeThresholdEqualsAVEP(t *testing.T) {
	img := buildLooper(t, 2000, 4096)
	avep, _, err := Run(img, interp.NewUniformTape("looper/ref"), Config{Optimize: false})
	if err != nil {
		t.Fatal(err)
	}
	inip, stats, err := Run(img, interp.NewUniformTape("looper/ref"), Config{
		Optimize: true, Threshold: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.OptimizationWaves != 0 || len(inip.Regions) != 0 {
		t.Fatal("huge threshold must never trigger optimization")
	}
	if len(inip.Blocks) != len(avep.Blocks) {
		t.Fatalf("block sets differ: %d vs %d", len(inip.Blocks), len(avep.Blocks))
	}
	for addr, a := range avep.Blocks {
		b := inip.Blocks[addr]
		if b == nil || b.Use != a.Use || b.Taken != a.Taken {
			t.Fatalf("block %d: inip %+v vs avep %+v", addr, b, a)
		}
	}
}

func TestRegisterTwiceTriggersWithoutPool(t *testing.T) {
	img := buildLooper(t, 3000, 7372)
	// Pool trigger set impossibly high: only the register-twice rule
	// can start a wave.
	snap, stats, err := Run(img, interp.NewUniformTape("looper/ref"), Config{
		Optimize: true, Threshold: 100, PoolTrigger: 1 << 30, RegisterTwice: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.OptimizationWaves == 0 {
		t.Fatal("register-twice did not trigger optimization")
	}
	if len(snap.Regions) == 0 {
		t.Fatal("no regions formed")
	}
}

func TestNoRegisterTwiceNoHugePoolNeverOptimizes(t *testing.T) {
	img := buildLooper(t, 3000, 7372)
	_, stats, err := Run(img, interp.NewUniformTape("looper/ref"), Config{
		Optimize: true, Threshold: 100, PoolTrigger: 1 << 30, RegisterTwice: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.OptimizationWaves != 0 {
		t.Fatal("optimization ran despite disabled triggers")
	}
}

func TestLoopRegionFormedWithPlausibleLP(t *testing.T) {
	img := buildLooper(t, 5000, 7782) // p(taken)=0.95
	snap, _, err := Run(img, interp.NewUniformTape("looper/ref"), Config{
		Optimize: true, Threshold: 100, PoolTrigger: 4, RegisterTwice: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var loops int
	for _, r := range snap.Regions {
		if r.Kind == profile.RegionLoop {
			loops++
			lp, err := region.LoopBackProb(r, region.FrozenProb)
			if err != nil {
				t.Fatal(err)
			}
			if lp < 0.5 || lp > 1 {
				t.Fatalf("loop LP = %v, implausible", lp)
			}
		}
	}
	if loops == 0 {
		t.Fatal("no loop region formed from a hot loop")
	}
}

func TestProfilingOpsShrinkWithSmallThreshold(t *testing.T) {
	img := buildLooper(t, 20000, 6144)
	avep, _, err := Run(img, interp.NewUniformTape("looper/ref"), Config{Optimize: false})
	if err != nil {
		t.Fatal(err)
	}
	inip, _, err := Run(img, interp.NewUniformTape("looper/ref"), Config{
		Optimize: true, Threshold: 50, PoolTrigger: 4, RegisterTwice: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if inip.ProfilingOps*10 > avep.ProfilingOps {
		t.Fatalf("INIP(50) profiling ops %d not well below AVEP's %d", inip.ProfilingOps, avep.ProfilingOps)
	}
}

func TestDeterministicSnapshots(t *testing.T) {
	img := buildLooper(t, 2000, 5000)
	cfg := Config{Optimize: true, Threshold: 50, PoolTrigger: 4, RegisterTwice: true}
	s1, _, err := Run(img, interp.NewUniformTape("looper/ref"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := Run(img, interp.NewUniformTape("looper/ref"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s1.ProfilingOps != s2.ProfilingOps || s1.BlocksExecuted != s2.BlocksExecuted || len(s1.Regions) != len(s2.Regions) {
		t.Fatal("repeated runs diverged")
	}
	for addr, b1 := range s1.Blocks {
		b2 := s2.Blocks[addr]
		if b2 == nil || b1.Use != b2.Use || b1.Taken != b2.Taken {
			t.Fatalf("block %d diverged between runs", addr)
		}
	}
}

func TestPerfModelChargesAndRegionsTrack(t *testing.T) {
	img := buildLooper(t, 5000, 7782)
	acc := perfmodel.NewAccumulator(perfmodel.DefaultParams())
	snap, stats, err := Run(img, interp.NewUniformTape("looper/ref"), Config{
		Optimize: true, Threshold: 50, PoolTrigger: 4, RegisterTwice: true, Perf: acc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc.Cycles <= 0 || snap.Cycles == 0 {
		t.Fatal("perf model accumulated nothing")
	}
	if acc.TranslateCycles <= 0 || acc.OptimizeCycles <= 0 || acc.QuickCycles <= 0 || acc.OptimizedCycles <= 0 {
		t.Fatalf("perf breakdown incomplete: %+v", acc)
	}
	if stats.RegionEntries == 0 {
		t.Fatal("region execution never entered a region")
	}
	if stats.RegionLoopBacks == 0 {
		t.Fatal("loop region never looped back")
	}
	if stats.RegionLoopBacks+stats.RegionCompletions+stats.RegionSideExits == 0 {
		t.Fatal("region outcomes not tracked")
	}
}

func TestOptimizedRunFasterThanNeverOptimized(t *testing.T) {
	// With a well-predicted loop, optimizing at a modest threshold must
	// beat both never optimizing (stuck in quick code).
	img := buildLooper(t, 30000, 7782)
	run := func(cfg Config) float64 {
		acc := perfmodel.NewAccumulator(perfmodel.DefaultParams())
		cfg.Perf = acc
		if _, _, err := Run(img, interp.NewUniformTape("looper/ref"), cfg); err != nil {
			t.Fatal(err)
		}
		return acc.Cycles
	}
	never := run(Config{Optimize: false})
	opt := run(Config{Optimize: true, Threshold: 100, PoolTrigger: 4, RegisterTwice: true})
	if opt >= never {
		t.Fatalf("optimized run (%v cycles) not faster than unoptimized (%v)", opt, never)
	}
}

func TestConfigValidation(t *testing.T) {
	img := buildLooper(t, 10, 100)
	for _, c := range []struct {
		name string
		cfg  Config
		want []string // substrings the error must name
	}{
		{"optimize without threshold", Config{Optimize: true}, []string{"Optimize", "Threshold"}},
		{"adaptive sampled", Config{Optimize: true, Threshold: 8, Adaptive: true, SamplePeriod: 4},
			[]string{"Adaptive", "SamplePeriod 4"}},
		{"continuous trips sampled", Config{Optimize: true, Threshold: 8, ContinuousTripCount: true, SamplePeriod: 2},
			[]string{"ContinuousTripCount", "SamplePeriod 2"}},
	} {
		_, err := New(img, interp.NewUniformTape("x"), c.cfg)
		if err == nil {
			t.Errorf("%s: New accepted the config", c.name)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %s", c.name, err, w)
			}
		}
	}
	// Period 1 is full instrumentation, which keeps the cursor.
	if _, err := New(img, interp.NewUniformTape("x"), Config{Optimize: true, Threshold: 8, Adaptive: true, ContinuousTripCount: true, SamplePeriod: 1}); err != nil {
		t.Fatalf("New rejected a period-1 adaptive config: %v", err)
	}
}

func TestDisableFreezeKeepsCounting(t *testing.T) {
	img := buildLooper(t, 5000, 7782)
	snap, _, err := Run(img, interp.NewUniformTape("looper/ref"), Config{
		Optimize: true, Threshold: 50, PoolTrigger: 4, RegisterTwice: true, DisableFreeze: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With freezing disabled the hot loop block's end-of-run count far
	// exceeds 2T. Placed blocks are still excluded from Blocks, so look
	// at total profiling ops instead: they should approach the AVEP
	// level.
	avep, _, err := Run(img, interp.NewUniformTape("looper/ref"), Config{Optimize: false})
	if err != nil {
		t.Fatal(err)
	}
	if snap.ProfilingOps*2 < avep.ProfilingOps {
		t.Fatalf("DisableFreeze ops %d, want close to AVEP %d", snap.ProfilingOps, avep.ProfilingOps)
	}
}

func BenchmarkDBTLoop(b *testing.B) {
	img := buildLooper(b, 10000, 7372)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(img, interp.NewUniformTape("looper/ref"), Config{
			Optimize: true, Threshold: 100, PoolTrigger: 4, RegisterTwice: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
