package core

import (
	"strconv"
	"testing"

	"repro/internal/dbt"
	"repro/internal/navep"
	"repro/internal/profile"
)

// stationarySrc is a loop whose single data-driven branch keeps the same
// bias for the whole run: the easy case for initial prediction.
func stationarySrc(iters, bias int) string {
	return `
.entry main
main:
	loadi r0, 0
	loadi r14, 0
	loadi r6, ` + strconv.Itoa(bias) + `
	loadi r10, ` + strconv.Itoa(iters) + `
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
}

// phasedSrc flips the branch bias from earlyBias to lateBias after
// `boundary` iterations: the pathological case for a single profiling
// phase (the paper's Mcf).
func phasedSrc(iters, boundary, earlyBias, lateBias int) string {
	return `
.entry main
main:
	loadi r0, 0
	loadi r14, 0
	loadi r7, ` + strconv.Itoa(earlyBias) + `
	loadi r8, ` + strconv.Itoa(lateBias) + `
	loadi r9, ` + strconv.Itoa(boundary) + `
	loadi r10, ` + strconv.Itoa(iters) + `
loop:
	blt r14, r9, early
	mov r6, r8
	jmp body
early:
	mov r6, r7
body:
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
}

func TestCompareIdenticalSnapshotsIsZero(t *testing.T) {
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	res, err := RunBenchmark(target, Options{Thresholds: []uint64{1 << 40}})
	if err != nil {
		t.Fatal(err)
	}
	// A threshold beyond the whole run never freezes anything, so the
	// initial profile equals the average profile exactly.
	tr := res.PerT[0]
	if tr.Summary.SdBP != 0 || tr.Summary.BPMismatch != 0 {
		t.Fatalf("INIP(inf) vs AVEP: %+v, want exact match", tr.Summary)
	}
	if tr.Summary.HasRegions {
		t.Fatal("no regions should have formed")
	}
}

func TestStationaryProgramPredictsWell(t *testing.T) {
	target := BuildFromAsm("stationary", stationarySrc(20000, 7372)) // p=0.9
	res, err := RunBenchmark(target, Options{Thresholds: []uint64{100}})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.PerT[0]
	if !tr.Summary.HasRegions {
		t.Fatal("expected regions at T=100 on a hot loop")
	}
	// Stationary behaviour: the 100-sample window estimate is close to
	// the long-run average.
	if tr.Summary.SdBP > 0.08 {
		t.Fatalf("stationary Sd.BP(100) = %v, want small", tr.Summary.SdBP)
	}
	if tr.Summary.BPMismatch > 0.05 {
		t.Fatalf("stationary mismatch = %v, want ~0", tr.Summary.BPMismatch)
	}
}

func TestPhasedProgramDefeatsInitialPrediction(t *testing.T) {
	// Early phase: branch taken with p=0.95; after iteration 2000 it
	// drops to p=0.10. The average sits near 0.31 (2000 iters at .95,
	// 6000 at .10), so a T=100 initial profile (frozen inside the early
	// phase) must show a large Sd.BP, while the same program without a
	// phase change shows a small one.
	phased := BuildFromAsm("phased", phasedSrc(8000, 2000, 7782, 819))
	res, err := RunBenchmark(phased, Options{Thresholds: []uint64{100}})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.PerT[0]
	if !tr.Summary.HasRegions {
		t.Fatal("expected regions")
	}
	if tr.Summary.SdBP < 0.2 {
		t.Fatalf("phased Sd.BP(100) = %v, want large (phase change invisible to initial profile)", tr.Summary.SdBP)
	}
	if tr.Summary.BPMismatch == 0 {
		t.Fatal("phased program must show range mismatches")
	}
}

func TestProfilingOpsMonotonicallyGrowWithThreshold(t *testing.T) {
	target := BuildFromAsm("stationary", stationarySrc(20000, 6144))
	res, err := RunBenchmark(target, Options{Thresholds: []uint64{50, 500, 5000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerT) != 3 {
		t.Fatalf("results = %d", len(res.PerT))
	}
	prev := uint64(0)
	for _, tr := range res.PerT {
		if tr.ProfilingOps < prev {
			t.Fatalf("profiling ops decreased along the ladder: %+v", res.PerT)
		}
		prev = tr.ProfilingOps
	}
	// Small thresholds need well under the training run's ops.
	if res.PerT[0].ProfilingOps*5 > res.TrainOps {
		t.Fatalf("INIP(50) ops %d vs train %d: expected <20%%", res.PerT[0].ProfilingOps, res.TrainOps)
	}
}

func TestTrainComparisonPopulated(t *testing.T) {
	target := BuildFromAsm("stationary", stationarySrc(10000, 5734))
	res, err := RunBenchmark(target, Options{Thresholds: nil})
	if err != nil {
		t.Fatal(err)
	}
	if res.Train.Blocks == 0 {
		t.Fatal("train comparison saw no blocks")
	}
	if res.Train.HasRegions {
		t.Fatal("train comparison must not have regions")
	}
	// Same program structure, different tape seed: small but non-zero
	// sampling deviation.
	if res.Train.SdBP <= 0 || res.Train.SdBP > 0.1 {
		t.Fatalf("train Sd.BP = %v, want small non-zero", res.Train.SdBP)
	}
}

func TestPerfEnabledPopulatesCycles(t *testing.T) {
	// The run must be long enough to amortize the one-time optimization
	// cost (OptPerInst is large: optimizers are slow relative to
	// execution).
	target := BuildFromAsm("stationary", stationarySrc(300000, 7372))
	res, err := RunBenchmark(target, Options{Thresholds: []uint64{100}})
	if err != nil {
		t.Fatal(err)
	}
	if res.AVEPCycles <= 0 {
		t.Fatal("AVEP cycles missing")
	}
	if res.PerT[0].Cycles <= 0 {
		t.Fatal("INIP cycles missing")
	}
	// Optimizing a hot predictable loop must beat never optimizing.
	if res.PerT[0].Cycles >= res.AVEPCycles {
		t.Fatalf("INIP(100) cycles %v, AVEP %v: optimization should pay off", res.PerT[0].Cycles, res.AVEPCycles)
	}
}

// normalizedAt runs the target's reference input under AVEP and under
// INIP(threshold) with the study's translator configuration, and
// normalizes the INIP snapshot against AVEP — the per-block rows
// cmd/profcmp inspects offline, which a benchmark result does not carry.
func normalizedAt(t *testing.T, target Target, threshold uint64) (*profile.Snapshot, *navep.Result) {
	t.Helper()
	run := func(cfg dbt.Config) *profile.Snapshot {
		t.Helper()
		img, tape, err := target.Build("ref")
		if err != nil {
			t.Fatal(err)
		}
		snap, _, err := dbt.Run(img, tape, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	inip := run(TranslatorConfig("ref", threshold, true))
	_, norm, err := Compare(inip, run(TranslatorConfig("ref", 0, false)))
	if err != nil {
		t.Fatal(err)
	}
	return inip, norm
}

// nestedLoopSrc is the shape of the paper's Figure 1 (Mcf
// price_out_impl): an outer loop over an inner loop, where the inner
// loop body block is shared and will be duplicated into two loop
// regions by the optimizer.
func nestedLoopSrc(outer, innerBias int) string {
	return `
.entry main
main:
	loadi r0, 0
	loadi r11, 0
	loadi r10, ` + strconv.Itoa(outer) + `
	loadi r6, ` + strconv.Itoa(innerBias) + `
outerloop:
	addi r11, r11, 1
innerbody:
	in r1
	blt r1, r6, innerbody
	blt r11, r10, outerloop
	halt
`
}

func TestNestedLoopsFormLoopRegions(t *testing.T) {
	target := BuildFromAsm("mcfshape", nestedLoopSrc(4000, 7372))
	res, err := RunBenchmark(target, Options{Thresholds: []uint64{200}})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerT[0].Summary.Loops == 0 {
		t.Fatal("nested loop program formed no loop regions")
	}
	snap, norm := normalizedAt(t, target, 200)
	var loops int
	for _, r := range snap.Regions {
		if r.Kind == profile.RegionLoop {
			loops++
		}
	}
	if loops == 0 {
		t.Fatal("no loop regions in snapshot")
	}
	// The inner loop's LP should be near its bias (0.9).
	found := false
	for _, li := range norm.Loops {
		if li.LT > 0.8 && li.LT <= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no loop with LP near 0.9: %+v", norm.Loops)
	}
}

func TestRunBenchmarkRejectsNilBuilder(t *testing.T) {
	if _, err := RunBenchmark(Target{Name: "x"}, Options{}); err == nil {
		t.Fatal("nil builder accepted")
	}
}
