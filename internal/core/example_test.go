package core

import (
	"fmt"
	"log"

	"repro/internal/dbt"
	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/isa"
)

// ExampleCompare is the paper's method on one page: run a program
// under the two-phase translator once with optimization disabled (AVEP)
// and once with retranslation threshold 500 (INIP(500)), then ask how
// well the initial profile predicts the average one. The program is
// stationary, so even a short initial profile predicts it well.
func ExampleCompare() {
	// A hot loop around a biased branch: each iteration draws a word
	// from the input tape and takes the branch with probability
	// 6144/8192 = 0.75.
	b := guest.NewBuilder("quickstart")
	b.SetEntry(b.Here("main"))
	b.LoadImm(0, 0)      // r0 = 0
	b.LoadImm(14, 0)     // iteration counter
	b.LoadImm(10, 50000) // iteration limit
	b.LoadImm(6, 6144)   // branch bias: p = 0.75
	loop := b.Here("loop")
	b.In(1)
	taken := b.NewLabel("taken")
	next := b.NewLabel("next")
	b.Branch(isa.OpBlt, 1, 6, taken)
	b.Nops(2)
	b.Jump(next)
	b.Bind(taken)
	b.Nops(2)
	b.Bind(next)
	b.Addi(14, 14, 1)
	b.Branch(isa.OpBlt, 14, 10, loop)
	b.Emit(isa.Inst{Op: isa.OpHalt})
	img, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// AVEP: counters run to the end. INIP(500): a block that reaches
	// the threshold joins a region, and its counters freeze.
	avep, _, err := dbt.Run(img, interp.NewUniformTape("quickstart/ref"), TranslatorConfig("ref", 0, false))
	if err != nil {
		log.Fatal(err)
	}
	inip, stats, err := dbt.Run(img, interp.NewUniformTape("quickstart/ref"), TranslatorConfig("ref", 500, true))
	if err != nil {
		log.Fatal(err)
	}
	s, _, err := Compare(inip, avep)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d blocks, %d waves, %d regions\n", stats.BlocksTranslated, stats.OptimizationWaves, stats.RegionsFormed)
	fmt.Printf("profiling ops: INIP(500) %d vs AVEP %d\n", inip.ProfilingOps, avep.ProfilingOps)
	fmt.Printf("Sd.BP %.4f, BP mismatch %.2f%%\n", s.SdBP, s.BPMismatch*100)
	fmt.Printf("Sd.CP %.4f over %d traces, Sd.LP %.4f over %d loops\n", s.SdCP, s.Traces, s.SdLP, s.Loops)
	// Output:
	// 6 blocks, 2 waves, 2 regions
	// profiling ops: INIP(500) 6215 vs AVEP 200000
	// Sd.BP 0.0063, BP mismatch 0.00%
	// Sd.CP 0.0089 over 1 traces, Sd.LP 0.0088 over 1 loops
}

// ExampleRunBenchmark shows why one profiling phase can mispredict a
// program, the effect behind the paper's Mcf curves (Figures 9 and 16).
// The dominant branch is taken with p = 0.95 for the first 20,000 of
// 400,000 iterations and with p = 0.10 afterwards. An initial profile
// predicts the run only when its freeze window [T, 2T] reaches past the
// phase change.
func ExampleRunBenchmark() {
	const boundary = 20000
	res, err := RunBenchmark(BuildFromAsm("phases", phasedSrc(400000, boundary, 7782, 819)),
		Options{Thresholds: []uint64{100, 1000, 5000, 10000, 20000, 50000}})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res.PerT {
		window := "counters still carry the early phase"
		switch {
		case 2*r.T <= boundary:
			window = "window inside the early phase"
		case r.T >= 2*boundary:
			window = "late samples dominate the counters"
		}
		fmt.Printf("T=%-6d Sd.BP %.4f  mismatch %5.1f%%  %s\n", r.T, r.Summary.SdBP, r.Summary.BPMismatch*100, window)
	}
	// Output:
	// T=100    Sd.BP 0.5309  mismatch  31.2%  window inside the early phase
	// T=1000   Sd.BP 0.5307  mismatch  31.2%  window inside the early phase
	// T=5000   Sd.BP 0.5304  mismatch  31.2%  window inside the early phase
	// T=10000  Sd.BP 0.5304  mismatch  31.2%  window inside the early phase
	// T=20000  Sd.BP 0.2597  mismatch  33.3%  counters still carry the early phase
	// T=50000  Sd.BP 0.0866  mismatch   0.0%  late samples dominate the counters
}
