package dbt

import (
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/perfmodel"
)

// Hot-loop microbenchmarks: block execution through the lowered arena
// and RunMulti's batched follower replay, over two guest shapes — loop-heavy (long straight-line bodies, dispatch
// cost amortized over many instructions per block) and branch-heavy
// (short blocks, dispatch and successor resolution dominate). They make
// hot-loop wins measurable in seconds instead of a full-suite study:
//
//	go test ./internal/dbt -run '^$' -bench 'Exec|RunMulti' -benchtime 2s
//
// All of them report blocks/s, the study's headline throughput metric.

// buildLoopHeavy returns a guest spending its time in one long
// straight-line loop body: 16 ALU instructions per iteration and a
// single backward conditional.
func buildLoopHeavy(tb testing.TB, iters int32) *guest.Image {
	tb.Helper()
	src := `
.entry main
main:
	loadi r0, 0
	loadi r14, 0
	loadi r10, ` + itoa(iters) + `
loop:
	addi r1, r1, 1
	addi r2, r2, 3
	add r3, r1, r2
	sub r4, r3, r1
	xor r5, r3, r4
	and r6, r5, r3
	or r7, r6, r1
	addi r7, r7, 5
	shl r8, r1, r0
	shr r9, r3, r0
	mul r11, r1, r2
	add r12, r11, r7
	sub r12, r12, r9
	xor r13, r12, r8
	addi r13, r13, 9
	add r15, r13, r5
	addi r14, r14, 1
	blt r14, r10, loop
	halt
`
	img, err := guest.Assemble(src)
	if err != nil {
		tb.Fatalf("Assemble: %v", err)
	}
	return img
}

// buildBranchHeavy returns a guest spending its time bouncing between
// tiny blocks: a tape-driven diamond plus a call/return pair per
// iteration, so block dispatch, successor chaining and the indirect
// return path all stay on the critical path.
func buildBranchHeavy(tb testing.TB, iters int32) *guest.Image {
	tb.Helper()
	src := `
.entry main
main:
	loadi r14, 0
	loadi r6, 4096
	loadi r10, ` + itoa(iters) + `
loop:
	in r1
	blt r1, r6, taken
	addi r2, r2, 1
	jmp join
taken:
	addi r3, r3, 1
join:
	call leaf
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

// buildWide returns a guest whose loop body is a chain of diamonds,
// three distinct blocks each: with diamonds 667 it reaches about 2,000
// blocks, as many as the largest spec benchmark at the study's
// benchmark scale, so translating them shows next to the replay. Each
// diamond's branch reads the tape.
func buildWide(tb testing.TB, diamonds int, iters int32) *guest.Image {
	tb.Helper()
	var src strings.Builder
	src.WriteString(`
.entry main
main:
	loadi r14, 0
	loadi r6, 4096
	loadi r10, ` + itoa(iters) + `
loop:
`)
	for k := int32(0); k < int32(diamonds); k++ {
		t, j := "t"+itoa(k), "j"+itoa(k)
		src.WriteString("\tin r1\n\tblt r1, r6, " + t + "\n\taddi r2, r2, 1\n\tjmp " + j + "\n" +
			t + ":\n\taddi r3, r3, 1\n" + j + ":\n")
	}
	src.WriteString("\taddi r14, r14, 1\n\tblt r14, r10, loop\n\thalt\n")
	img, err := guest.Assemble(src.String())
	if err != nil {
		tb.Fatalf("Assemble: %v", err)
	}
	return img
}

// benchRunOne measures serial Run throughput for one guest.
func benchRunOne(b *testing.B, img *guest.Image) {
	b.ReportAllocs()
	var blocks uint64
	for i := 0; i < b.N; i++ {
		_, stats, err := Run(img, interp.NewUniformTape("bench/ref"), Config{
			Optimize:  true,
			Threshold: 4096,
		})
		if err != nil {
			b.Fatal(err)
		}
		blocks += stats.BlocksExecuted
	}
	b.ReportMetric(float64(blocks)/b.Elapsed().Seconds(), "blocks/s")
}

// BenchmarkExecBlock exercises block execution through the lowered
// arena (execBlock).
func BenchmarkExecBlock(b *testing.B) {
	b.Run("loop_heavy", func(b *testing.B) { benchRunOne(b, buildLoopHeavy(b, 200_000)) })
	b.Run("branch_heavy", func(b *testing.B) { benchRunOne(b, buildBranchHeavy(b, 100_000)) })
}

// benchRunMulti measures shared-trace throughput with one driver plus
// followers at a ladder of thresholds, the study's actual execution
// shape: every config carries a perf accumulator, as the study's do, and
// each follower i samples at periods[i % len(periods)] (nil: full
// instrumentation). Reported blocks/s sums over every profiling context
// advanced (driver + followers), matching how the study's Perf
// aggregates; ns/context-block is its inverse, the wall time one
// context spends per block, guest execution included.
func benchRunMulti(b *testing.B, img *guest.Image, followers int, periods []uint64) {
	b.ReportAllocs()
	cfgs := make([]Config, 1+followers)
	cfgs[0] = Config{Optimize: false} // AVEP driver
	for i := 1; i < len(cfgs); i++ {
		cfgs[i] = Config{Optimize: true, Threshold: uint64(64 << (uint(i-1) % 8))}
		if len(periods) > 0 {
			cfgs[i].SamplePeriod = periods[(i-1)%len(periods)]
		}
	}
	var blocks uint64
	// Building the guest stays out of the time and allocation counts.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cfgs {
			cfgs[j].Perf = perfmodel.NewAccumulator(perfmodel.DefaultParams())
		}
		_, statss, err := RunMulti(img, interp.NewUniformTape("bench/ref"), cfgs)
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range statss {
			blocks += st.BlocksExecuted
		}
	}
	b.ReportMetric(float64(blocks)/b.Elapsed().Seconds(), "blocks/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(blocks), "ns/context-block")
}

// BenchmarkRunMulti measures batched follower replay at 0, 1, 4 and 16
// followers behind one driver, for both guest shapes, plus a sampled
// ladder: 8 followers alternating sample periods 4 and 16. followers_0
// is the lone AVEP driver of a compare or train run, where the driver's
// own inline profiling step costs the most. wide/followers_16 runs a
// few iterations over about 2,000 distinct blocks, so translation and
// wave work weigh in its allocs/op, which ci.sh gates against
// BENCH_floor.json: an allocation count does not depend on host speed.
func BenchmarkRunMulti(b *testing.B) {
	for _, n := range []int{0, 1, 4, 16} {
		n := n
		b.Run("loop_heavy/followers_"+itoa(int32(n)), func(b *testing.B) {
			benchRunMulti(b, buildLoopHeavy(b, 50_000), n, nil)
		})
		b.Run("branch_heavy/followers_"+itoa(int32(n)), func(b *testing.B) {
			benchRunMulti(b, buildBranchHeavy(b, 25_000), n, nil)
		})
	}
	b.Run("sampled/followers_8", func(b *testing.B) {
		benchRunMulti(b, buildBranchHeavy(b, 25_000), 8, []uint64{4, 16})
	})
	b.Run("wide/followers_16", func(b *testing.B) {
		benchRunMulti(b, buildWide(b, 667, 20), 16, nil)
	})
}
