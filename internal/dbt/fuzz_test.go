package dbt

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/isa"
)

// Differential testing of the execution path: random small guest
// programs run through the engine's lowered execution and through the
// reference interpreter (interp.Machine), which must agree on
// architectural state, instruction and block counts, faults and the
// resolved branch stream; and through shared-trace followers, which
// must match a serial run. FuzzExecPaths explores the program space
// under the fuzzer; TestExecPathsRandom pins 300 seeded programs of the
// same generator as a deterministic regression suite.

// progGen derives program-construction decisions from a byte stream,
// yielding zeros once the stream is exhausted (which steers every
// terminator to halt, so generation always ends).
type progGen struct {
	data []byte
	i    int
}

func (g *progGen) next() byte {
	if g.i >= len(g.data) {
		return 0
	}
	b := g.data[g.i]
	g.i++
	return b
}

// buildFuzzProgram turns a byte stream into a valid SG32 image: a
// handful of labeled segments with data-driven bodies (ALU, memory,
// tape input, floats) and terminators covering every lowered class —
// conditional branches, jumps, calls, returns, indirect jumps through
// already-bound labels, and halt. Faulting programs (out-of-bounds
// memory, stray ret, infinite loops hitting the fuzzBudget trap) are
// deliberately reachable: the engine must report the interpreter's
// fault, or trap where a bounded interpreter run stops. Returns nil if
// the builder rejects the program (branch offset overflow), which the
// callers skip.
func buildFuzzProgram(data []byte) *guest.Image {
	g := &progGen{data: data}
	b := guest.NewBuilder("fuzz")
	nseg := 2 + int(g.next()%5)
	labels := make([]guest.Label, nseg)
	for i := range labels {
		labels[i] = b.NewLabel("seg")
	}
	b.ReserveData(16)
	b.SetEntry(labels[0])
	starts := make([]int, nseg)

	aluOps := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpShl, isa.OpShr}
	brOps := []isa.Op{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge}

	for s := 0; s < nseg; s++ {
		starts[s] = b.PC()
		b.Bind(labels[s])
		for n := int(g.next() % 7); n > 0; n-- {
			sel := g.next()
			rd, rs, rt := g.next()&15, g.next()&15, g.next()&15
			switch sel % 8 {
			case 0, 1, 2:
				b.Emit(isa.Inst{Op: aluOps[int(sel)%len(aluOps)], Rd: rd, Rs: rs, Rt: rt})
			case 3:
				b.Emit(isa.Inst{Op: isa.OpAddi, Rd: rd, Rs: rs, Imm: int32(int8(g.next()))})
			case 4:
				b.Emit(isa.Inst{Op: isa.OpLoadi, Rd: rd, Imm: int32(int8(g.next()))})
			case 5:
				// Offsets straddle the 16-word data segment so some
				// accesses fault; the fault must match the interpreter's.
				op := isa.OpLoad
				if sel&8 != 0 {
					op = isa.OpStore
				}
				b.Emit(isa.Inst{Op: op, Rd: rd, Rs: rs, Rt: rt, Imm: int32(g.next()%24) - 4})
			case 6:
				b.In(rd)
			case 7:
				fops := []isa.Op{isa.OpFadd, isa.OpFmul, isa.OpFdiv, isa.OpNop, isa.OpMov, isa.OpLuhi}
				b.Emit(isa.Inst{Op: fops[int(g.next())%len(fops)], Rd: rd, Rs: rs, Rt: rt})
			}
		}
		tgt := labels[int(g.next())%nseg]
		switch g.next() % 8 {
		case 0, 1:
			b.Branch(brOps[int(g.next())%len(brOps)], g.next()&15, g.next()&15, tgt)
		case 2:
			b.Jump(tgt)
		case 3:
			b.Call(tgt)
		case 4:
			b.Ret()
		case 5:
			// Indirect jump to an already-bound segment: the target
			// address is known, so it can be materialized for jr.
			t := int(g.next()) % (s + 1)
			b.LoadImm(9, int32(starts[t]))
			b.JumpIndirect(9, labels[t])
		default:
			b.Emit(isa.Inst{Op: isa.OpHalt})
		}
	}
	b.Emit(isa.Inst{Op: isa.OpHalt})
	img, err := b.Build()
	if err != nil {
		return nil
	}
	return img
}

// fuzzBudget bounds divergent random programs: every run traps at this
// block (Config.TrapAfter).
const fuzzBudget = 20_000

// fuzzConfig is the tight optimization configuration the random
// programs run under: a low threshold and pool trigger, so waves,
// freezing and region tracking all fire even in tiny programs.
func fuzzConfig() Config {
	return Config{
		Input:         "ref",
		Optimize:      true,
		Threshold:     8,
		PoolTrigger:   2,
		RegisterTwice: true,
		TrapAfter:     fuzzBudget,
	}
}

// errString is err's message, or "" for nil.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// refRun is the reference interpreter's run of a program, stopped where
// an engine with TrapAfter fuzzBudget stops: at the guest's halt or
// fault, or, when the engine traps, at the entry of the trapped block.
type refRun struct {
	m       *interp.Machine
	err     error // Machine.Run's (ErrMaxSteps when trapped)
	trapped bool
	// entries is the block-entry sequence, in execution order.
	entries []int
}

// runReference runs img on interp.Machine up to the engine's stop. A
// trapped engine executes the fuzzBudget-1 blocks before the trap, so a
// first pass reads the instruction count at the trapped block's entry
// through BlockHook, and the recorded run stops there with MaxSteps.
func runReference(tb testing.TB, img *guest.Image) refRun {
	tb.Helper()
	machine := func() *interp.Machine {
		m, err := interp.NewMachine(img, interp.NewUniformTape("fuzz/ref"))
		if err != nil {
			tb.Fatalf("NewMachine: %v", err)
		}
		return m
	}
	var r refRun
	var at uint64
	probe := machine()
	probe.BlockHook = func(int) {
		if probe.Blocks() == fuzzBudget {
			// Stop the probe one instruction into the trapped block.
			r.trapped, at = true, probe.Steps()
			probe.MaxSteps = at + 1
		}
	}
	// How the probe ends does not matter, only whether and where it
	// entered the trapped block.
	_ = probe.Run()
	r.m = machine()
	if r.trapped {
		r.m.MaxSteps = at
	}
	r.m.BlockHook = func(pc int) { r.entries = append(r.entries, pc) }
	r.err = r.m.Run()
	if r.trapped && !errors.Is(r.err, interp.ErrMaxSteps) {
		tb.Fatalf("bounded reference run ended with %v, want the step budget", r.err)
	}
	return r
}

// branches rebuilds the resolved conditional branch stream from the
// block-entry sequence: an entered branch block went taken exactly when
// the next block entered is its taken target. A trapped run's last
// block continues at the machine's pc; a halting or faulting last block
// resolves nothing.
func (r refRun) branches(tb testing.TB, img *guest.Image) []BranchEvent {
	var evs []BranchEvent
	for i, pc := range r.entries {
		next := r.m.PC()
		if i+1 < len(r.entries) {
			next = r.entries[i+1]
		} else if !r.trapped {
			break
		}
		for end := pc; ; end++ {
			in, err := isa.Decode(img.Code[end])
			if err != nil {
				tb.Fatal(err)
			}
			if in.Op.EndsBlock() {
				if in.Op.IsCondBranch() {
					evs = append(evs, BranchEvent{PC: int32(pc), Taken: next == end+int(in.Imm)})
				}
				break
			}
		}
	}
	return evs
}

// checkFollowerPaths replays the program through shared-trace followers:
// behind an AVEP driver with the same trap, the optimizing config, a
// sampled one and an adaptive one must each report exactly what a
// serial run of that config reports — snapshot, statistics and error.
func checkFollowerPaths(t *testing.T, img *guest.Image) {
	sampled, adaptive := fuzzConfig(), fuzzConfig()
	sampled.SamplePeriod, sampled.SampleSeed = 4, 1
	adaptive.Adaptive, adaptive.AdaptiveMinEntries = true, 4
	for i, cfg := range []Config{fuzzConfig(), sampled, adaptive} {
		cfgs := withPerf([]Config{{TrapAfter: fuzzBudget}, cfg})
		snaps, statss, err := RunMulti(img, interp.NewUniformTape("fuzz/ref"), cfgs)
		wantSnap, wantStats, wantErr := Run(img, interp.NewUniformTape("fuzz/ref"), withPerf(cfgs[1:])[0])
		if errString(err) != errString(wantErr) {
			t.Fatalf("follower config %d: error %q, serial %q\nprogram:\n%s", i, errString(err), errString(wantErr), img.Disassemble())
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(statss[1], wantStats) {
			t.Fatalf("follower config %d: stats differ from serial\n got: %+v\nwant: %+v\nprogram:\n%s", i, statss[1], wantStats, img.Disassemble())
		}
		if !reflect.DeepEqual(snaps[1], wantSnap) {
			t.Fatalf("follower config %d: snapshot differs from serial\nprogram:\n%s", i, img.Disassemble())
		}
	}
}

// checkExecPaths runs the program on the engine and on the reference
// interpreter and asserts full agreement, then replays it through
// shared-trace followers (checkFollowerPaths).
func checkExecPaths(t *testing.T, data []byte) {
	img := buildFuzzProgram(data)
	if img == nil {
		return
	}
	e, err := New(img, interp.NewUniformTape("fuzz/ref"), fuzzConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, _, runErr := e.Run()
	ref := runReference(t, img)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf(format+"\nprogram:\n%s", append(args, img.Disassemble())...)
	}
	var fault *interp.Fault
	switch {
	case ref.trapped:
		if want := fmt.Sprintf("dbt: injected guest trap at block %d", fuzzBudget); errString(runErr) != want {
			fail("engine error %q, want %q", errString(runErr), want)
		}
	case runErr == nil || errors.As(runErr, &fault):
		if errString(runErr) != errString(ref.err) {
			fail("fault mismatch:\nengine: %q\ninterp: %q", errString(runErr), errString(ref.err))
		}
	default:
		fail("engine error %q is neither a trap nor an execution fault", runErr)
	}
	es, ms := e.State(), ref.m.State()
	if es.Regs != ms.Regs {
		fail("register mismatch:\nengine: %v\ninterp: %v", es.Regs, ms.Regs)
	}
	if !reflect.DeepEqual(es.Mem, ms.Mem) {
		fail("memory mismatch:\nengine: %v\ninterp: %v", es.Mem, ms.Mem)
	}
	if !reflect.DeepEqual(es.Ret, ms.Ret) {
		fail("return-stack mismatch:\nengine: %v\ninterp: %v", es.Ret, ms.Ret)
	}
	// The engine counts the block its trap stops, which does not run.
	wantBlocks := ref.m.Blocks()
	if ref.trapped {
		wantBlocks++
	}
	if e.stats.BlocksExecuted != wantBlocks {
		fail("block counts diverge: engine %d, interp %d", e.stats.BlocksExecuted, wantBlocks)
	}
	// An errored run's instruction sum is not flushed.
	if runErr == nil && e.stats.Instructions != ref.m.Steps() {
		fail("instruction counts diverge: engine %d, interp %d", e.stats.Instructions, ref.m.Steps())
	}
	checkFollowerPaths(t, img)
}

// FuzzExecPaths is the fuzz entry: any byte stream builds some program,
// and the engine must agree with the reference interpreter on it
// exactly.
func FuzzExecPaths(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{3, 5, 0, 1, 2, 3, 4, 5, 6, 7, 250, 1, 9, 9, 30, 40})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 8+rng.Intn(56))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		checkExecPaths(t, data)
	})
}

// TestExecPathsRandom pins the differential check on 300 seeded random
// programs, so the cross-validation runs in every plain `go test`, not
// only under the fuzzer.
func TestExecPathsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		data := make([]byte, 4+rng.Intn(120))
		rng.Read(data)
		checkExecPaths(t, data)
	}
}

// branchLog records the observed branch stream (what predictors
// consume) for differential comparison with the reference interpreter.
type branchLog struct {
	events []BranchEvent
}

func (l *branchLog) ObserveBranches(evs []BranchEvent) {
	l.events = append(l.events, evs...)
}

// checkPredictReplay runs one random program with a trace observer
// attached and asserts the observed branch stream is the one the
// reference interpreter's block-entry sequence implies — the
// determinism contract every dynamic predictor's tallies rest on. The
// observed run must also leave snapshots and stats exactly as an
// unobserved run would.
func checkPredictReplay(t *testing.T, data []byte) {
	img := buildFuzzProgram(data)
	if img == nil {
		return
	}
	run := func(observed bool) (*branchLog, []*RunStats, string) {
		log := &branchLog{}
		var obs []TraceObserver
		if observed {
			obs = []TraceObserver{log}
		}
		_, stats, err := RunMultiObserved(img, interp.NewUniformTape("fuzz/ref"), []Config{fuzzConfig()}, obs)
		return log, stats, errString(err)
	}

	log, stats, runErr := run(true)
	if want := runReference(t, img).branches(t, img); !reflect.DeepEqual(log.events, want) {
		t.Fatalf("branch stream diverges from the reference interpreter (%d vs %d events)\nprogram:\n%s",
			len(log.events), len(want), img.Disassemble())
	}

	// Observation must be invisible: an unobserved run of the same
	// program reports identical stats.
	_, plainStats, plainErr := run(false)
	if plainErr != runErr {
		t.Fatalf("observer changed the run's fault: %q vs %q", plainErr, runErr)
	}
	if runErr == "" && !reflect.DeepEqual(stats, plainStats) {
		t.Fatalf("observer perturbed run stats:\nobserved: %+v\nplain: %+v", stats[0], plainStats[0])
	}
}

// FuzzPredictReplay is the differential fuzz target for the predictor
// observation layer, alongside FuzzExecPaths: any byte stream builds
// some program, and the branch stream predictors consume must be the
// reference interpreter's and invisible to the run itself.
func FuzzPredictReplay(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{3, 5, 0, 1, 2, 3, 4, 5, 6, 7, 250, 1, 9, 9, 30, 40})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 8+rng.Intn(56))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		checkPredictReplay(t, data)
	})
}

// TestPredictReplayRandom pins the replay differential on 300 seeded
// random programs in every plain `go test`.
func TestPredictReplayRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 300; i++ {
		data := make([]byte, 4+rng.Intn(120))
		rng.Read(data)
		checkPredictReplay(t, data)
	}
}
