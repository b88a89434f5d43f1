package dbt

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/profile"
)

// Differential testing of sampled profiling: random small guest
// programs run under full instrumentation and under every stride phase
// of a random sampling period. With optimization off nothing feeds the
// counters back into execution, so the block-event stream is identical
// across all of them and the sampled counters must be an exact
// decimation of the full-instrumentation counts: each event lands in
// exactly one phase class, so the per-block raw counts summed over all
// phases reproduce the full counts — no slack, no rounding.
// FuzzSampledReplay explores the program × period space under the
// fuzzer; TestSampledReplayRandom pins seeded programs of the same
// generator as a deterministic regression suite.

// runSampled executes the image with the given config and returns the
// engine, its snapshot (nil on fault) and the fault message.
func runSampled(tb testing.TB, img *guest.Image, cfg Config) (*Engine, *profile.Snapshot, string) {
	tb.Helper()
	e, err := New(img, interp.NewUniformTape("fuzz/ref"), cfg)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	snap, _, rerr := e.Run()
	msg := ""
	if rerr != nil {
		msg = rerr.Error()
	}
	return e, snap, msg
}

// phaseSeeds finds, deterministically, one SampleSeed per stride phase
// in [0, period): the phase is splitmix64(seed) % period, so a short
// scan of small seeds covers every class.
func phaseSeeds(t *testing.T, period uint64) []uint64 {
	t.Helper()
	seeds := make([]uint64, period)
	found := make([]bool, period)
	n := uint64(0)
	for seed := uint64(0); n < period && seed < 1024; seed++ {
		ph := splitmix64(seed) % period
		if !found[ph] {
			found[ph] = true
			seeds[ph] = seed
			n++
		}
	}
	if n < period {
		t.Fatalf("no seeds found for all %d phases", period)
	}
	return seeds
}

// checkSampledReplay runs one random program at one sampling period and
// asserts the decimation identity plus the surrounding invariants:
// sampling never changes execution (faults, architectural state, run
// stats), scaled counters are exact multiples of the period, the
// phase-partitioned raw counts sum to the full-instrumentation counts,
// period 1 is bit-identical to period 0, and a rerun with the same seed
// reproduces the sampled snapshot.
func checkSampledReplay(t *testing.T, data []byte, period uint64) {
	img := buildFuzzProgram(data)
	if img == nil {
		return
	}
	base := Config{Input: "ref", TrapAfter: fuzzBudget}

	fullEng, fullSnap, fullErr := runSampled(t, img, base)

	// Period 1 must be bit-identical to period 0: the sampling guard
	// treats both as full instrumentation.
	oneCfg := base
	oneCfg.SamplePeriod = 1
	oneCfg.SampleSeed = 12345
	_, oneSnap, oneErr := runSampled(t, img, oneCfg)
	if oneErr != fullErr {
		t.Fatalf("period-1 fault %q, full %q\nprogram:\n%s", oneErr, fullErr, img.Disassemble())
	}
	if fullErr == "" && !reflect.DeepEqual(oneSnap, fullSnap) {
		t.Fatalf("period-1 snapshot differs from full instrumentation\nprogram:\n%s", img.Disassemble())
	}

	sumUse := map[int]uint64{}
	sumTaken := map[int]uint64{}
	var sumOps uint64
	for ph, seed := range phaseSeeds(t, period) {
		cfg := base
		cfg.SamplePeriod = period
		cfg.SampleSeed = seed
		eng, snap, errMsg := runSampled(t, img, cfg)

		// Sampling must be invisible to execution: same fault, same
		// architectural state, same run stats.
		if errMsg != fullErr {
			t.Fatalf("phase %d: fault %q, full %q\nprogram:\n%s", ph, errMsg, fullErr, img.Disassemble())
		}
		fs, gs := fullEng.State(), eng.State()
		if fs.Regs != gs.Regs || !reflect.DeepEqual(fs.Mem, gs.Mem) {
			t.Fatalf("phase %d: architectural state diverged under sampling\nprogram:\n%s", ph, img.Disassemble())
		}
		if fullErr != "" {
			continue // errored runs publish no snapshot
		}
		if !reflect.DeepEqual(eng.stats, fullEng.stats) {
			t.Fatalf("phase %d: run stats diverged under sampling:\nsampled: %+v\nfull: %+v\nprogram:\n%s",
				ph, eng.stats, fullEng.stats, img.Disassemble())
		}

		// Same seed, same everything: the snapshot is a pure function
		// of (image, tape, Config).
		_, againSnap, againErr := runSampled(t, img, cfg)
		if againErr != errMsg || !reflect.DeepEqual(againSnap, snap) {
			t.Fatalf("phase %d: a rerun changed the sampled snapshot\nprogram:\n%s", ph, img.Disassemble())
		}

		// Scaled counters are raw counts times the period, exactly.
		if len(snap.Blocks) != len(fullSnap.Blocks) {
			t.Fatalf("phase %d: %d blocks, full run has %d\nprogram:\n%s",
				ph, len(snap.Blocks), len(fullSnap.Blocks), img.Disassemble())
		}
		for addr, blk := range snap.Blocks {
			if blk.Use%period != 0 || blk.Taken%period != 0 {
				t.Fatalf("phase %d: block %d counters (%d, %d) not multiples of period %d\nprogram:\n%s",
					ph, addr, blk.Use, blk.Taken, period, img.Disassemble())
			}
			sumUse[addr] += blk.Use / period
			sumTaken[addr] += blk.Taken / period
		}
		if snap.ProfilingOps > fullSnap.ProfilingOps {
			t.Fatalf("phase %d: sampled run performed %d profiling ops, full run only %d\nprogram:\n%s",
				ph, snap.ProfilingOps, fullSnap.ProfilingOps, img.Disassemble())
		}
		sumOps += snap.ProfilingOps
	}
	if fullErr != "" {
		return
	}

	// The decimation identity: every block event lands in exactly one
	// phase class, so the raw sampled counts summed over all phases are
	// the full-instrumentation counts — for every block, both counters,
	// and the total counter-update cost.
	for addr, blk := range fullSnap.Blocks {
		if sumUse[addr] != blk.Use || sumTaken[addr] != blk.Taken {
			t.Fatalf("decimation mismatch at block %d: phases sum to (%d, %d), full counts (%d, %d)\nprogram:\n%s",
				addr, sumUse[addr], sumTaken[addr], blk.Use, blk.Taken, img.Disassemble())
		}
	}
	if sumOps != fullSnap.ProfilingOps {
		t.Fatalf("decimation mismatch: phases performed %d profiling ops, full run %d\nprogram:\n%s",
			sumOps, fullSnap.ProfilingOps, img.Disassemble())
	}

	// With optimization on, sampling may legitimately move registration
	// and freezing — but execution semantics must survive: same fault,
	// same architectural state.
	optFull := Config{Input: "ref", Optimize: true, Threshold: 8, PoolTrigger: 2,
		RegisterTwice: true, TrapAfter: fuzzBudget}
	optSampled := optFull
	optSampled.SamplePeriod = period
	fe, _, ferr := runSampled(t, img, optFull)
	se, sSnap, serr := runSampled(t, img, optSampled)
	if ferr != serr {
		t.Fatalf("optimized fault mismatch: full %q, sampled %q\nprogram:\n%s", ferr, serr, img.Disassemble())
	}
	if fs, ss := fe.State(), se.State(); fs.Regs != ss.Regs || !reflect.DeepEqual(fs.Mem, ss.Mem) {
		t.Fatalf("optimized architectural state diverged under sampling\nprogram:\n%s", img.Disassemble())
	}

	// The strided replay: the optimized sampled config as a follower
	// behind the full driver reports exactly its serial run.
	snaps, statss, err := RunMulti(img, interp.NewUniformTape("fuzz/ref"), []Config{optFull, optSampled})
	if errString(err) != serr {
		t.Fatalf("sampled follower error %q, serial %q\nprogram:\n%s", errString(err), serr, img.Disassemble())
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(*statss[1], se.stats) {
		t.Fatalf("sampled follower stats differ from serial\n got: %+v\nwant: %+v\nprogram:\n%s", *statss[1], se.stats, img.Disassemble())
	}
	if !reflect.DeepEqual(snaps[1], sSnap) {
		t.Fatalf("sampled follower snapshot differs from serial\nprogram:\n%s", img.Disassemble())
	}
}

// fuzzPeriod derives a sampling period in [2, 9] from the byte stream,
// so the fuzzer explores periods alongside programs.
func fuzzPeriod(data []byte) uint64 {
	var b byte
	if len(data) > 0 {
		b = data[len(data)-1]
	}
	return 2 + uint64(b%8)
}

// FuzzSampledReplay is the differential fuzz target for sampled
// profiling: any byte stream builds some program and period, and the
// sampled counters must be an exact phase-decimation of the
// full-instrumentation counts without perturbing execution.
func FuzzSampledReplay(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{3, 5, 0, 1, 2, 3, 4, 5, 6, 7, 250, 1, 9, 9, 30, 40})
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 8+rng.Intn(56))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		checkSampledReplay(t, data, fuzzPeriod(data))
	})
}

// TestSampledReplayRandom pins the decimation differential on seeded
// random programs in every plain `go test`, cycling the period through
// the whole fuzzed range.
func TestSampledReplayRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 150; i++ {
		data := make([]byte, 4+rng.Intn(120))
		rng.Read(data)
		checkSampledReplay(t, data, 2+uint64(i%8))
	}
}
