package repro

import (
	"reflect"
	"testing"

	"repro/internal/dbt"
	"repro/internal/interp"
	"repro/internal/perfmodel"
	"repro/internal/profile"
	"repro/internal/spec"
)

// equivalenceScale keeps the full-suite cross-validation fast while
// still exercising millions of dynamic blocks per benchmark class.
const equivalenceScale = 0.02

// edgeKey identifies one control-flow edge between block entries.
type edgeKey struct{ from, to int }

// TestFastPathMatchesReferenceInterpreter runs every synthetic SPEC
// benchmark through the translator's pre-lowered execution path and
// through the reference interpreter, and asserts identical final
// architectural state and instruction/block counts. The unoptimized
// runs (ref and train) also match per-block use/taken profiling
// counters, reconstructed from the interpreter's block-entry sequence.
func TestFastPathMatchesReferenceInterpreter(t *testing.T) {
	for _, b := range spec.Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for _, c := range []struct {
				name string
				cfg  dbt.Config
			}{
				{"ref", dbt.Config{Input: "ref"}},
				{"train", dbt.Config{Input: "train"}},
			} {
				img, tape, err := b.Build(c.cfg.Input, equivalenceScale)
				if err != nil {
					t.Fatalf("build %s: %v", c.name, err)
				}
				m, err := interp.NewMachine(img, tape)
				if err != nil {
					t.Fatalf("NewMachine: %v", err)
				}
				entries := make(map[int]uint64)
				edges := make(map[edgeKey]uint64)
				prev := -1
				m.BlockHook = func(pc int) {
					entries[pc]++
					if prev >= 0 {
						edges[edgeKey{prev, pc}]++
					}
					prev = pc
				}
				if err := m.Run(); err != nil {
					t.Fatalf("machine run (%s): %v", c.name, err)
				}

				img2, tape2, err := b.Build(c.cfg.Input, equivalenceScale)
				if err != nil {
					t.Fatalf("rebuild %s: %v", c.name, err)
				}
				eng, err := dbt.New(img2, tape2, c.cfg)
				if err != nil {
					t.Fatalf("dbt.New: %v", err)
				}
				snap, stats, err := eng.Run()
				if err != nil {
					t.Fatalf("dbt run (%s): %v", c.name, err)
				}

				// Final architectural state must be bit-identical.
				mst, dst := m.State(), eng.State()
				if mst.Regs != dst.Regs {
					t.Fatalf("%s: registers diverge\ninterp: %v\n   dbt: %v", c.name, mst.Regs, dst.Regs)
				}
				if !reflect.DeepEqual(mst.Mem, dst.Mem) {
					t.Fatalf("%s: memory diverges", c.name)
				}
				if !reflect.DeepEqual(mst.Ret, dst.Ret) {
					t.Fatalf("%s: return stacks diverge: %v vs %v", c.name, mst.Ret, dst.Ret)
				}
				if m.Steps() != stats.Instructions {
					t.Fatalf("%s: instruction counts diverge: interp %d, dbt %d", c.name, m.Steps(), stats.Instructions)
				}
				if m.Blocks() != stats.BlocksExecuted {
					t.Fatalf("%s: block counts diverge: interp %d, dbt %d", c.name, m.Blocks(), stats.BlocksExecuted)
				}
				// Per-block profiling counters: the unoptimized run never
				// freezes, so every block's use count must equal the
				// interpreter's entry count at that address, and its
				// taken count the number of times the taken edge fired.
				for addr, blk := range snap.Blocks {
					if blk.Use != entries[addr] {
						t.Errorf("%s: block %d use=%d, interpreter entered it %d times", c.name, addr, blk.Use, entries[addr])
					}
					var wantTaken uint64
					if blk.HasBranch {
						wantTaken = edges[edgeKey{addr, blk.TakenTarget}]
					}
					if blk.Taken != wantTaken {
						t.Errorf("%s: block %d taken=%d, want %d", c.name, addr, blk.Taken, wantTaken)
					}
				}
				// And nothing entered by the interpreter is missing from
				// the profile.
				for addr, n := range entries {
					if snap.Blocks[addr] == nil {
						t.Errorf("%s: interpreter entered block %d (%d times) missing from snapshot", c.name, addr, n)
					}
				}
			}
		})
	}
}

// TestFastPathMatchesGenericDispatch runs the suite's reference input
// under a full optimizing configuration (threshold 100, register-twice,
// the perf model on, so waves, freezing and regions all fire) through
// the translator's pre-lowered blocks, and through interp.Machine, which
// dispatches every instruction through the generic interp.Exec switch.
// Final architectural state and instruction/block counts must agree, and
// a second translator run must reproduce the first run's snapshot and
// statistics exactly.
func TestFastPathMatchesGenericDispatch(t *testing.T) {
	for _, b := range spec.Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			img, tape, err := b.Build("ref", equivalenceScale)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			m, err := interp.NewMachine(img, tape)
			if err != nil {
				t.Fatalf("NewMachine: %v", err)
			}
			if err := m.Run(); err != nil {
				t.Fatalf("machine run: %v", err)
			}

			run := func() (*dbt.Engine, *profile.Snapshot, dbt.RunStats) {
				img, tape, err := b.Build("ref", equivalenceScale)
				if err != nil {
					t.Fatalf("rebuild: %v", err)
				}
				eng, err := dbt.New(img, tape, dbt.Config{Input: "ref", Threshold: 100, Optimize: true,
					RegisterTwice: true, Perf: perfmodel.NewAccumulator(perfmodel.DefaultParams())})
				if err != nil {
					t.Fatalf("dbt.New: %v", err)
				}
				snap, stats, err := eng.Run()
				if err != nil {
					t.Fatalf("dbt run: %v", err)
				}
				return eng, snap, *stats
			}
			eng, snap, stats := run()
			if stats.OptimizationWaves == 0 || stats.RegionsFormed == 0 {
				t.Fatalf("no waves or regions (%+v); the run does not test optimized execution", stats)
			}

			mst, dst := m.State(), eng.State()
			if mst.Regs != dst.Regs {
				t.Fatalf("registers diverge\ninterp: %v\n   dbt: %v", mst.Regs, dst.Regs)
			}
			if !reflect.DeepEqual(mst.Mem, dst.Mem) {
				t.Fatalf("memory diverges")
			}
			if !reflect.DeepEqual(mst.Ret, dst.Ret) {
				t.Fatalf("return stacks diverge: %v vs %v", mst.Ret, dst.Ret)
			}
			if m.Steps() != stats.Instructions {
				t.Fatalf("instruction counts diverge: interp %d, dbt %d", m.Steps(), stats.Instructions)
			}
			if m.Blocks() != stats.BlocksExecuted {
				t.Fatalf("block counts diverge: interp %d, dbt %d", m.Blocks(), stats.BlocksExecuted)
			}

			_, snap2, stats2 := run()
			if !reflect.DeepEqual(snap, snap2) {
				t.Fatalf("optimizing run is not reproducible: snapshots differ")
			}
			if !reflect.DeepEqual(stats, stats2) {
				t.Fatalf("optimizing run is not reproducible: stats %+v vs %+v", stats, stats2)
			}
		})
	}
}
