// Shared-trace execution: because profiling state (counters, frozen
// flags, regions, perf charges) never feeds back into guest execution,
// every run of the same image over the same tape follows the identical
// block trace regardless of its threshold or optimization settings.
// RunMulti exploits this: it executes the guest once and replays each
// architectural outcome through any number of independent profiling
// engines, so an AVEP run and a whole INIP(T) ladder cost one execution
// plus N bookkeeping passes instead of N full runs.
//
// Every engine profiles a block through the same pieces (dbt.go): the
// counter body sampledEvent, registration when it asks, the cycle
// charge and, behind cursorDue, the region cursor. Two loops run them
// once per block, each piece inlined where it is small: fillBatch
// executes the guest and profiles its own context inline (the serial
// Run, and RunMulti's driver), and drainBatch replays a recorded batch
// through a follower (a sampled follower runs only the counter body on
// its sampled events; see below). Each follower keeps its own code
// cache, counters, region former and perf accumulator, so its snapshot,
// statistics and cycle totals are bit-for-bit what a serial Run with the
// same Config would have produced. Tests cross-validate this for every
// configuration class. A follower executes no guest code, so it builds
// no lowered code, and it resolves successors straight from its dense
// code cache instead of chaining. It decodes nothing either: it adopts
// the driver's translation of each block, copying the block's static
// fields out of the driver's code cache, so a shared trace decodes each
// guest block once. The driver executes every block through one path,
// the pre-lowered records of lower.go.
//
// Replay is batched: the driver records (nextPC, taken, halted)
// outcomes into a fixed buffer of replayBatch entries, together with
// the batch's sums that depend on the trace alone — instructions and
// successor probes — and the positions where the trace first reaches
// each block, so no context recomputes them per block. The taken bit is
// the edge the block left through, which every context would otherwise
// re-derive from the block's terminator.
// Each follower then drains the whole batch in one tight loop, summing
// its block charges in registers and handing them to its accumulator
// once per batch; the cycle model's integer sums make that exact.
// Nothing observable changes versus per-block interleaving: counters,
// wave timing and interrupt-poll cadence are all driven by each engine's
// own block count. What changes is locality: one follower's caches,
// counters and region state stay hot across thousands of entries
// instead of 1+N engines evicting each other every block. A batch that
// ends in an error is still drained by every follower, and RunMulti
// returns the error of the configuration that stops first in the trace
// (the lowest index on a tie): exactly what that configuration's serial
// run returns.
//
// A sampled follower (SamplePeriod > 1) drains a batch strided. A
// sampled engine keeps no cycle model and no region cursor, so between
// two sampled events its state changes only by the stride countdown,
// which is arithmetic, and by the translation of blocks the trace
// reaches for the first time, which a wave's region former can see. The
// follower visits only its sampled positions and, before each,
// translates the first occurrences recorded before it: every wave then
// sees the code cache a serial run's would, and a sampled context costs
// about 1/P of a full one.
package dbt

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/perfmodel"
	"repro/internal/profile"
)

// replayBatch is the outcome-buffer size of RunMulti's batched replay,
// aligned with the interrupt-poll period so the driver's poll cadence
// bounds how far execution runs ahead of follower bookkeeping.
const replayBatch = interruptCheckMask + 1

// outcome is one recorded architectural block outcome: everything a
// follower needs to advance its profiling state machine past one block.
// taken is the edge the block left through (always set for blocks
// without a conditional branch, whose one edge is the taken one), the
// comparison of nextPC with the block's taken target that every
// context would otherwise repeat. The record stays 8 bytes.
type outcome struct {
	nextPC int32
	taken  bool
	halted bool
}

// firstUse is one first occurrence of a block in the trace: the batch
// position of the outcome whose nextPC reached the untranslated block
// at pc. Every engine translates that block right after stepping that
// position, so the list is the same for all of them.
type firstUse struct {
	pos, pc int32
}

// batch is one stretch of the shared trace as fillBatch recorded it:
// the outcomes and first occurrences, plus the sums every context takes
// whole instead of recomputing them per block. All of them depend on
// the trace alone: instructions on the executed blocks, and the
// successor probes on chaining, which a serial run of any config does
// identically over these blocks.
type batch struct {
	outs                  []outcome
	firsts                []firstUse
	instructions, lookups uint64
}

// RunMulti executes the guest once and produces one profile snapshot
// and one statistics record per configuration, as if each configuration
// had been run serially with Run over an identical tape. The first
// configuration drives execution: its Interrupt governs the shared
// trace, and the tape is consumed by it alone. Every configuration's
// TrapAfter applies; the run returns the error of the one that stops
// first. All configurations must agree on what the guest does — they
// may differ in profiling settings (Threshold, Optimize, Perf,
// adaptive/convergence knobs) but not in anything architectural.
func RunMulti(img *guest.Image, tape interp.Tape, cfgs []Config) ([]*profile.Snapshot, []*RunStats, error) {
	return runMulti(img, tape, cfgs, nil)
}

// runMulti is the shared body of RunMulti and RunMultiObserved. With
// observers, each filled batch is additionally walked for resolved
// conditional branches (see observe.go) before the followers drain it;
// the walk reads only recorded outcomes and static block properties, so
// execution, profiling and statistics are untouched by it.
func runMulti(img *guest.Image, tape interp.Tape, cfgs []Config, observers []TraceObserver) ([]*profile.Snapshot, []*RunStats, error) {
	engines, err := runEngines(img, tape, cfgs, observers)
	if err != nil {
		return nil, nil, err
	}
	snaps := make([]*profile.Snapshot, len(engines))
	statss := make([]*RunStats, len(engines))
	for i, e := range engines {
		snaps[i], statss[i], _ = e.finish()
	}
	return snaps, statss, nil
}

// runEngines builds one engine per configuration, the first as driver
// and the rest as followers, and runs them over the shared trace to the
// guest's halt. On a stop error it still returns the engines, each as
// far as it got.
func runEngines(img *guest.Image, tape interp.Tape, cfgs []Config, observers []TraceObserver) ([]*Engine, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("dbt: RunMulti needs at least one config")
	}
	engines := make([]*Engine, len(cfgs))
	for i, cfg := range cfgs {
		var tp interp.Tape
		if i == 0 {
			tp = tape
		} else {
			// Followers never execute guest instructions, so they need
			// no tape and must not poll the interrupt channel (the
			// driver already does).
			cfg.Interrupt = nil
		}
		e, err := New(img, tp, cfg)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			e.shared = engines[0].cache
		}
		engines[i] = e
	}
	driver := engines[0]
	for _, e := range engines {
		if err := e.start(); err != nil {
			return nil, err
		}
	}
	followers := engines[1:]
	buf := make([]outcome, 0, replayBatch)
	var events []BranchEvent
	if len(observers) > 0 {
		events = make([]BranchEvent, 0, replayBatch)
	}
	for !driver.halted {
		// The batch's first block is the driver's cursor, which the
		// observer walk needs before fillBatch advances it.
		startPC := driver.cur.addr
		b, stopErr := driver.fillBatch(buf[:0])
		stopAt := driver.stats.BlocksExecuted
		if len(observers) > 0 {
			events = appendBranchEvents(events[:0], driver, startPC, b.outs)
			for _, o := range observers {
				o.ObserveBranches(events)
			}
		}
		// Drain it through each follower, even after a driver error: a
		// follower may stop earlier in the trace, and its serial run
		// would report that stop. The earliest stop wins, the lowest
		// index on a tie.
		for _, e := range followers {
			if err := e.drainBatch(&b); err != nil && (stopErr == nil || e.stats.BlocksExecuted < stopAt) {
				stopErr, stopAt = err, e.stats.BlocksExecuted
			}
		}
		if stopErr != nil {
			return engines, stopErr
		}
	}
	return engines, nil
}

// fillBatch executes the guest, recording outcomes into outs and the
// blocks it translates into e.firsts, until outs is full, the guest
// halts (e.halted), or the engine stops with an error. Per block it
// executes, resolves the successor through its chain and runs the
// engine's own profiling pieces. Both the serial Run loop and RunMulti's driver
// use it; the serial caller just discards the recorded batch.
func (e *Engine) fillBatch(outs []outcome) (batch, error) {
	limit := uint64(cap(outs))
	stop := e.batchStop(limit)
	// The interrupt channel is polled before the block whose count is a
	// multiple of the poll period; n never reaches a poll of 0.
	poll := uint64(0)
	if e.interrupt != nil {
		poll = interruptCheckMask + 1 - e.stats.BlocksExecuted&interruptCheckMask
	}
	var instr, lookups uint64
	var sums perfmodel.BlockSums
	e.firsts = e.firsts[:0]
	cache := e.cache
	cur := e.cur
	var n uint64
	var err error
	for n < stop {
		n++
		if n == poll {
			if err = e.pollInterrupt(); err != nil {
				break
			}
		}
		tb := cur
		var (
			nextPC int
			halted bool
		)
		if nextPC, halted, err = e.execBlock(tb); err != nil {
			break
		}
		instr += uint64(tb.ninsts)

		// Resolve the successor through the chain before profiling:
		// waves never translate or replace blocks, so the result is the
		// block the cursor would have found afterwards.
		takenEdge := !tb.hasBranch || nextPC == tb.takenTarget
		var next *tblock
		if takenEdge {
			if nb := tb.takenBlk; nb != nil && nb.addr == nextPC {
				next = nb
			}
		} else if nb := tb.fallBlk; nb != nil && nb.addr == nextPC {
			next = nb
		}
		if next == nil && tb.itab != nil {
			if nb := tb.itab[nextPC&(indirectWays-1)]; nb != nil && nb.addr == nextPC {
				next = nb
				tb.takenBlk = nb
			}
		}
		if next == nil {
			lookups++
			if uint(nextPC) < uint(len(cache)) {
				next = cache[nextPC]
			}
			if next != nil {
				e.chain(tb, takenEdge, next)
			}
		}
		if e.samplePeriod > 1 {
			e.sampleGap--
			if e.sampleGap == 0 {
				e.sampleGap = e.samplePeriod
				if e.sampledEvent(tb, takenEdge) {
					e.registration(tb)
				}
			}
		} else {
			if e.sampledEvent(tb, takenEdge) {
				e.registration(tb)
			}
			sums = e.charge(sums, tb)
			if e.cursorDue(next) && !e.followRegion(tb, takenEdge, next) {
				e.regionEdge(tb, next)
			}
		}

		outs = append(outs, outcome{nextPC: int32(nextPC), taken: takenEdge, halted: halted})
		if halted {
			e.halted = true
			break
		}
		if next == nil {
			e.firsts = append(e.firsts, firstUse{pos: int32(n - 1), pc: int32(nextPC)})
			if next, err = e.translate(nextPC); err != nil {
				break
			}
			e.chain(tb, takenEdge, next)
		}
		cur = next
	}
	b := batch{outs: outs, firsts: e.firsts, instructions: instr, lookups: lookups}
	return b, e.endBatch(cur, &b, sums, n, n == stop && stop < limit, err)
}

// drainBatch replays one recorded batch through a follower engine,
// running exactly the profiling a serial run would over the same
// blocks. It is the study's hottest loop — one call per follower per
// 4096 blocks — so besides the inlined profiling pieces a block costs
// one load: the successor comes from the dense code cache at the
// recorded nextPC, and the edge is the recorded taken bit. A serial
// run's chain hit always names that same block (blocks are never
// replaced) and its miss is a lookup of it, so no chain state is kept.
func (e *Engine) drainBatch(b *batch) error {
	if e.samplePeriod > 1 {
		return e.drainSampled(b)
	}
	limit := uint64(len(b.outs))
	stop := e.batchStop(limit)
	cache := e.cache
	cur := e.cur
	var sums perfmodel.BlockSums
	var n uint64
	var err error
	for _, o := range b.outs[:stop] {
		n++
		nextPC := int(o.nextPC)
		tb := cur
		var next *tblock
		if uint(nextPC) < uint(len(cache)) {
			next = cache[nextPC]
		}
		if e.sampledEvent(tb, o.taken) {
			e.registration(tb)
		}
		sums = e.charge(sums, tb)
		if e.cursorDue(next) && !e.followRegion(tb, o.taken, next) {
			e.regionEdge(tb, next)
		}
		if o.halted {
			// A halt is always the batch's final entry.
			e.halted = true
			break
		}
		if next == nil {
			// err is set only on the way out, so the loop does not
			// carry it.
			var terr error
			if next, terr = e.translate(nextPC); terr != nil {
				err = terr
				break
			}
		}
		cur = next
	}
	return e.endBatch(cur, b, sums, n, n == stop && stop < limit, err)
}

// drainSampled is drainBatch for a sampled follower: it visits only the
// positions its stride samples, gap-1, gap-1+P, and so on, where gap is
// the countdown carried over from the previous batch. That is exact
// because a sampled engine's profiling changes nothing on an unsampled
// event but the countdown (no cycle model, no region cursor), and the
// countdown after n events is arithmetic. The one other thing a serial
// run does between sampled events is translate the blocks the trace
// reaches for the first time, and a wave's region former sees the
// translated set through Info. So before each visited position the
// follower translates the batch's first occurrences recorded before
// it, and every wave sees the code cache a serial run's would. The
// trap, halt and error stops are the same batchStop and endBatch
// arithmetic as drainBatch.
func (e *Engine) drainSampled(b *batch) error {
	limit := uint64(len(b.outs))
	stop := e.batchStop(limit)
	outs, firsts, cache, cur := b.outs, b.firsts, e.cache, e.cur
	// at returns the block at batch position i: the entry cursor, or the
	// block the previous outcome reached (translated by then).
	at := func(i uint64) *tblock {
		if i == 0 {
			return cur
		}
		return cache[outs[i-1].nextPC]
	}
	period, gap := e.samplePeriod, e.sampleGap
	n, f := stop, 0
	var err error
	// i is the next sampled position; it saturates at stop, where the
	// loop translates the batch's remaining first occurrences and ends.
	for i := gap - 1; ; i += min(period, stop-i) {
		end := min(i, stop)
		for ; f < len(firsts) && uint64(firsts[f].pos) < end; f++ {
			if _, err = e.translate(int(firsts[f].pc)); err != nil {
				// A serial run stops after stepping the failing position.
				n = uint64(firsts[f].pos) + 1
				break
			}
		}
		if err != nil || i >= stop {
			break
		}
		if tb := at(i); e.sampledEvent(tb, outs[i].taken) {
			e.registration(tb)
		}
	}
	switch {
	case err != nil:
	case n > 0 && n == limit && outs[n-1].halted:
		// A halt is always the batch's final entry; the halting block
		// stays the cursor.
		e.halted = true
		cur = at(n - 1)
	default:
		cur = at(n)
	}
	if n < gap {
		e.sampleGap = gap - n
	} else {
		e.sampleGap = period - (n-gap)%period
	}
	return e.endBatch(cur, b, perfmodel.BlockSums{}, n, n == stop && stop < limit, err)
}

// batchStop returns how many of the next limit blocks the engine may
// run before its trap stops it (limit when it does not). The trap
// compares the block count against a fixed value, so a serial run's
// stop point is arithmetic.
func (e *Engine) batchStop(limit uint64) uint64 {
	if e.trapAfter == 0 {
		return limit
	}
	start := e.stats.BlocksExecuted
	if e.trapAfter <= start {
		return 0
	}
	return min(limit, e.trapAfter-start-1)
}

// endBatch is both loops' flush and error tail. sums are the batch's
// block charges, which reach the engine's accumulator here, once per
// batch. n counts the batch blocks the engine counted, a block that
// failed included; cur is the block to run next, and atStop reports
// that the loop ran into its batchStop. The block the trap stops is counted too, as a serial run
// counts before it checks, and the trap's message formats the flushed
// count. An errored run's statistics are discarded, so only
// the block count is kept on the error paths; a clean batch adds the
// poll ticks (pure arithmetic on the block count) and the batch's sums.
func (e *Engine) endBatch(cur *tblock, b *batch, sums perfmodel.BlockSums, n uint64, atStop bool, err error) error {
	const period = uint64(interruptCheckMask + 1)
	if e.perf != nil {
		e.perf.ChargeBlocks(sums)
	}
	start := e.stats.BlocksExecuted
	e.cur = cur
	e.stats.BlocksExecuted = start + n
	switch {
	case err != nil:
		return err
	case atStop && !e.halted:
		e.stats.BlocksExecuted++
		return e.trapped()
	}
	e.stats.InterruptPolls += (start+n)/period - start/period
	e.stats.Instructions += b.instructions
	e.stats.FastDispatches += n
	e.stats.CacheLookups += b.lookups
	return nil
}
