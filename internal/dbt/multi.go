// Shared-trace execution: because profiling state (counters, frozen
// flags, regions, perf charges) never feeds back into guest execution,
// every run of the same image over the same tape follows the identical
// block trace regardless of its threshold or optimization settings.
// RunMulti exploits this: it executes the guest once and replays each
// architectural outcome through any number of independent profiling
// engines, so an AVEP run and a whole INIP(T) ladder cost one execution
// plus N bookkeeping passes instead of N full runs.
//
// Each follower engine keeps its own code cache, counters, region
// former and perf accumulator and performs exactly the profiling a
// serial run would, so its snapshot, statistics and cycle totals are
// bit-for-bit what a serial Run with the same Config would have
// produced. Tests cross-validate this for every configuration class.
// A follower does only that profiling work: it executes no guest code,
// so it builds no lowered code, and it resolves successors straight
// from its dense code cache instead of chaining, taking the trace-path
// CacheLookups count from the driver (see drainBatch).
//
// Replay is batched: the driver records (nextPC, halted) outcomes into
// a fixed buffer of replayBatch entries, and each follower then drains
// the whole batch in one tight loop (drainBatch), so nothing observable
// changes versus per-block interleaving — counters, wave timing and
// interrupt-poll cadence are all driven by each engine's own block
// count. What changes is locality: one follower's caches, counters and
// region state stay hot across thousands of entries instead of 1+N
// engines evicting each other every block. The only semantic skew is
// error ordering across engines — the driver executes up to replayBatch
// blocks ahead, so a driver-side fault at block k+j can surface before
// a follower's budget/trap error at block k. Errored RunMulti results
// are discarded wholesale by every caller, and in practice all configs
// share TrapAfter/MaxBlockExecs, so the first error wins identically.
package dbt

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/profile"
)

// replayBatch is the outcome-buffer size of RunMulti's batched replay,
// aligned with the interrupt-poll period so the driver's poll cadence
// bounds how far execution runs ahead of follower bookkeeping.
const replayBatch = interruptCheckMask + 1

// outcome is one recorded architectural block outcome: everything a
// follower needs to advance its profiling state machine past one block.
type outcome struct {
	nextPC int32
	halted bool
}

// RunMulti executes the guest once and produces one profile snapshot
// and one statistics record per configuration, as if each configuration
// had been run serially with Run over an identical tape. The first
// configuration drives execution: its Input, DisableFastPath, Interrupt
// and MaxBlockExecs settings govern the shared trace, and the tape is
// consumed by it alone. All configurations must agree on what the guest
// does — they may differ in profiling settings (Threshold, Optimize,
// Perf, adaptive/convergence knobs) but not in anything architectural.
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
// guest's halt.
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
		e.follower = i > 0
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
	done := false
	for !done {
		// Fill one batch: the driver's budget/interrupt check runs
		// before each block, exactly as in a serial run. The batch's
		// first block is the driver's cursor, which the observer walk
		// needs before fillBatch advances it.
		startPC := driver.cur.addr
		var batch []outcome
		var err error
		batch, done, err = driver.fillBatch(buf[:0])
		if err != nil {
			return nil, err
		}
		if len(observers) > 0 {
			events = appendBranchEvents(events[:0], driver, startPC, batch)
			for _, o := range observers {
				o.ObserveBranches(events)
			}
		}
		// Drain it through each follower: per entry the serial run's
		// profiling, over thousands of entries per engine switch.
		for _, e := range followers {
			if err := e.drainBatch(batch, driver.traceLookups); err != nil {
				return nil, err
			}
		}
	}
	return engines, nil
}

// fillBatch executes the guest until the appended outcome batch reaches
// its capacity, the guest halts (done=true), or the engine stops with an
// error. Per block it checks the budget, trap and interrupt, executes,
// profiles, and resolves the successor through its chain; the block
// count, poll tick, sum counters and the block/region cursors live in
// registers across the batch and are written back once. Both the serial
// Run loop and RunMulti's driver use it — the serial caller just
// discards the recorded outcomes. traceLookups receives the batch's
// successor probes: chaining depends only on the trace, so they are
// exactly the probes any engine's serial run makes over these blocks.
//
// Its profiling (counters, registration, perf charges, region cursor)
// MUST mirror drainBatch's, the follower loop that only profiles; the
// serial-vs-follower equivalence tests and FuzzExecPaths pin the
// contract bit-for-bit.
func (e *Engine) fillBatch(batch []outcome) ([]outcome, bool, error) {
	count := e.stats.BlocksExecuted
	var instr, fastN, genN, polls, lookups uint64
	budget, trapAfter, interrupt := e.budget, e.trapAfter, e.interrupt
	fastPath, optimize, conv := e.fastPath, e.optimize, e.converge
	samplePeriod, gap := e.samplePeriod, e.sampleGap
	perf := e.perf
	cur := e.cur
	curRegion, curNode := e.curRegion, e.curNode
	done := false
	kind := 0 // 0 clean, 1 budget, 2 trap, 3 raw error
	var retErr error

	for len(batch) < cap(batch) {
		// Count first, budget before trap, poll tick before the channel
		// read — erroring paths flush the count they already incremented
		// but never reach the later checks.
		count++
		if budget > 0 && count > budget {
			kind = 1
			break
		}
		if trapAfter > 0 && count >= trapAfter {
			kind = 2
			break
		}
		if count&interruptCheckMask == 0 {
			polls++
			if interrupt != nil {
				if err := e.pollInterrupt(); err != nil {
					kind, retErr = 3, err
					break
				}
			}
		}

		tb := cur
		var (
			nextPC int
			halted bool
			err    error
		)
		if fastPath && tb.lowered {
			nextPC, halted, err = e.execBlock(tb)
		} else {
			nextPC, halted, err = e.execBlockGeneric(tb)
		}
		if err != nil {
			kind, retErr = 3, err
			break
		}

		instr += uint64(tb.ninsts)
		if fastPath && tb.lowered {
			fastN++
		} else {
			genN++
		}
		takenEdge := !tb.hasBranch || nextPC == tb.takenTarget
		sampledEvent := true
		if samplePeriod > 1 {
			gap--
			if gap == 0 {
				gap = samplePeriod
			} else {
				sampledEvent = false
			}
		}
		if !tb.frozen && sampledEvent {
			tb.use++
			e.profOps++
			if tb.hasBranch && takenEdge {
				tb.taken++
				e.profOps++
			}
			if optimize {
				var ready bool
				if conv {
					ready = e.shouldRegister(tb)
				} else if tb.use == tb.nextRegister {
					ready = true
					tb.nextRegister += e.regThreshold
				}
				if ready && e.register(tb) {
					e.optimizeWave()
				}
			}
		}
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
			if next = e.lookup(nextPC); next != nil {
				e.chain(tb, takenEdge, next)
			}
		}
		if perf != nil {
			switch {
			case tb.frozen && curNode != nil && curNode.addr == tb.addr:
				perf.ChargeOptimizedBlock(int(tb.costSum))
			case tb.frozen:
				perf.ChargeOffTraceBlock(int(tb.costSum))
			case sampledEvent:
				perf.ChargeQuickBlock(int(tb.costSum))
			default:
				perf.ChargeQuickBlockUnprofiled(int(tb.costSum))
			}
		}
		if optimize {
			if rt := curRegion; rt != nil {
				node := curNode
				if node == nil || node.addr != tb.addr {
					e.curRegion = rt
					e.leaveRegion(false)
					curRegion, curNode = nil, nil
				} else {
					var nn *rtNode
					if takenEdge {
						nn = node.taken
					} else {
						nn = node.fall
					}
					switch {
					case nn == nil:
						e.curRegion = rt
						e.leaveRegion(rt.r.Kind == profile.RegionTrace && node == rt.last)
						curRegion, curNode = nil, nil
					case nn == rt.entry:
						e.stats.RegionLoopBacks++
						rt.loopBacks++
						curNode = nn
					default:
						curNode = nn
					}
				}
			}
			if next != nil && curRegion == nil && next.regionEntry != nil {
				curRegion = next.regionEntry
				curRegion.entries++
				curNode = curRegion.entry
				e.stats.RegionEntries++
			}
		}

		batch = append(batch, outcome{nextPC: int32(nextPC), halted: halted})
		if halted {
			e.halted = true
			done = true
			break
		}
		if next == nil {
			next, err = e.translate(nextPC)
			if err != nil {
				kind, retErr = 3, err
				break
			}
			e.chain(tb, takenEdge, next)
		}
		cur = next
	}

	// Flush, then materialize any stop error: trapped() formats the
	// flushed block count into its message.
	e.cur = cur
	e.curRegion, e.curNode = curRegion, curNode
	e.sampleGap = gap
	e.stats.BlocksExecuted = count
	e.stats.InterruptPolls += polls
	e.stats.Instructions += instr
	e.stats.FastDispatches += fastN
	e.stats.GenericDispatches += genN
	e.traceLookups = lookups
	switch kind {
	case 1:
		return batch, false, e.budgetExhausted()
	case 2:
		return batch, false, e.trapped()
	case 3:
		return batch, false, retErr
	}
	return batch, done, nil
}

// drainBatch replays one recorded batch through a follower engine,
// performing exactly the profiling a serial run would over the same
// blocks. It is the study's hottest loop — one call per follower per
// 4096 blocks — so everything but the profiling is arithmetic or gone:
//
//   - budget/trap checks compare the block count against fixed values,
//     so the first entry (if any) at which a serial run would stop is
//     computed up front, in the serial order (count first, budget before
//     trap);
//   - the interrupt-poll counter ticks on 4096-boundary crossings of
//     the block count, so a batch's ticks are pure arithmetic (follower
//     channels are stripped by RunMulti; the driver polls for them);
//   - the pure-sum counters (instructions, dispatch split, block count)
//     accumulate in locals flushed on every exit path;
//   - successors come from one load of the dense code cache at the
//     recorded nextPC. A serial run's chain hit always names that same
//     block (blocks are never replaced) and its miss is a lookup of it,
//     so no chain state is kept; the run's probe count is the driver's,
//     lookups, because chaining depends only on the trace.
//
// Its profiling MUST mirror fillBatch's; the serial-vs-follower
// equivalence tests and FuzzExecPaths pin the contract bit-for-bit.
func (e *Engine) drainBatch(batch []outcome, lookups uint64) error {
	start := e.stats.BlocksExecuted
	n := uint64(len(batch))
	stop, errKind := n, 0 // errKind: 0 clean, 1 budget, 2 trap
	if e.budget > 0 && start+n > e.budget {
		stop, errKind = e.budget-start, 1
	}
	if e.trapAfter > 0 {
		var at uint64
		if e.trapAfter > start {
			at = e.trapAfter - start - 1
		}
		if at < stop {
			stop, errKind = at, 2
		}
	}

	// The sum counters accumulate in locals and the cursor stays in a
	// register; both are written back in the single flush block below.
	// No closure: captured accumulators would be forced into memory and
	// cost a load/store per entry.
	var instr, fastN, genN uint64
	processed := stop
	var retErr error
	fastPath, optimize, conv := e.fastPath, e.optimize, e.converge
	samplePeriod, gap := e.samplePeriod, e.sampleGap
	perf := e.perf
	cache := e.cache
	cur := e.cur
	// The region cursor also lives in locals across the batch: it is read
	// on every entry (the perf charge class tests it) but leaves a region
	// rarely. leaveRegion is the one callee that touches the engine
	// fields, so the cold paths sync e.curRegion before the call and null
	// the locals after; the flush writes the final cursor back.
	curRegion, curNode := e.curRegion, e.curNode
	for i := uint64(0); i < stop; i++ {
		o := batch[i]
		nextPC := int(o.nextPC)
		tb := cur
		instr += uint64(tb.ninsts)
		if fastPath && tb.lowered {
			fastN++
		} else {
			genN++
		}

		// Unconditional transfers use the taken edge.
		takenEdge := !tb.hasBranch || nextPC == tb.takenTarget

		// Sampling stride: the countdown ticks on every block event
		// (frozen or not), so the sampled-event set depends only on the
		// engine's own event count — the determinism contract of
		// sampling.go.
		sampledEvent := true
		if samplePeriod > 1 {
			gap--
			if gap == 0 {
				gap = samplePeriod
			} else {
				sampledEvent = false
			}
		}
		if !tb.frozen && sampledEvent {
			tb.use++
			e.profOps++
			if tb.hasBranch && takenEdge {
				tb.taken++
				e.profOps++
			}
			if optimize {
				// Fixed-threshold registration reduces to an equality
				// test against the precomputed next multiple; the
				// convergence heuristic keeps the full check.
				var ready bool
				if conv {
					ready = e.shouldRegister(tb)
				} else if tb.use == tb.nextRegister {
					ready = true
					tb.nextRegister += e.regThreshold
				}
				if ready && e.register(tb) {
					e.optimizeWave()
				}
			}
		}

		// A block missing from the cache is translated only after the
		// region bookkeeping, matching the cache state the region-entry
		// check always observed.
		var next *tblock
		if uint(nextPC) < uint(len(cache)) {
			next = cache[nextPC]
		}

		// A frozen block runs at full optimized speed only while control
		// follows one of its regions' expected paths (the cursor is on
		// it); frozen code reached outside a region context was
		// retranslated for a different path and gets no scheduling
		// benefit. An unfrozen block on an unsampled event runs without
		// the counter-update overhead — the saving sampling buys.
		if perf != nil {
			switch {
			case tb.frozen && curNode != nil && curNode.addr == tb.addr:
				perf.ChargeOptimizedBlock(int(tb.costSum))
			case tb.frozen:
				perf.ChargeOffTraceBlock(int(tb.costSum))
			case sampledEvent:
				perf.ChargeQuickBlock(int(tb.costSum))
			default:
				perf.ChargeQuickBlockUnprofiled(int(tb.costSum))
			}
		}
		if optimize {
			if rt := curRegion; rt != nil {
				// Advance the region cursor along the fired edge;
				// leaving the region is the cold path.
				node := curNode
				if node == nil || node.addr != tb.addr {
					e.curRegion = rt
					e.leaveRegion(false)
					curRegion, curNode = nil, nil
				} else {
					var nn *rtNode
					if takenEdge {
						nn = node.taken
					} else {
						nn = node.fall
					}
					switch {
					case nn == nil:
						e.curRegion = rt
						e.leaveRegion(rt.r.Kind == profile.RegionTrace && node == rt.last)
						curRegion, curNode = nil, nil
					case nn == rt.entry:
						e.stats.RegionLoopBacks++
						rt.loopBacks++
						curNode = nn
					default:
						curNode = nn
					}
				}
			}
			if next != nil && curRegion == nil && next.regionEntry != nil {
				curRegion = next.regionEntry
				curRegion.entries++
				curNode = curRegion.entry
				e.stats.RegionEntries++
			}
		}

		if o.halted {
			// A halt is always the batch's final entry, so no budget or
			// trap stop can sit beyond it: fall through to the flush.
			e.halted = true
			processed = i + 1
			break
		}
		if next == nil {
			var err error
			next, err = e.translate(nextPC)
			if err != nil {
				processed, retErr = i+1, err
				break
			}
		}
		cur = next
	}
	// Flush: processed entries are the fully pre-counted blocks; a stop
	// increments the block count afterwards but never reaches the poll
	// tick, exactly like fillBatch's early breaks. The probe count is the
	// whole batch's; a follower that stops inside it errors the run, whose
	// results are discarded.
	const period = uint64(interruptCheckMask + 1)
	e.cur = cur
	e.curRegion, e.curNode = curRegion, curNode
	e.sampleGap = gap
	e.stats.Instructions += instr
	e.stats.FastDispatches += fastN
	e.stats.GenericDispatches += genN
	e.stats.CacheLookups += lookups
	e.stats.BlocksExecuted = start + processed
	e.stats.InterruptPolls += (start+processed)/period - start/period
	if retErr != nil {
		return retErr
	}
	if processed == stop {
		switch errKind {
		case 1:
			e.stats.BlocksExecuted++
			return e.budgetExhausted()
		case 2:
			e.stats.BlocksExecuted++
			return e.trapped()
		}
	}
	return nil
}
