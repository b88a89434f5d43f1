// Trace observation: RunMultiObserved extends the shared-trace
// execution with read-only observers of the architectural branch
// stream. Observers ride the driver's recorded outcome batches — the
// guest still executes exactly once — and see each resolved conditional
// branch (block address, direction) in architectural order.
//
// The branch walk is a pure function of the outcome trace plus the
// static block properties (hasBranch, takenTarget), so the event stream
// is bit-identical across follower counts and any profiling
// configuration, and equal to the stream the reference interpreter's
// block-entry sequence implies: exactly the determinism dynamic branch
// predictors need. The walk reads the driver's translation
// cache directly instead of going through lookup(), which counts
// probes — observation must not perturb any deterministic RunStats
// counter.
package dbt

import (
	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/profile"
)

// BranchEvent is one resolved conditional branch of the driver's
// architectural trace: the branch block's entry address and the
// direction it went.
type BranchEvent struct {
	PC    int32
	Taken bool
}

// TraceObserver receives the branch stream batch-wise, in architectural
// order. Calls are serial (one goroutine); the events slice is reused
// across calls, so implementations must not retain it.
type TraceObserver interface {
	ObserveBranches([]BranchEvent)
}

// RunMultiObserved is RunMulti with trace observers: the guest executes
// once, every configuration replays the shared trace, and each observer
// additionally sees the resolved conditional branches of that trace.
// Observers never feed back into execution or profiling — snapshots and
// statistics are bit-identical to a plain RunMulti.
func RunMultiObserved(img *guest.Image, tape interp.Tape, cfgs []Config, observers []TraceObserver) ([]*profile.Snapshot, []*RunStats, error) {
	return runMulti(img, tape, cfgs, observers)
}

// appendBranchEvents walks one outcome batch from the block the driver
// was about to execute when the batch began, resolving each executed
// block through the driver's translation cache (blocks are never
// evicted, so every executed address is present). Branch blocks emit
// one event; the taken edge is the architectural comparison the
// exec loops use: nextPC == takenTarget.
func appendBranchEvents(dst []BranchEvent, e *Engine, pc int, batch []outcome) []BranchEvent {
	cache := e.cache
	for _, o := range batch {
		tb := cache[pc]
		if tb.hasBranch {
			dst = append(dst, BranchEvent{PC: int32(pc), Taken: int(o.nextPC) == tb.takenTarget})
		}
		if o.halted {
			break
		}
		pc = int(o.nextPC)
	}
	return dst
}
