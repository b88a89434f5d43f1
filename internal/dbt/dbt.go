// Package dbt implements the two-phase dynamic binary translator whose
// profiling behaviour the paper studies.
//
// The engine mirrors the IA32EL structure described in the paper's
// introduction:
//
//   - Phase 1 (profiling): each guest block is quickly translated the
//     first time control reaches it and instrumented to collect a "use"
//     count (visits) and a "taken" count (conditional branch taken).
//
//   - When a block's use count reaches the retranslation threshold T it
//     is registered in a pool of candidate blocks. When the pool holds
//     enough blocks — or when a block is registered twice, i.e. its use
//     count reaches 2T while it is still unoptimized — the optimization
//     phase runs.
//
//   - Phase 2 (optimization): candidate blocks are grouped into trace
//     and loop regions using the taken/use ratios as branch
//     probabilities (see package region). Optimized blocks stop
//     profiling: their counters freeze, which is why all blocks of an
//     INIP(T) snapshot carry use counts in [T, 2T).
//
// Running with Optimize=false yields the paper's AVEP / INIP(train)
// profiles: no regions form and every counter runs to program end.
package dbt

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/perfmodel"
	"repro/internal/profile"
	"repro/internal/region"
)

// ErrInterrupted reports that a run was stopped through Config.Interrupt
// before the guest halted.
var ErrInterrupted = errors.New("dbt: run interrupted")

// Config controls one translator run.
type Config struct {
	// Input names the input tape for the snapshot ("ref", "train").
	Input string
	// Threshold is the retranslation threshold T. It must be >= 1 when
	// Optimize is set.
	Threshold uint64
	// Optimize enables the optimization phase. When false the run
	// produces an average (AVEP-style) profile.
	Optimize bool
	// PoolTrigger is the candidate-pool size that triggers an
	// optimization wave (default 8).
	PoolTrigger int
	// RegisterTwice enables the paper's second trigger: a block whose
	// use count reaches 2T while still unoptimized starts a wave
	// immediately (default on; the ablation bench turns it off).
	RegisterTwice bool
	// DisableFreeze keeps profiling counters running after a block is
	// optimized. The paper's IA32EL freezes them; the ablation bench
	// uses this switch to isolate the effect.
	DisableFreeze bool
	// Region overrides the region former configuration; the zero value
	// selects region.DefaultConfig(Threshold).
	Region region.Config
	// Perf, when non-nil, accumulates the simulated cycle cost of the
	// run. A sampled run (SamplePeriod > 1) has no cycle model and
	// leaves it untouched.
	Perf *perfmodel.Accumulator

	// Interrupt, when non-nil, is polled periodically by the run loop;
	// once it is closed the run stops with ErrInterrupted. The study
	// scheduler uses it for fail-fast cancellation, so one failing
	// benchmark does not let the rest run to completion.
	Interrupt <-chan struct{}

	// TrapAfter, when non-zero, aborts the run with an injected guest
	// trap at block TrapAfter: the blocks before it execute, it does
	// not. It is the engine's one block-count stop. The deterministic
	// fault-injection harness (internal/faultinject) sets it to force
	// every mid-run abort path of the study executor at an exact,
	// reproducible point, and tests bound random programs with it.
	// Production runs leave it zero.
	TrapAfter uint64

	// Adaptive enables the paper's section-5 proposal of monitoring
	// region side exits: a region whose side-exit rate exceeds
	// adaptiveSideExitRate (after at least AdaptiveMinEntries entries)
	// is dissolved, its blocks resume profiling with fresh counters,
	// and they may re-register and be re-optimized with phase-current
	// probabilities.
	Adaptive           bool
	AdaptiveMinEntries uint64 // default 64

	// ContinuousTripCount keeps lightweight loop-back instrumentation
	// alive inside optimized loop regions (the paper's reference [21]):
	// snapshot loop regions then carry a continuously-updated loop-back
	// probability alongside their frozen counters.
	ContinuousTripCount bool

	// ConvergeRegister implements the paper's section-5 call for
	// threshold-selection heuristics: instead of registering a block
	// after exactly Threshold visits, register it as soon as its branch
	// probability estimate has converged — the 95% confidence interval
	// half-width 1.96*sqrt(p(1-p)/n) drops below ConvergeEpsilon — with
	// Threshold acting as the cap for branches that refuse to converge.
	// Stable branches freeze early (cheap), noisy ones profile longer,
	// up to the cap. Convergence is checked every convergeCheckEvery
	// visits once convergeMinUse samples have accumulated.
	ConvergeRegister bool
	ConvergeEpsilon  float64 // default 0.02

	// SamplePeriod enables sampled profiling: the use/taken counters of
	// unfrozen blocks update only on every SamplePeriod-th dynamic block
	// event of this engine (an LBR-style deterministic stride), instead
	// of on every execution. 0 (the default) and 1 both mean full
	// instrumentation; 0 keeps today's code paths and fingerprint
	// byte-identical, 1 exercises the sampling machinery and is proven
	// equal to 0 by the determinism tests. Sampled counters are held in
	// sampled units internally and scaled by the period wherever full
	// counts are consumed (region formation, snapshots), so the
	// profile → region → threshold pipeline sees estimates of the full
	// counts; the registration threshold is likewise rescaled to
	// ceil(Threshold/SamplePeriod) sampled hits. ProfilingOps counts the
	// counter updates actually performed — the real profiling cost the
	// sampling frontier measures. The stride depends only on the
	// engine's own block-event count, so snapshots are bit-reproducible
	// across serial runs, shared-trace replay and worker counts. A
	// sampled engine (period > 1) keeps no cycle model and no region
	// cursor, which lets a shared-trace follower visit only its sampled
	// events (drainSampled in multi.go).
	SamplePeriod uint64
	// SampleSeed seeds the stride's deterministic phase (which of the
	// first SamplePeriod events is sampled first). The same seed always
	// yields the same phase; different seeds decorrelate the stride from
	// periodic program behaviour.
	SampleSeed uint64
}

const (
	// convergeCheckEvery bounds how often the convergence test (a sqrt)
	// runs per block.
	convergeCheckEvery = 32
	// convergeMinUse is the sample floor of convergence mode: no block
	// registers on convergence, or joins a region, before this many
	// visits.
	convergeMinUse = 32
	// adaptiveSideExitRate is the side-exit rate above which the
	// adaptive mode dissolves a region.
	adaptiveSideExitRate = 0.6
)

// tblock is a translated block in the code cache. Field order is
// deliberate: everything the run loops touch per dynamic execution sits
// at the front so the per-block working set is one or two cache lines;
// translate-time and snapshot-only fields trail. The lowered execution
// records themselves live off-struct, in the engine's arena and flat
// block table (see lower.go), indexed by id.
type tblock struct {
	// First 64 bytes: every field the replay loop reads for a frozen
	// steady-state block, all read-mostly, so the profiling-counter
	// writes below never dirty this line and the 17-engine working set
	// of a shared-trace run stays cache-resident.

	addr        int
	takenTarget int
	// takenBlk/fallBlk chain this block to the translated blocks its
	// terminator edges last reached, so steady-state execution skips the
	// code-cache lookup. Entries are validated against the actual next
	// pc before use (indirect terminators can change targets) and cache
	// pointers stay valid for the engine's lifetime: translated blocks
	// are never replaced, only their counters change. Only executing
	// engines chain; shared-trace followers leave these nil.
	takenBlk *tblock
	fallBlk  *tblock
	// itab is the per-block indirect-target table (jr/ret terminators
	// only, allocated lazily on the first chained successor): a small
	// direct-mapped cache keyed by the low bits of the successor
	// address, behind takenBlk's single most-recent entry. A return
	// block bouncing between a few call sites then resolves every
	// successor without a code-cache lookup.
	itab *[indirectWays]*tblock
	// regionEntry points at the runtime info of the region this block
	// is the entry of, if any.
	regionEntry *regionRT
	// costSum sums guest instruction costs for the perf model; int32
	// keeps it on the hot line (block costs are tiny).
	costSum int32
	// ninsts counts the decoded instructions, terminator included.
	ninsts uint32
	// id is the block's index in Engine.blocks, the same on every engine
	// of a shared trace, and on an executing engine also its row in the
	// flat block table (the owner of its arena span).
	id        int32
	hasBranch bool
	frozen    bool
	// indirect marks jr/ret terminators: the successor is data-driven,
	// so chaining maintains itab instead of a single edge pointer.
	indirect bool

	// Write-hot profiling counters (touched only while unfrozen).

	use uint64
	// taken counts conditional-branch taken edges while profiling.
	taken uint64
	// nextRegister is the use count at which the block next becomes a
	// registration candidate (the next multiple of the threshold),
	// letting the hot loop test equality instead of dividing.
	nextRegister uint64

	// Cold fields: translate-time and snapshot-only.

	fallTarget int
	end        int
	// term classifies the terminator for the region former.
	term region.TermKind
	// registrations counts how many times the block entered the
	// candidate pool.
	registrations int
}

// indirectWays sizes tblock.itab. Indirect blocks in the benchmark
// suite are returns shared by a handful of call sites, so a small
// direct-mapped table resolves nearly all of them; misses fall back to
// the code-cache lookup and replace.
const indirectWays = 16

// regionRT is the execution-time view of an optimized region. Member
// successors are resolved to node pointers once at formation time, so
// following the region cursor costs two pointer loads per block instead
// of a map access on the copy ID.
type regionRT struct {
	r     *profile.Region
	nodes []rtNode
	entry *rtNode
	last  *rtNode // final block (trace completion target)
	// trace caches r.Kind == profile.RegionTrace for the exit step.
	trace bool

	// Per-region execution statistics, used by the adaptive mode and
	// by continuous trip-count profiling.
	entries     uint64
	loopBacks   uint64
	sideExits   uint64
	completions uint64
	dissolved   bool
}

// rtNode is one region member with its in-region successors pre-linked;
// a nil successor is a region exit. tb is the engine's block for the
// member and id its translation index (tb.id), both set by optimizeWave:
// the cursor compares block identity, and drainBatch's in-region loop
// compares id with the recorded successor index instead of loading the
// block at that index.
// head marks the region's entry, so a step onto it is a loop-back. The
// node stays 32 bytes.
type rtNode struct {
	tb    *tblock
	taken *rtNode
	fall  *rtNode
	id    int32
	head  bool
}

// newRegionRT links the region's members into an execution-time node
// graph; optimizeWave fills in each node's block.
func newRegionRT(r *profile.Region) *regionRT {
	rt := &regionRT{r: r, nodes: make([]rtNode, len(r.Blocks)), trace: r.Kind == profile.RegionTrace}
	// node returns the member with copy ID id, nil for an exit.
	node := func(id int) *rtNode {
		if j := r.Index(id); j >= 0 && id != -1 {
			return &rt.nodes[j]
		}
		return nil
	}
	for i := range rt.nodes {
		rb := &r.Blocks[i]
		rt.nodes[i] = rtNode{taken: node(rb.TakenNext), fall: node(rb.FallNext)}
	}
	rt.entry = node(r.Entry)
	rt.entry.head = true
	rt.last = &rt.nodes[len(rt.nodes)-1]
	return rt
}

// continuousLP is the continuously-collected loop-back probability: of
// all visits to the loop head, the fraction that came back around.
func (rt *regionRT) continuousLP() (float64, bool) {
	visits := rt.loopBacks + rt.sideExits + rt.completions
	if rt.r.Kind != profile.RegionLoop || visits == 0 {
		return 0, false
	}
	return float64(rt.loopBacks) / float64(visits), true
}

// RunStats reports what happened during a run, beyond the profile
// snapshot itself.
//
// Every field is deterministic for a given (image, tape, Config): the
// shared-trace followers of RunMulti report bit-for-bit the statistics
// a serial Run would have, which the equivalence tests assert by
// reflect.DeepEqual over this whole struct.
type RunStats struct {
	BlocksExecuted    uint64
	Instructions      uint64
	BlocksTranslated  int
	OptimizationWaves int
	RegionsFormed     int
	RegionEntries     uint64
	RegionCompletions uint64
	RegionLoopBacks   uint64
	RegionSideExits   uint64
	// RegionsDissolved counts regions torn down by the adaptive mode.
	RegionsDissolved int
	// Cycles is the perf model's total (0 without Config.Perf). A
	// sampled run keeps no cycle model and no region cursor, so its
	// Cycles and region execution counters read 0.
	Cycles float64

	// Engine counters (the observability layer). Kept cheap: plain
	// increments on engine-local state, no atomics, no branches beyond
	// what the run loop already pays.

	// Retranslations counts blocks handed to the optimizer by waves
	// (candidate-pool members; the paper's "retranslation" of a block
	// into optimized code).
	Retranslations int
	// FastDispatches counts blocks dispatched through the pre-lowered
	// records, the engine's one execution path, so it always equals
	// BlocksExecuted. It is kept because the benchmark harness
	// (bench/inipbench) reads it.
	FastDispatches uint64
	// CacheLookups counts translation-cache probes (hot-loop successor
	// chaining exists precisely to keep this far below BlocksExecuted).
	CacheLookups uint64
	// InterruptPolls counts interrupt checkpoints reached (every 4096th
	// block execution). Engines without an interrupt channel count
	// checkpoints too, so shared-trace followers match serial runs.
	InterruptPolls uint64
	// FreezeEvents counts profiling counters frozen at optimization
	// (transitions only; adaptive dissolution may unfreeze and refreeze).
	FreezeEvents uint64
}

// Engine is a two-phase DBT instance bound to one guest image and tape.
type Engine struct {
	cfg Config
	img *guest.Image
	st  *interp.State
	// cache is indexed by block entry address (dense: code segments are
	// small and block starts are code addresses), keeping the per-block
	// dispatch off the map path. Only an executing engine fills it; a
	// shared-trace follower holds its driver's, read-only (see lookup).
	cache []*tblock
	// blocks lists the translated blocks in translation order, which is
	// the same on every engine of a shared trace (tblock.id).
	blocks []*tblock
	// arena is the engine's lowered-code arena: the bodies of all
	// lowered blocks, contiguous in translation order. hot is the flat
	// block table, one packed row per lowered block (indexed by
	// tblock.id) holding the arena span and terminator record the fast
	// path reads. See lower.go. Both stay empty on followers.
	arena  []lop
	hot    []hotrec
	pool   []int
	inPool map[int]bool
	former *region.Former

	regions []*profile.Region
	rts     map[*profile.Region]*regionRT
	stats   RunStats
	profOps uint64

	// Region execution cursor: the region control is inside and the
	// node it is on. They are nil together, outside any region.
	curRegion *regionRT
	curNode   *rtNode

	// Stepping state: cur is the block about to execute, halted reports
	// that the guest has stopped. The fields below cache hot-loop config
	// reads (see Run and RunMulti).
	cur       *tblock
	halted    bool
	trapAfter uint64
	interrupt <-chan struct{}
	optimize  bool
	converge  bool
	perf      *perfmodel.Accumulator

	// insts is the decode buffer of translate, reused across blocks.
	insts []isa.Inst
	// firsts holds the first occurrences fillBatch recorded in its
	// current batch (see batch); the buffer is reused across batches.
	firsts []firstUse
	// slab holds a follower's blocks not yet handed out: runEngines sizes
	// it to each batch's first occurrences, and translate takes its
	// adopted copies from the front, so a follower makes one allocation
	// per batch that reaches new blocks instead of one per block.
	slab []tblock

	// Sampled-profiling state (Config.SamplePeriod > 1; see sampling.go).
	// samplePeriod caches the period, sampleGap is the countdown to the
	// next sampled event (decremented on every block event, reset to the
	// period when it hits zero), and regThreshold is the registration
	// threshold in sampled units — ceil(Threshold/SamplePeriod), the
	// plain Threshold when sampling is off. Every use-count comparison
	// in the engine is against regThreshold: sampled counters advance
	// once per sampled event, so thresholds live in sampled units too.
	samplePeriod uint64
	sampleGap    uint64
	regThreshold uint64
}

// Validate reports a configuration New rejects. A sampled engine keeps
// no region cursor (see the profiling steps above charge), so the
// settings that work through the cursor, Adaptive and
// ContinuousTripCount, are refused rather than silently doing nothing.
func (c Config) Validate() error {
	if c.Optimize && c.Threshold == 0 {
		return fmt.Errorf("dbt: Optimize requires Threshold >= 1")
	}
	if c.SamplePeriod > 1 {
		if c.Adaptive {
			return fmt.Errorf("dbt: Adaptive needs the region cursor, which a sampled engine (SamplePeriod %d) does not keep", c.SamplePeriod)
		}
		if c.ContinuousTripCount {
			return fmt.Errorf("dbt: ContinuousTripCount needs the region cursor, which a sampled engine (SamplePeriod %d) does not keep", c.SamplePeriod)
		}
	}
	return nil
}

// New prepares an engine. The image and the configuration are
// validated; the tape supplies guest input. A sampled engine leaves
// cfg.Perf untouched: it runs no cycle model, so its Cycles read 0.
func New(img *guest.Image, tape interp.Tape, cfg Config) (*Engine, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	return newEngine(img, tape, cfg)
}

// newEngine is New over an image the caller has validated: a shared
// trace validates its image once, not once per engine.
func newEngine(img *guest.Image, tape interp.Tape, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	perf := cfg.Perf
	if cfg.SamplePeriod > 1 {
		perf = nil
	}
	if cfg.PoolTrigger <= 0 {
		cfg.PoolTrigger = 8
	}
	rcfg := cfg.Region
	if rcfg == (region.Config{}) {
		rcfg = region.DefaultConfig(cfg.Threshold)
		if cfg.ConvergeRegister {
			// Blocks may freeze long before the cap; gate region
			// membership on the convergence floor instead.
			rcfg.MinUse = convergeMinUse
		}
	}
	return &Engine{
		cfg:          cfg,
		img:          img,
		st:           interp.NewState(img, tape),
		inPool:       make(map[int]bool),
		former:       region.NewFormer(rcfg),
		rts:          make(map[*profile.Region]*regionRT),
		trapAfter:    cfg.TrapAfter,
		interrupt:    cfg.Interrupt,
		optimize:     cfg.Optimize,
		converge:     cfg.ConvergeRegister,
		perf:         perf,
		samplePeriod: cfg.SamplePeriod,
		sampleGap:    samplePhase(cfg) + 1,
		regThreshold: sampleRegThreshold(cfg),
	}, nil
}

// State exposes the guest architectural state, letting tests
// cross-validate the translator against the reference interpreter.
func (e *Engine) State() *interp.State { return e.st }

// lookup returns the engine's block at addr, or nil. A follower's cache
// is its driver's, which runs ahead in the trace, so the driver's block
// counts only once the follower has translated that index too.
func (e *Engine) lookup(addr int) *tblock {
	e.stats.CacheLookups++
	if uint(addr) >= uint(len(e.cache)) || e.cache[addr] == nil {
		return nil
	}
	if id := int(e.cache[addr].id); id < len(e.blocks) {
		return e.blocks[id]
	}
	return nil
}

// Info implements region.Provider over the code cache.
func (e *Engine) Info(addr int) (region.BlockInfo, bool) {
	tb := e.lookup(addr)
	if tb == nil {
		return region.BlockInfo{}, false
	}
	// In convergence mode regions may only absorb blocks whose
	// estimates have stabilized: an unconverged probability would bake
	// noise into the region.
	if e.cfg.ConvergeRegister && tb.registrations == 0 && !tb.frozen {
		return region.BlockInfo{}, false
	}
	// Sampled counters are scaled to full-count estimates here, so the
	// region former's MinUse gate (threshold/2 under the default config)
	// admits the same hotness tier it would under full instrumentation.
	scale := e.sampleScale()
	return region.BlockInfo{
		Addr:        tb.addr,
		End:         tb.end,
		Use:         tb.use * scale,
		Taken:       tb.taken * scale,
		Term:        tb.term,
		TakenTarget: tb.takenTarget,
		FallTarget:  tb.fallTarget,
	}, true
}

// maxBlockLen caps a single translated block; synthetic blocks are far
// shorter, so hitting the cap indicates a malformed image.
const maxBlockLen = 4096

// decodeBlock decodes the guest block starting at addr into buf, which
// it truncates first, and returns the block's static fields and its
// instructions, terminator included. It reads only the image's code.
func decodeBlock(code []uint32, addr int, buf []isa.Inst) (*tblock, []isa.Inst, error) {
	tb := &tblock{addr: addr, takenTarget: -1, fallTarget: -1}
	insts := buf[:0]
	for pc := addr; ; pc++ {
		if pc < 0 || pc >= len(code) {
			return nil, insts, fmt.Errorf("dbt: block at %d runs off the code segment", addr)
		}
		in, err := isa.Decode(code[pc])
		if err != nil {
			return nil, insts, fmt.Errorf("dbt: translating block at %d: %w", addr, err)
		}
		insts = append(insts, in)
		tb.costSum += int32(in.Op.Cost())
		if in.Op.EndsBlock() {
			tb.end = pc
			switch {
			case in.Op.IsCondBranch():
				tb.term = region.TermBranch
				tb.hasBranch = true
				tb.takenTarget = pc + int(in.Imm)
				tb.fallTarget = pc + 1
			case in.Op == isa.OpJmp:
				tb.term = region.TermJump
				tb.takenTarget = pc + int(in.Imm)
			case in.Op == isa.OpCall:
				tb.term = region.TermOther
				tb.takenTarget = pc + int(in.Imm)
				tb.fallTarget = pc + 1
			default: // jr, ret, halt
				tb.term = region.TermOther
				tb.indirect = in.Op == isa.OpJr || in.Op == isa.OpRet
			}
			break
		}
		if len(insts) >= maxBlockLen {
			return nil, insts, fmt.Errorf("dbt: block at %d exceeds %d instructions", addr, maxBlockLen)
		}
	}
	tb.ninsts = uint32(len(insts))
	return tb, insts, nil
}

// translate appends the block starting at addr to the engine's blocks.
// An executing engine decodes it into its reused buffer, lowers it and
// files it in its cache. A follower copies the static fields of the
// driver's block at addr, which the driver translated no later in the
// trace; it decodes only where the driver's own translation failed, to
// fail with the same error.
func (e *Engine) translate(addr int) (*tblock, error) {
	var tb *tblock
	if uint(addr) < uint(len(e.cache)) && e.cache[addr] != nil {
		d := e.cache[addr]
		if len(e.slab) == 0 {
			e.slab = make([]tblock, 1)
		}
		tb, e.slab = &e.slab[0], e.slab[1:]
		*tb = tblock{addr: d.addr, takenTarget: d.takenTarget, fallTarget: d.fallTarget, end: d.end, term: d.term,
			costSum: d.costSum, ninsts: d.ninsts, hasBranch: d.hasBranch, indirect: d.indirect}
	} else {
		var err error
		if tb, e.insts, err = decodeBlock(e.img.Code, addr, e.insts); err != nil {
			return nil, err
		}
		e.lower(tb, e.insts)
		e.cache[addr] = tb
	}
	tb.id = int32(len(e.blocks))
	e.blocks = append(e.blocks, tb)
	tb.nextRegister = e.regThreshold
	e.stats.BlocksTranslated++
	if e.perf != nil {
		e.perf.ChargeTranslate(int(tb.ninsts))
	}
	return tb, nil
}

// A block's profiling is three steps, which fillBatch and drainBatch
// (multi.go) run directly in their loops, in this order, once the block
// tb has run, left through its taken edge if takenEdge, and reached next
// (nil while untranslated; the caller translates it afterwards, so
// translation charges follow this block's):
//
//   - sampledEvent advances the counters of an unfrozen block, and
//     registration runs when it reports a registration point. A sampled
//     engine (SamplePeriod > 1) runs the two only on its sampled events,
//     ticking its stride on every block event, frozen or not, so the
//     sampled-event set depends only on the engine's own event count
//     (the determinism contract of sampling.go). It runs neither step
//     below: nothing reads a cycle model or region cursor for a sampled
//     run, and without them a follower can skip straight from one
//     sampled event to the next (drainSampled);
//   - charge adds the block's cost to the batch's cycle sums by class;
//   - when cursorDue reports the region cursor has work, followRegion
//     enters next's region or steps along the current one's expected
//     path, and regionEdge takes the block out of its region when it
//     left it.
//
// Every piece but registration and regionEdge is small enough to
// inline into both loops (ci.sh checks sampledEvent, charge and
// followRegion): a steady-state context block, frozen and inside a
// region or outside any, then costs no call. Registrations are rare
// next to the blocks between them. Region exits are not (about one
// block in six leaves a region), so drainBatch's in-region loop runs
// the exit of a frozen block on the cursor itself, and regionEdge takes
// the rest: the serial loop's exits and a follower's general step.

// charge adds one executed block to the batch's cycle sums s and returns
// them: a frozen block runs at full optimized speed only while control
// follows one of its regions' expected paths (the cursor is on it),
// since frozen code reached outside a region context was retranslated
// for a different path. The sums pass by value so they stay in registers
// across a batch; endBatch hands them to the accumulator. An engine
// without a cycle model sums too, and its sums are dropped.
func (e *Engine) charge(s perfmodel.BlockSums, tb *tblock) perfmodel.BlockSums {
	c := uint64(tb.costSum)
	switch {
	case !tb.frozen:
		s.Quick += c
		s.Profiled++
	case e.onPath(tb):
		s.Optimized += c
	default:
		s.OffTrace += c
	}
	return s
}

// cursorDue reports whether the region cursor has work after a block
// that reached next: it is inside a region, or next enters one.
func (e *Engine) cursorDue(next *tblock) bool {
	return e.optimize && (e.curRegion != nil || next != nil && next.regionEntry != nil)
}

// followRegion moves the region cursor one step and reports whether
// that was all the block needed: entering next's region from outside
// any, or following the region's expected path, a loop-back to its
// entry included. Otherwise the block left its region, and the caller
// runs regionEdge. Leaving is rare next to the in-region steps, so only
// this part inlines.
func (e *Engine) followRegion(tb *tblock, takenEdge bool, next *tblock) bool {
	node := e.curNode
	if node == nil {
		// Outside any region, so next enters one (cursorDue).
		e.enterRegion(next.regionEntry)
		return true
	}
	if node.tb != tb {
		return false
	}
	nn := node.fall
	if takenEdge {
		nn = node.taken
	}
	if nn == nil {
		return false
	}
	if rt := e.curRegion; nn == rt.entry {
		rt.loopBacks++
	}
	e.curNode = nn
	return true
}

// regionEdge is the region cursor's outlined path after a block tb that
// left its region: a trace completes when the cursor ran off its last
// node on the expected path, and anything else is a side exit. The
// cursor then enters next's region if next is a region entry. A
// follower's in-region loop (drainBatch) does the same inline for a
// frozen block on the cursor, so its cursor and sums stay in registers
// across the exit; adaptive engines always come here, since a side
// exit may dissolve the region (leaveRegion).
func (e *Engine) regionEdge(tb, next *tblock) {
	rt := e.curRegion
	e.leaveRegion(rt.trace && e.onPath(tb) && e.curNode == rt.last)
	if next != nil && next.regionEntry != nil {
		e.enterRegion(next.regionEntry)
	}
}

// enterRegion puts the cursor on rt's entry.
func (e *Engine) enterRegion(rt *regionRT) {
	rt.entries++
	e.curRegion, e.curNode = rt, rt.entry
}

// onPath reports whether the region cursor is on tb: control is
// following one of its regions' expected paths.
func (e *Engine) onPath(tb *tblock) bool {
	return e.curNode != nil && e.curNode.tb == tb
}

// sampledEvent is the profiling of one counted block event, the one
// copy every loop shares: an unfrozen block's counters advance. It
// reports whether the block reached its next registration point (the
// precomputed next multiple of the threshold, or in convergence mode a
// check of its estimate); the caller then calls registration, which may
// run a wave. The split keeps sampledEvent small enough to inline into
// the replay loops, where registration is rare next to the counting.
func (e *Engine) sampledEvent(tb *tblock, takenEdge bool) bool {
	if tb.frozen {
		return false
	}
	tb.use++
	e.profOps++
	if tb.hasBranch && takenEdge {
		tb.taken++
		e.profOps++
	}
	return e.optimize && (e.converge || tb.use == tb.nextRegister)
}

// registration registers a block whose use count reached its next
// registration point (or, in convergence mode, whose estimate may have
// converged) and runs the wave that registration triggers.
func (e *Engine) registration(tb *tblock) {
	ready := true
	if e.converge {
		ready = e.shouldRegister(tb)
	} else {
		tb.nextRegister += e.regThreshold
	}
	if ready && e.register(tb) {
		e.optimizeWave()
	}
}

// shouldRegister decides whether the block's profile is ready for the
// candidate pool: at multiples of the fixed threshold (in sampled
// units when sampling), or — in convergence mode — as soon as the
// branch probability estimate has stabilized.
func (e *Engine) shouldRegister(tb *tblock) bool {
	if tb.use >= e.regThreshold && tb.use%e.regThreshold == 0 {
		return true
	}
	if !e.cfg.ConvergeRegister {
		return false
	}
	if tb.registrations > 0 {
		// Already in the pool: re-register occasionally so a stalled
		// pool (fewer candidates than the trigger) still flushes via
		// the register-twice rule instead of profiling to program end.
		return tb.use%1024 == 0
	}
	if tb.use < convergeMinUse || tb.use%convergeCheckEvery != 0 {
		return false
	}
	if !tb.hasBranch {
		// Nothing to converge: a non-branch block is ready once it has
		// shown it is warm.
		return true
	}
	eps := e.cfg.ConvergeEpsilon
	if eps <= 0 {
		eps = 0.02
	}
	p := float64(tb.taken) / float64(tb.use)
	half := 1.96 * math.Sqrt(p*(1-p)/float64(tb.use))
	return half < eps
}

// register adds a block to the candidate pool and reports whether an
// optimization wave should start.
func (e *Engine) register(tb *tblock) bool {
	tb.registrations++
	if tb.registrations >= 2 && e.cfg.RegisterTwice {
		return true
	}
	if !e.inPool[tb.addr] {
		e.inPool[tb.addr] = true
		e.pool = append(e.pool, tb.addr)
	}
	return len(e.pool) >= e.cfg.PoolTrigger
}

// optimizeWave runs one optimization wave over the current candidate
// pool.
func (e *Engine) optimizeWave() {
	e.stats.OptimizationWaves++
	e.stats.Retranslations += len(e.pool)
	formed := e.former.Form(e, e.pool)
	for _, r := range formed {
		rt := newRegionRT(r)
		instTotal := 0
		for i := range r.Blocks {
			// Every member was translated when the former read it (Info),
			// so each node gets its block.
			if tb := e.lookup(r.Blocks[i].Addr); tb != nil {
				instTotal += int(tb.ninsts)
				rt.nodes[i].tb, rt.nodes[i].id = tb, tb.id
			}
		}
		e.rts[r] = rt
		entryAddr := r.EntryBlock().Addr
		if tb := e.lookup(entryAddr); tb != nil && tb.regionEntry == nil {
			tb.regionEntry = rt
		}
		if e.perf != nil {
			e.perf.ChargeOptimize(instTotal)
		}
		e.regions = append(e.regions, r)
	}
	e.stats.RegionsFormed += len(formed)
	// Every candidate was retranslated by this wave, so profiling stops
	// for all of them (frozen counters), not only for region members.
	if !e.cfg.DisableFreeze {
		for _, addr := range e.pool {
			if tb := e.lookup(addr); tb != nil && !tb.frozen {
				tb.frozen = true
				e.stats.FreezeEvents++
			}
		}
		// Region members that were absorbed without being candidates
		// freeze too: they were rebuilt into region code.
		for _, r := range formed {
			for i := range r.Blocks {
				if tb := e.lookup(r.Blocks[i].Addr); tb != nil && !tb.frozen {
					tb.frozen = true
					e.stats.FreezeEvents++
				}
			}
		}
	}
	e.pool = e.pool[:0]
	for addr := range e.inPool {
		delete(e.inPool, addr)
	}
}

// leaveRegion closes out the current region execution and, in adaptive
// mode, dissolves regions whose side-exit rate shows the profile they
// were built from no longer describes the program.
func (e *Engine) leaveRegion(completed bool) {
	rt := e.curRegion
	if completed {
		rt.completions++
	} else {
		rt.sideExits++
	}
	e.curRegion = nil
	e.curNode = nil
	if e.cfg.Adaptive && !completed {
		e.maybeDissolve(rt)
	}
}

// maybeDissolve tears a misbehaving region down: its blocks lose their
// frozen counters and resume profiling from scratch, so a later
// optimization wave rebuilds regions from phase-current behaviour.
func (e *Engine) maybeDissolve(rt *regionRT) {
	if rt.dissolved {
		return
	}
	minEntries := e.cfg.AdaptiveMinEntries
	if minEntries == 0 {
		minEntries = 64
	}
	// For loop regions a side exit per entry is normal (the loop must
	// end); judge them by iterations per entry instead: a healthy loop
	// loops back far more often than it exits.
	var misbehaving bool
	if rt.r.Kind == profile.RegionLoop {
		visits := rt.loopBacks + rt.sideExits
		misbehaving = visits >= minEntries && float64(rt.sideExits)/float64(visits) > adaptiveSideExitRate
	} else {
		total := rt.completions + rt.sideExits
		misbehaving = total >= minEntries && float64(rt.sideExits)/float64(total) > adaptiveSideExitRate
	}
	if !misbehaving {
		return
	}
	rt.dissolved = true
	e.stats.RegionsDissolved++
	for i := range rt.r.Blocks {
		addr := rt.r.Blocks[i].Addr
		tb := e.lookup(addr)
		if tb == nil {
			continue
		}
		if tb.regionEntry == rt {
			tb.regionEntry = nil
		}
		// Fresh profile: the block re-enters the profiling phase as if
		// newly translated, so its next freeze reflects the current
		// phase.
		tb.frozen = false
		tb.use = 0
		tb.taken = 0
		tb.registrations = 0
		tb.nextRegister = e.regThreshold
		e.former.Unplace(addr)
	}
	// Drop the dissolved region from the run's output.
	for i, r := range e.regions {
		if r == rt.r {
			e.regions = append(e.regions[:i], e.regions[i+1:]...)
			break
		}
	}
}

// interruptCheckMask throttles the Interrupt poll to every 4096 block
// executions; a channel select per block would be measurable.
const interruptCheckMask = 1<<12 - 1

// start prepares the engine for stepping: the entry block is translated
// and becomes the execution cursor. An engine without its driver's cache
// allocates its own.
func (e *Engine) start() error {
	if e.cur != nil || e.halted {
		return fmt.Errorf("dbt: engine already ran")
	}
	if e.cache == nil {
		e.cache = make([]*tblock, len(e.img.Code))
	}
	tb := e.lookup(e.img.Entry)
	if tb == nil {
		var err error
		tb, err = e.translate(e.img.Entry)
		if err != nil {
			return err
		}
	}
	e.cur = tb
	return nil
}

//go:noinline
func (e *Engine) trapped() error {
	return fmt.Errorf("dbt: injected guest trap at block %d", e.stats.BlocksExecuted)
}

//go:noinline
func (e *Engine) pollInterrupt() error {
	select {
	case <-e.interrupt:
		return ErrInterrupted
	default:
	}
	return nil
}

// chain records next as the successor tb's fired edge reached, so the
// next resolution of the same transfer skips the code-cache lookup.
// Indirect terminators additionally file the target in their itab:
// their single edge pointer churns whenever the data-driven target
// alternates, and the table catches what the pointer evicts.
func (e *Engine) chain(tb *tblock, takenEdge bool, next *tblock) {
	if takenEdge {
		tb.takenBlk = next
	} else {
		tb.fallBlk = next
	}
	if tb.indirect {
		if tb.itab == nil {
			tb.itab = new([indirectWays]*tblock)
		}
		tb.itab[next.addr&(indirectWays-1)] = next
	}
}

// finish packages the snapshot and statistics of a completed run.
func (e *Engine) finish() (*profile.Snapshot, *RunStats, error) {
	snap := e.snapshot()
	// The region execution counters are kept per region (the adaptive
	// mode judges each region by its own); the run's totals are their
	// sums, over dissolved regions too. Every side exit costs the cycle
	// model one penalty, charged here from the total rather than per exit.
	for _, rt := range e.rts {
		e.stats.RegionEntries += rt.entries
		e.stats.RegionCompletions += rt.completions
		e.stats.RegionLoopBacks += rt.loopBacks
		e.stats.RegionSideExits += rt.sideExits
	}
	if e.perf != nil {
		e.perf.ChargeSideExits(e.stats.RegionSideExits)
		e.perf.Finish()
		e.stats.Cycles = e.perf.Cycles
		snap.Cycles = uint64(e.perf.Cycles)
	}
	stats := e.stats
	return snap, &stats, nil
}

// Run executes the guest to completion and returns the profile snapshot
// and run statistics. Execution goes through the same batched loop
// RunMulti's driver uses (fillBatch in multi.go); the recorded batches
// are simply discarded.
func (e *Engine) Run() (*profile.Snapshot, *RunStats, error) {
	if err := e.start(); err != nil {
		return nil, nil, err
	}
	buf := make([]outcome, 0, replayBatch)
	for !e.halted {
		if _, err := e.fillBatch(buf[:0]); err != nil {
			return nil, nil, err
		}
	}
	return e.finish()
}

// snapshot builds the INIP/AVEP profile of the finished run.
func (e *Engine) snapshot() *profile.Snapshot {
	input := e.cfg.Input
	if input == "" {
		input = "ref"
	}
	snap := &profile.Snapshot{Program: e.img.Name, Input: input, Optimized: e.cfg.Optimize}
	if e.cfg.Optimize {
		snap.Threshold = e.cfg.Threshold
	}
	// Blocks outside regions share one array, as UnmarshalBinary's do.
	n := 0
	for _, tb := range e.blocks {
		if !e.former.Placed(tb.addr) {
			n++
		}
	}
	blocks := make([]profile.Block, 0, n)
	snap.Blocks = make(map[int]*profile.Block, n)
	// Sampled counters leave the engine scaled to full-count estimates,
	// exactly as region formation saw them (Engine.Info), so snapshot
	// consumers — navep averaging, mismatch metrics, the threshold
	// pipeline — need no sampling awareness.
	scale := e.sampleScale()
	for _, tb := range e.blocks {
		if e.former.Placed(tb.addr) {
			continue // reported inside a region with frozen counters
		}
		blocks = append(blocks, profile.Block{
			Addr:        tb.addr,
			End:         tb.end,
			Use:         tb.use * scale,
			Taken:       tb.taken * scale,
			HasBranch:   tb.hasBranch,
			TakenTarget: tb.takenTarget,
			FallTarget:  tb.fallTarget,
		})
		snap.Blocks[tb.addr] = &blocks[len(blocks)-1]
	}
	snap.Regions = e.regions
	if e.cfg.ContinuousTripCount {
		for _, r := range snap.Regions {
			if rt := e.rts[r]; rt != nil {
				if lp, ok := rt.continuousLP(); ok {
					r.ContinuousLP = lp
					r.HasContinuousLP = true
				}
			}
		}
	}
	snap.ProfilingOps = e.profOps
	snap.BlocksExecuted = e.stats.BlocksExecuted
	snap.Instructions = e.stats.Instructions
	return snap
}

// Run is a convenience wrapper: build an engine, run it, return the
// snapshot and stats.
func Run(img *guest.Image, tape interp.Tape, cfg Config) (*profile.Snapshot, *RunStats, error) {
	e, err := New(img, tape, cfg)
	if err != nil {
		return nil, nil, err
	}
	return e.Run()
}
