// Package perfmodel is the cycle-cost model behind the paper's Figure 17
// (performance impact of initial profiles).
//
// The paper measures wall-clock SPEC2000 performance under IA32EL on an
// Itanium 2. That hardware pipeline is out of scope; what Figure 17
// actually demonstrates is the interaction of four cost terms, which the
// model makes explicit:
//
//  1. quick-translated code is slower than optimized code and pays a
//     per-execution profiling overhead, so a high retranslation
//     threshold keeps the program in slow code too long;
//  2. translation and optimization are one-time costs, so optimizing
//     everything immediately (T=1) wastes work on cold code;
//  3. optimized regions formed from an unrepresentative initial profile
//     take side exits, each costing a penalty, so optimizing too early
//     can produce slow "optimized" code;
//  4. on-trace execution of well-formed regions is the payoff.
//
// The defaults are loosely calibrated to the ratios reported for IA32EL
// (translation overhead small relative to execution, optimized code
// roughly 1.5-2x faster than quick-translated code).
//
// Charges are integer: the accumulator sums instructions, guest cost
// units and events per cost class, and Finish turns the seven sums into
// cycles once, at the end of a run. Cycles are therefore exact in the
// sums and independent of the order charges arrive in.
package perfmodel

// Params are the model's cost coefficients, in abstract cycles.
type Params struct {
	// ColdPerInst is the one-time cost of quick-translating one guest
	// instruction.
	ColdPerInst float64
	// OptPerInst is the one-time cost of optimizing one instruction of
	// a region (region formation, scheduling, code generation).
	OptPerInst float64
	// QuickFactor multiplies guest instruction cost in quick-translated
	// (profiling) code.
	QuickFactor float64
	// ProfOverhead is the per-block-execution cost of the use/taken
	// counter updates.
	ProfOverhead float64
	// OptFactor multiplies guest instruction cost when executing inside
	// an optimized region on its expected path: the payoff of region
	// scheduling.
	OptFactor float64
	// OffTraceFactor multiplies guest instruction cost for optimized
	// (retranslated) blocks executed outside any region context:
	// region formation optimized some other path, so this code runs
	// without profiling but also without scheduling benefit.
	OffTraceFactor float64
	// SideExitPenalty is charged whenever execution leaves an optimized
	// region off its expected path (branch repair, register
	// reshuffling, returning to the dispatcher).
	SideExitPenalty float64
}

// DefaultParams returns the reference calibration.
func DefaultParams() Params {
	return Params{
		ColdPerInst:     60,
		OptPerInst:      4500,
		QuickFactor:     1.35,
		ProfOverhead:    1.5,
		OptFactor:       0.85,
		OffTraceFactor:  1.12,
		SideExitPenalty: 8,
	}
}

// Accumulator tallies the simulated cost of one run as seven integer
// class sums: every charge adds whole instructions, whole guest cost
// units or whole events, so the sums are exact and do not depend on the
// order the charges arrive in. That lets a replay loop collect a
// batch's block charges in registers (BlockSums) and add them once.
//
// The cycle figures are computed from the sums by Finish: Cycles and
// the breakdown fields are zero until then, and valid after it. A dbt
// engine calls Finish when its run ends, so they are valid when dbt.Run
// or dbt.RunMulti returns.
type Accumulator struct {
	p Params

	// Class sums, in the order Finish adds their cycle terms.
	translatedInsts uint64 // quick-translated instructions
	optimizedInsts  uint64 // instructions of formed regions
	blocks          BlockSums
	sideExits       uint64

	// Cycles is the total, valid after Finish.
	Cycles float64
	// Breakdown for reporting and the ablation benches, valid after
	// Finish; Cycles adds them in this order.
	TranslateCycles float64
	OptimizeCycles  float64
	QuickCycles     float64
	ProfileCycles   float64
	OptimizedCycles float64
	OffTraceCycles  float64
	PenaltyCycles   float64
}

// BlockSums are the per-execution class sums of a stretch of executed
// blocks. It is a small value type on purpose: a replay loop passes it
// by value through its charge step, so the sums stay in registers, and
// adds it to the accumulator once per batch (ChargeBlocks).
type BlockSums struct {
	// Quick is the guest cost of profiling-mode (quick-translated)
	// block executions, and Profiled counts those executions.
	Quick, Profiled uint64
	// Optimized is the guest cost of optimized blocks executed on their
	// region's expected path.
	Optimized uint64
	// OffTrace is the guest cost of retranslated blocks executed outside
	// any region context.
	OffTrace uint64
}

// NewAccumulator returns an accumulator using the given parameters.
func NewAccumulator(p Params) *Accumulator {
	return &Accumulator{p: p}
}

// Params returns the parameters in use.
func (a *Accumulator) Params() Params { return a.p }

// ChargeTranslate records the one-time quick translation of a block of n
// instructions.
func (a *Accumulator) ChargeTranslate(n int) {
	a.translatedInsts += uint64(n)
}

// ChargeOptimize records the one-time optimization of a region totalling
// n instructions.
func (a *Accumulator) ChargeOptimize(n int) {
	a.optimizedInsts += uint64(n)
}

// ChargeBlocks records the block executions summed in s.
func (a *Accumulator) ChargeBlocks(s BlockSums) {
	a.blocks.Quick += s.Quick
	a.blocks.Profiled += s.Profiled
	a.blocks.Optimized += s.Optimized
	a.blocks.OffTrace += s.OffTrace
}

// ChargeSideExits records n off-trace exits from optimized regions. A
// dbt engine counts its side exits per region and charges the run's
// total once, when the run ends, so no replay loop calls it per exit.
func (a *Accumulator) ChargeSideExits(n uint64) {
	a.sideExits += n
}

// Finish computes Cycles and the breakdown from the class sums. Each
// term is one rounded product of a coefficient and a sum, and the terms
// are added in a fixed order, so the result depends only on the sums.
// Finish may be called again after further charges.
func (a *Accumulator) Finish() {
	term := func(coef float64, sum uint64) float64 { return float64(coef * float64(sum)) }
	a.TranslateCycles = term(a.p.ColdPerInst, a.translatedInsts)
	a.OptimizeCycles = term(a.p.OptPerInst, a.optimizedInsts)
	a.QuickCycles = term(a.p.QuickFactor, a.blocks.Quick)
	a.ProfileCycles = term(a.p.ProfOverhead, a.blocks.Profiled)
	a.OptimizedCycles = term(a.p.OptFactor, a.blocks.Optimized)
	a.OffTraceCycles = term(a.p.OffTraceFactor, a.blocks.OffTrace)
	a.PenaltyCycles = term(a.p.SideExitPenalty, a.sideExits)
	a.Cycles = a.TranslateCycles + a.OptimizeCycles + a.QuickCycles + a.ProfileCycles +
		a.OptimizedCycles + a.OffTraceCycles + a.PenaltyCycles
}
