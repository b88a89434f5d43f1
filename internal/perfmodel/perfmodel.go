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

// Accumulator tallies the simulated cycles of one run.
type Accumulator struct {
	p Params
	// Cycles is the running total.
	Cycles float64
	// Breakdown for reporting and the ablation benches.
	TranslateCycles float64
	OptimizeCycles  float64
	QuickCycles     float64
	ProfileCycles   float64
	OptimizedCycles float64
	OffTraceCycles  float64
	PenaltyCycles   float64
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
	c := float64(a.p.ColdPerInst * float64(n))
	a.TranslateCycles += c
	a.Cycles += c
}

// ChargeOptimize records the one-time optimization of a region totalling
// n instructions.
func (a *Accumulator) ChargeOptimize(n int) {
	c := float64(a.p.OptPerInst * float64(n))
	a.OptimizeCycles += c
	a.Cycles += c
}

// ChargeQuickBlock records one execution of a profiling-mode block whose
// instructions sum to cost guest cycles.
func (a *Accumulator) ChargeQuickBlock(cost int) {
	q := float64(a.p.QuickFactor * float64(cost))
	a.QuickCycles += q
	a.ProfileCycles += a.p.ProfOverhead
	a.Cycles += q + a.p.ProfOverhead
}

// ChargeOptimizedBlock records one execution of an optimized block on
// its region's expected path.
func (a *Accumulator) ChargeOptimizedBlock(cost int) {
	c := float64(a.p.OptFactor * float64(cost))
	a.OptimizedCycles += c
	a.Cycles += c
}

// ChargeOffTraceBlock records one execution of a retranslated block
// outside any region context.
func (a *Accumulator) ChargeOffTraceBlock(cost int) {
	c := float64(a.p.OffTraceFactor * float64(cost))
	a.OffTraceCycles += c
	a.Cycles += c
}

// ChargeSideExit records one off-trace exit from an optimized region.
func (a *Accumulator) ChargeSideExit() {
	a.PenaltyCycles += a.p.SideExitPenalty
	a.Cycles += a.p.SideExitPenalty
}
