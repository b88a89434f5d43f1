package dbt

import (
	"fmt"
	"strings"
)

// Fingerprint renders every Config field that can influence a run's
// observable result — snapshot, stats, cycles — as a canonical string
// for result-cache keying (internal/resultcache). Two configs with the
// same fingerprint must produce identical results on the same image and
// tape; any semantic knob added to Config MUST be added here, which is
// why the rendering enumerates fields explicitly instead of reflecting
// over the struct (reflection would silently fold new fields into old
// fingerprints... backwards).
//
// Deliberately excluded, because they cannot change a *completed* run's
// result:
//
//   - Interrupt: an interrupted run is never cached at all;
//   - DisableFastPath: the generic dispatch path is defined (and
//     tested) to be result-equivalent to the lowered fast path.
//
// Perf participates only through its Params — the accumulator itself is
// an output channel, but its coefficients determine the Cycles value. A
// sampled run (SamplePeriod > 1) runs no cycle model, so it renders
// perf=off whatever Perf holds.
func (c Config) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "input=%s;t=%d;opt=%t;pool=%d;reg2=%t;nofreeze=%t",
		c.Input, c.Threshold, c.Optimize, c.PoolTrigger, c.RegisterTwice, c.DisableFreeze)
	fmt.Fprintf(&b, ";region=%g,%d,%d,%t",
		c.Region.MinProb, c.Region.MaxBlocks, c.Region.MinUse, c.Region.Diamonds)
	if c.Perf != nil && c.SamplePeriod <= 1 {
		p := c.Perf.Params()
		fmt.Fprintf(&b, ";perf=%g,%g,%g,%g,%g,%g,%g",
			p.ColdPerInst, p.OptPerInst, p.QuickFactor, p.ProfOverhead,
			p.OptFactor, p.OffTraceFactor, p.SideExitPenalty)
	} else {
		b.WriteString(";perf=off")
	}
	fmt.Fprintf(&b, ";maxexec=%d;trap=%d", c.MaxBlockExecs, c.TrapAfter)
	fmt.Fprintf(&b, ";adaptive=%t,%g,%d", c.Adaptive, c.AdaptiveSideExitRate, c.AdaptiveMinEntries)
	fmt.Fprintf(&b, ";trip=%t", c.ContinuousTripCount)
	fmt.Fprintf(&b, ";converge=%t,%g,%d", c.ConvergeRegister, c.ConvergeEpsilon, c.ConvergeMinUse)
	// Sampled profiling is appended only when enabled, so every
	// fingerprint written before the knob existed — and thus every
	// result-cache key of a full-instrumentation run — stays
	// byte-identical. SampleSeed shifts the stride phase, which moves
	// counters, so it is part of the key.
	if c.SamplePeriod > 0 {
		fmt.Fprintf(&b, ";sample=%d,%d", c.SamplePeriod, c.SampleSeed)
	}
	return b.String()
}
