package dbt

import "strconv"

// Fingerprint renders every Config field that can influence a run's
// observable result — snapshot, stats, cycles — as a canonical string
// for result-cache keying (internal/resultcache). Two configs with the
// same fingerprint must produce identical results on the same image and
// tape; any semantic knob added to Config MUST be added here, which is
// why the rendering enumerates fields explicitly instead of reflecting
// over the struct (reflection would silently fold new fields into old
// fingerprints... backwards).
//
// Deliberately excluded is Interrupt, which cannot change a *completed*
// run's result: an interrupted run is never cached at all.
//
// Perf participates only through its Params — the accumulator itself is
// an output channel, but its coefficients determine the Cycles value. A
// sampled run (SamplePeriod > 1) runs no cycle model, so it renders
// perf=off whatever Perf holds.
//
// The rendering appends with strconv into one buffer: a float renders
// as fmt's %g would (strconv's 'g' at precision -1) and a bool as %t.
func (c Config) Fingerprint() string {
	return string(c.AppendFingerprint(make([]byte, 0, 192)))
}

// AppendFingerprint appends the config's Fingerprint to dst, so a key
// that joins several configs renders them into one buffer.
func (c Config) AppendFingerprint(dst []byte) []byte {
	b := append(dst, "input="...)
	b = append(b, c.Input...)
	b = appendUint(b, ";t=", c.Threshold)
	b = appendBool(b, ";opt=", c.Optimize)
	b = strconv.AppendInt(append(b, ";pool="...), int64(c.PoolTrigger), 10)
	b = appendBool(b, ";reg2=", c.RegisterTwice)
	b = appendBool(b, ";nofreeze=", c.DisableFreeze)
	b = appendFloat(b, ";region=", c.Region.MinProb)
	b = strconv.AppendInt(append(b, ','), int64(c.Region.MaxBlocks), 10)
	b = appendUint(b, ",", c.Region.MinUse)
	b = appendBool(b, ",", c.Region.Diamonds)
	if c.Perf != nil && c.SamplePeriod <= 1 {
		p := c.Perf.Params()
		b = appendFloat(b, ";perf=", p.ColdPerInst)
		for _, v := range [...]float64{p.OptPerInst, p.QuickFactor, p.ProfOverhead, p.OptFactor, p.OffTraceFactor, p.SideExitPenalty} {
			b = appendFloat(b, ",", v)
		}
	} else {
		b = append(b, ";perf=off"...)
	}
	b = appendUint(b, ";trap=", c.TrapAfter)
	b = appendBool(b, ";adaptive=", c.Adaptive)
	b = appendUint(b, ",", c.AdaptiveMinEntries)
	b = appendBool(b, ";trip=", c.ContinuousTripCount)
	b = appendBool(b, ";converge=", c.ConvergeRegister)
	b = appendFloat(b, ",", c.ConvergeEpsilon)
	// Sampled profiling is appended only when enabled, so every
	// fingerprint written before the knob existed — and thus every
	// result-cache key of a full-instrumentation run — stays
	// byte-identical. SampleSeed shifts the stride phase, which moves
	// counters, so it is part of the key.
	if c.SamplePeriod > 0 {
		b = appendUint(b, ";sample=", c.SamplePeriod)
		b = appendUint(b, ",", c.SampleSeed)
	}
	return b
}

func appendUint(b []byte, sep string, v uint64) []byte {
	return strconv.AppendUint(append(b, sep...), v, 10)
}

func appendBool(b []byte, sep string, v bool) []byte {
	return strconv.AppendBool(append(b, sep...), v)
}

func appendFloat(b []byte, sep string, v float64) []byte {
	return strconv.AppendFloat(append(b, sep...), v, 'g', -1, 64)
}
