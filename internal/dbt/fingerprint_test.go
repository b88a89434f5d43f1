package dbt

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/region"
)

func TestFingerprintSeparatesSemanticFields(t *testing.T) {
	base := Config{Input: "ref", Threshold: 5, Optimize: true, PoolTrigger: 8, RegisterTwice: true}
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"input", func(c *Config) { c.Input = "train" }},
		{"threshold", func(c *Config) { c.Threshold = 7 }},
		{"optimize", func(c *Config) { c.Optimize = false }},
		{"pool", func(c *Config) { c.PoolTrigger = 16 }},
		{"reg2", func(c *Config) { c.RegisterTwice = false }},
		{"freeze", func(c *Config) { c.DisableFreeze = true }},
		{"region", func(c *Config) { c.Region = region.Config{MinProb: 0.9} }},
		{"perf", func(c *Config) { c.Perf = perfmodel.NewAccumulator(perfmodel.DefaultParams()) }},
		{"trap", func(c *Config) { c.TrapAfter = 500 }},
		{"adaptive", func(c *Config) { c.Adaptive = true }},
		{"adaptive-min", func(c *Config) { c.AdaptiveMinEntries = 10 }},
		{"trip", func(c *Config) { c.ContinuousTripCount = true }},
		{"converge", func(c *Config) { c.ConvergeRegister = true }},
		{"converge-eps", func(c *Config) { c.ConvergeEpsilon = 0.05 }},
	}
	seen := map[string]string{base.Fingerprint(): "base"}
	for _, m := range mutations {
		c := base
		m.mut(&c)
		fp := c.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("mutation %q collides with %q: %s", m.name, prev, fp)
		}
		seen[fp] = m.name
	}
}

func TestFingerprintExcludesNonSemanticFields(t *testing.T) {
	base := Config{Input: "ref", Threshold: 5, Optimize: true}
	withInterrupt := base
	withInterrupt.Interrupt = make(chan struct{})
	if base.Fingerprint() != withInterrupt.Fingerprint() {
		t.Error("Interrupt changed the fingerprint; interrupted runs are never cached, so it must not")
	}
}

func TestFingerprintPerfParamsMatter(t *testing.T) {
	p := perfmodel.DefaultParams()
	a := Config{Perf: perfmodel.NewAccumulator(p)}
	p.QuickFactor *= 2
	b := Config{Perf: perfmodel.NewAccumulator(p)}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different perf params share a fingerprint; cached Cycles would be wrong")
	}
	if !strings.Contains(a.Fingerprint(), "perf=") {
		t.Errorf("fingerprint %q lacks a perf component", a.Fingerprint())
	}
}

// fmtFingerprint is the fmt rendering Fingerprint had before it
// appended with strconv, kept as the oracle of its bytes: every cache
// key embeds them.
func fmtFingerprint(c Config) string {
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
	fmt.Fprintf(&b, ";trap=%d", c.TrapAfter)
	fmt.Fprintf(&b, ";adaptive=%t,%d", c.Adaptive, c.AdaptiveMinEntries)
	fmt.Fprintf(&b, ";trip=%t", c.ContinuousTripCount)
	fmt.Fprintf(&b, ";converge=%t,%g", c.ConvergeRegister, c.ConvergeEpsilon)
	if c.SamplePeriod > 0 {
		fmt.Fprintf(&b, ";sample=%d,%d", c.SamplePeriod, c.SampleSeed)
	}
	return b.String()
}

// fingerprintOracleConfigs spans every rendered field: perf on and off,
// sampled with a seed (which also turns perf off), adaptive, converge,
// extreme integers and floats whose shortest rendering switches to an
// exponent.
func fingerprintOracleConfigs() []Config {
	awkward := []float64{0, 0.1, 1e-7, 3e21, 1e21, 1e20, 123456789, 0.7, 2.0 / 3, -0.5,
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	var cfgs []Config
	for i, f := range awkward {
		p := perfmodel.DefaultParams()
		p.ColdPerInst, p.SideExitPenalty = f, awkward[(i+3)%len(awkward)]
		c := Config{
			Input: fmt.Sprintf("in%d", i), Threshold: uint64(i) * 1000, Optimize: i%2 == 0,
			PoolTrigger: i - 3, RegisterTwice: i%3 == 0, DisableFreeze: i%4 == 1,
			Region:             region.Config{MinProb: f, MaxBlocks: -i, MinUse: uint64(i), Diamonds: i%2 == 1},
			Perf:               perfmodel.NewAccumulator(p),
			TrapAfter:          uint64(i) << 40,
			Adaptive:           i%5 == 0,
			AdaptiveMinEntries: uint64(i),
			ConvergeRegister:   i%2 == 0,
			ConvergeEpsilon:    awkward[(i+7)%len(awkward)],
		}
		cfgs = append(cfgs, c)
		off := c
		off.Perf = nil
		off.ContinuousTripCount = true
		cfgs = append(cfgs, off)
		sampled := c
		sampled.SamplePeriod, sampled.SampleSeed = uint64(i), math.MaxUint64-uint64(i)
		cfgs = append(cfgs, sampled)
	}
	return append(cfgs, Config{}, Config{Threshold: math.MaxUint64, PoolTrigger: math.MinInt, TrapAfter: math.MaxUint64})
}

func TestFingerprintMatchesFmtRendering(t *testing.T) {
	for i, c := range fingerprintOracleConfigs() {
		if got, want := c.Fingerprint(), fmtFingerprint(c); got != want {
			t.Errorf("config %d: Fingerprint %q, fmt rendering %q", i, got, want)
		}
	}
}

func FuzzFingerprintMatchesFmtRendering(f *testing.F) {
	f.Add("ref", uint64(500), true, 8, 0.7, uint64(0), uint64(0), 0.02, true)
	f.Add("train", uint64(0), false, -1, 1e-7, uint64(4), uint64(3), 3e21, false)
	f.Fuzz(func(t *testing.T, input string, threshold uint64, opt bool, pool int, prob float64, period, seed uint64, eps float64, perf bool) {
		p := perfmodel.DefaultParams()
		p.QuickFactor, p.OffTraceFactor = prob, eps
		c := Config{Input: input, Threshold: threshold, Optimize: opt, PoolTrigger: pool,
			Region:       region.Config{MinProb: prob, MaxBlocks: pool, MinUse: seed, Diamonds: opt},
			Adaptive:     perf != opt,
			SamplePeriod: period, SampleSeed: seed, ConvergeRegister: perf, ConvergeEpsilon: eps}
		if perf {
			c.Perf = perfmodel.NewAccumulator(p)
		}
		if got, want := c.Fingerprint(), fmtFingerprint(c); got != want {
			t.Fatalf("Fingerprint %q, fmt rendering %q", got, want)
		}
	})
}
