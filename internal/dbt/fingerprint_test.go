package dbt

import (
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
