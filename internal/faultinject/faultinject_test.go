package faultinject

import (
	"strings"
	"testing"
	"time"
)

func TestParseAndMatch(t *testing.T) {
	p, err := Parse("build:gzip/ref*1, trap:swim@5000, slow:mcf/compare@50:10ms, panic:vpr/train")
	if err != nil {
		t.Fatal(err)
	}

	// Bounded build fault: fires once, then disarms.
	if err := p.BuildError("gzip", "ref"); err == nil {
		t.Fatal("armed build fault did not fire")
	}
	if err := p.BuildError("gzip", "ref"); err != nil {
		t.Fatalf("*1 fault fired twice: %v", err)
	}
	// Input-qualified: the train build is untouched.
	if err := p.BuildError("gzip", "train"); err != nil {
		t.Fatalf("train build hit a ref-only fault: %v", err)
	}

	// Unbounded trap: fires repeatedly, only on the matching bench.
	for i := 0; i < 3; i++ {
		if n, ok := p.Trap("swim", "ref"); !ok || n != 5000 {
			t.Fatalf("trap fire %d: got (%d, %v)", i, n, ok)
		}
	}
	if _, ok := p.Trap("gzip", "ref"); ok {
		t.Fatal("trap fired for the wrong benchmark")
	}

	// Threshold-qualified slow fault.
	if d := p.Delay("mcf", "compare", 100); d != 0 {
		t.Fatalf("slow fault fired at wrong T: %v", d)
	}
	if d := p.Delay("mcf", "compare", 50); d != 10*time.Millisecond {
		t.Fatalf("Delay = %v, want 10ms", d)
	}

	if _, ok := p.PanicMessage("vpr", "ref", 0); ok {
		t.Fatal("panic fault fired for the wrong unit")
	}
	if msg, ok := p.PanicMessage("vpr", "train", 0); !ok || !strings.Contains(msg, "vpr/train") {
		t.Fatalf("PanicMessage = (%q, %v)", msg, ok)
	}
}

func TestWildcardBench(t *testing.T) {
	p, err := Parse("panic:*/compare")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.PanicMessage("anything", "compare", 42); !ok {
		t.Fatal("wildcard bench did not match")
	}
}

func TestSeededAutoTrap(t *testing.T) {
	parse := func(spec string) uint64 {
		p, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		n, ok := p.Trap("gzip", "ref")
		if !ok {
			t.Fatal("auto trap not armed")
		}
		return n
	}
	a := parse("seed:7,trap:gzip@auto")
	b := parse("trap:gzip@auto,seed:7") // seed position must not matter
	c := parse("seed:8,trap:gzip@auto")
	if a == 0 || a > autoTrapRange {
		t.Fatalf("auto trap point %d out of range", a)
	}
	if a != b {
		t.Fatalf("same seed, different trap points: %d vs %d", a, b)
	}
	if a == c {
		t.Fatalf("different seeds, same trap point %d", a)
	}
}

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if err := p.BuildError("gzip", "ref"); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Trap("gzip", "ref"); ok {
		t.Fatal("nil plan trapped")
	}
	if d := p.Delay("gzip", "ref", 0); d != 0 {
		t.Fatal("nil plan delayed")
	}
	if _, ok := p.PanicMessage("gzip", "ref", 0); ok {
		t.Fatal("nil plan panicked")
	}
	if !p.Empty() {
		t.Fatal("nil plan not empty")
	}
	if p.String() != "" {
		t.Fatal("nil plan has a string")
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"boom",               // no kind separator
		"jitter:gzip",        // unknown kind
		"build:",             // missing bench
		"build:gzip/warm",    // unknown input
		"build:gzip*0",       // zero repeat
		"trap:gzip",          // missing trap point
		"trap:gzip@0",        // zero trap point
		"trap:gzip@soon",     // bad trap point
		"slow:gzip/ref",      // missing duration
		"slow:gzip/ref:fast", // bad duration
		"panic:gzip",         // missing unit
		"panic:gzip/ref@0",   // zero threshold
		"seed:x",             // bad seed
		"build:*0/",          // "*" embedded in a bench name (fuzz find:
		//	its canonical String form "build:*0" re-parses the name's
		//	tail as a repeat count)
		"panic:gzip/u*nit@5", // "*" embedded in a unit name
		"net:drop:x",         // network faults are not a fault kind
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestStringRoundTripsArmedState(t *testing.T) {
	p, err := Parse("build:gzip/ref*2,slow:mcf/ref:5ms")
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	for _, want := range []string{"build:gzip/ref*2", "slow:mcf/ref:5ms"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
	if p.Empty() {
		t.Fatal("armed plan reported empty")
	}
	p.BuildError("gzip", "ref")
	p.BuildError("gzip", "ref")
	if p.Empty() {
		t.Fatal("slow fault still armed, plan reported empty")
	}
}
