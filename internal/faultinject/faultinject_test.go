package faultinject

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestParseAndMatch(t *testing.T) {
	p, err := Parse("build:gzip/ref, trap:swim@5000, slow:mcf/train_compare:10ms, panic:vpr/train")
	if err != nil {
		t.Fatal(err)
	}

	// Build fault: fires every time its site is reached.
	for i := 0; i < 2; i++ {
		if err := p.BuildError("gzip", "ref"); err == nil {
			t.Fatalf("build fire %d: armed build fault did not fire", i)
		}
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

	// Unit-qualified slow fault.
	if d := p.Delay("mcf", "train"); d != 0 {
		t.Fatalf("slow fault fired for the wrong unit: %v", d)
	}
	if d := p.Delay("mcf", "train_compare"); d != 10*time.Millisecond {
		t.Fatalf("Delay = %v, want 10ms", d)
	}

	if _, ok := p.PanicMessage("vpr", "ref"); ok {
		t.Fatal("panic fault fired for the wrong unit")
	}
	if msg, ok := p.PanicMessage("vpr", "train"); !ok || !strings.Contains(msg, "vpr/train") {
		t.Fatalf("PanicMessage = (%q, %v)", msg, ok)
	}
}

func TestWildcardBench(t *testing.T) {
	p, err := Parse("panic:*/train_compare")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.PanicMessage("anything", "train_compare"); !ok {
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
	if d := p.Delay("gzip", "ref"); d != 0 {
		t.Fatal("nil plan delayed")
	}
	if _, ok := p.PanicMessage("gzip", "ref"); ok {
		t.Fatal("nil plan panicked")
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
		"build:gzip*0",       // "*" embedded in a bench name
		"build:gzip/ref*2",   // no repeat counts: faults never disarm
		"trap:gzip",          // missing trap point
		"trap:gzip@0",        // zero trap point
		"trap:gzip@soon",     // bad trap point
		"slow:gzip/ref",      // missing duration
		"slow:gzip/ref:fast", // bad duration
		"panic:gzip",         // missing unit
		"panic:gzip/ref@0",   // no threshold qualifier
		"seed:x",             // bad seed
		"build:*0/",          // "*" embedded in a bench name
		"panic:gzip/u*nit@5", // "*" embedded in a unit name
		"build: /",           // whitespace bench name (fuzz find: its
		//	canonical String form "build: " has no bench name)
		"panic:gzip/ unit", // whitespace around a unit name
		"net:drop:x",       // network faults are not a fault kind
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

// TestUnitSitesFailClosed: a slow or panic site accepts exactly the
// units the pipeline runs under its failure policy, plus "*". Any other
// name — a span that is not a unit, a unit the pipeline no longer has,
// a threshold qualifier no unit carries — is a parse error naming the
// value, not a fault that never fires.
func TestUnitSitesFailClosed(t *testing.T) {
	for _, tc := range []struct {
		unit string
		ok   bool
	}{
		{"ref", true},
		{"train", true},
		{"train_compare", true},
		{"*", true},
		{"compare", false},
		{"sample_compare", false},
		{"learned_collect", false},
		{"learned_fit", false},
		{"build", false},
		{"cache_hit", false},
		{"run", false},
		{"ref@100", false},
		{"Ref", false},
	} {
		for _, spec := range []string{"panic:gzip/" + tc.unit, "slow:gzip/" + tc.unit + ":1ms"} {
			_, err := Parse(spec)
			switch {
			case tc.ok && err != nil:
				t.Errorf("Parse(%q) = %v, want accepted", spec, err)
			case !tc.ok && err == nil:
				t.Errorf("Parse(%q) accepted a unit no fault site reaches", spec)
			case !tc.ok && !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.unit)):
				t.Errorf("Parse(%q) = %v, want the error to name %q", spec, err, tc.unit)
			}
		}
	}
}

func TestStringRoundTripsArmedState(t *testing.T) {
	p, err := Parse("build:gzip/ref,slow:mcf/ref:5ms")
	if err != nil {
		t.Fatal(err)
	}
	const want = "build:gzip/ref,slow:mcf/ref:5ms"
	if s := p.String(); s != want {
		t.Fatalf("String() = %q, want %q", s, want)
	}
	// Firing a fault does not disarm it, so the rendered plan is stable.
	p.BuildError("gzip", "ref")
	if s := p.String(); s != want {
		t.Fatalf("String() after a fire = %q, want %q", s, want)
	}
}
