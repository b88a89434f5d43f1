// Package faultinject provides deterministic fault injection for the
// study pipeline: a Plan of armed failure sites, parsed from a compact
// spec string, that the executor consults at well-defined points — the
// build cache before invoking a target builder, the translator config
// (a guest trap at the Nth dynamic block, see dbt.Config.TrapAfter),
// and the scheduler's unit wrapper (a delay or a panic at a chosen
// (bench, unit, T) site).
//
// Every fault is deterministic: it fires at an exact, configured point,
// the same way on every run, so the executor's failure paths — retry,
// degrade, checkpoint/resume — are exercised by reproducible tests
// instead of being trusted. A fault may be bounded ("*k": fire k times,
// then disarm), which is how transient failures are modelled for the
// retry machinery. The only randomness is the explicit seed entry,
// which derives unspecified trap points ("trap:gzip@auto") from a
// fixed-seed generator, keeping even "random" faults reproducible.
//
// Spec grammar (comma-separated entries):
//
//	build:<bench>[/<input>][*<k>]        fail the target build
//	trap:<bench>[/<input>]@<n|auto>[*<k>] guest trap at the Nth block
//	slow:<bench>/<unit>[@<T>]:<dur>[*<k>] delay the unit by <dur>
//	panic:<bench>/<unit>[@<T>][*<k>]     panic inside the unit
//	seed:<n>                             seed for @auto points
//
// <bench> is a benchmark name or "*" (any); <input> is "ref" or
// "train" (default: any); <unit> is a pipeline unit name (ref, train,
// compare, train_compare) or "*"; <T> is an effective retranslation
// threshold (default: any).
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/rng"
)

// Kind enumerates the failure modes a fault can arm.
type Kind int

const (
	// KindBuild fails a target build in the build cache.
	KindBuild Kind = iota
	// KindTrap aborts guest execution at the Nth dynamic block.
	KindTrap
	// KindSlow delays a unit before its body runs.
	KindSlow
	// KindPanic panics inside a unit body.
	KindPanic
)

// String names the kind as it appears in specs.
func (k Kind) String() string {
	switch k {
	case KindBuild:
		return "build"
	case KindTrap:
		return "trap"
	case KindSlow:
		return "slow"
	case KindPanic:
		return "panic"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is one armed injection site.
type Fault struct {
	Kind Kind
	// Bench is the benchmark name the fault applies to ("*" = any).
	Bench string
	// Input restricts build/trap faults to one input ("" = any).
	Input string
	// Unit restricts slow/panic faults to one pipeline unit ("*" = any).
	Unit string
	// T restricts slow/panic faults to one effective threshold (0 = any).
	T uint64
	// N is the dynamic block count a trap fires at.
	N uint64
	// Delay is the slow fault's injected latency.
	Delay time.Duration
	// Times is how many matches remain before the fault disarms
	// (negative = unlimited).
	Times int
}

// autoTrapRange bounds @auto trap points: early enough to fire on
// tiny-scale runs, late enough that the run is demonstrably under way.
const autoTrapRange = 4096

// Plan is a set of armed faults. All methods are safe for concurrent
// use and safe on a nil receiver (a nil *Plan injects nothing), so the
// executor needs no guards at its injection points.
type Plan struct {
	mu     sync.Mutex
	faults []*Fault
}

// Parse builds a plan from a spec string (see the package comment for
// the grammar). An empty spec yields an empty plan.
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	seed := uint64(1)
	var autos []*Fault
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kind, body, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("faultinject: %q: want <kind>:<site>", entry)
		}
		if kind == "seed" {
			n, err := strconv.ParseUint(body, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: %q: bad seed: %v", entry, err)
			}
			seed = n
			continue
		}
		f := &Fault{Times: -1}
		// A trailing "*<digits>" bounds the fire count; a bare "*" is
		// the benchmark wildcard, so only an all-digit suffix counts.
		if head, times, ok := cutLast(body, "*"); ok && times != "" && !strings.ContainsFunc(times, func(r rune) bool { return r < '0' || r > '9' }) {
			k, err := strconv.Atoi(times)
			if err != nil || k < 1 {
				return nil, fmt.Errorf("faultinject: %q: bad repeat count %q", entry, times)
			}
			f.Times = k
			body = head
		}
		var err error
		switch kind {
		case "build":
			f.Kind = KindBuild
			err = parseBuildSite(f, body)
		case "trap":
			f.Kind = KindTrap
			var auto bool
			if auto, err = parseTrapSite(f, body); auto {
				autos = append(autos, f)
			}
		case "slow":
			f.Kind = KindSlow
			site, dur, ok := cutLast(body, ":")
			if !ok {
				err = fmt.Errorf("missing duration (want <site>:<dur>)")
				break
			}
			if f.Delay, err = time.ParseDuration(dur); err != nil {
				break
			}
			err = parseUnitSite(f, site)
		case "panic":
			f.Kind = KindPanic
			err = parseUnitSite(f, body)
		default:
			err = fmt.Errorf("unknown kind %q", kind)
		}
		if err != nil {
			return nil, fmt.Errorf("faultinject: %q: %v", entry, err)
		}
		p.faults = append(p.faults, f)
	}
	// Seeded auto points: derived after the whole spec is read so the
	// seed entry's position does not matter.
	src := rng.New(seed)
	for _, f := range autos {
		f.N = uint64(src.Intn(autoTrapRange)) + 1
	}
	return p, nil
}

// cutLast splits s around the final occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

// parseBuildSite parses "<bench>[/<input>]".
// checkName rejects "*" embedded in a site component: a bare "*" is
// the wildcard, and any other "*" would collide with the repeat-count
// suffix when the plan's canonical String form is re-parsed (an
// optional component rendered away can expose a trailing "*<digits>"
// of the name to the repeat cutter).
func checkName(what, name string) error {
	if name != "*" && strings.Contains(name, "*") {
		return fmt.Errorf("%s %q may not contain %q (a bare %q matches any)", what, name, "*", "*")
	}
	return nil
}

func parseBuildSite(f *Fault, site string) error {
	f.Bench, f.Input, _ = strings.Cut(site, "/")
	if f.Bench == "" {
		return fmt.Errorf("missing benchmark name")
	}
	if err := checkName("benchmark name", f.Bench); err != nil {
		return err
	}
	if f.Input != "" && f.Input != "ref" && f.Input != "train" {
		return fmt.Errorf("unknown input %q (want ref or train)", f.Input)
	}
	return nil
}

// parseTrapSite parses "<bench>[/<input>]@<n|auto>" and reports whether
// the trap point must be derived from the seed.
func parseTrapSite(f *Fault, site string) (auto bool, err error) {
	site, at, ok := cutLast(site, "@")
	if !ok {
		return false, fmt.Errorf("missing trap point (want <bench>@<n>)")
	}
	if err := parseBuildSite(f, site); err != nil {
		return false, err
	}
	if at == "auto" {
		return true, nil
	}
	n, err := strconv.ParseUint(at, 10, 64)
	if err != nil || n == 0 {
		return false, fmt.Errorf("bad trap point %q (want a positive block count or auto)", at)
	}
	f.N = n
	return false, nil
}

// parseUnitSite parses "<bench>/<unit>[@<T>]".
func parseUnitSite(f *Fault, site string) error {
	if head, at, ok := cutLast(site, "@"); ok {
		t, err := strconv.ParseUint(at, 10, 64)
		if err != nil || t == 0 {
			return fmt.Errorf("bad threshold %q", at)
		}
		f.T = t
		site = head
	}
	bench, unit, ok := strings.Cut(site, "/")
	if !ok || bench == "" || unit == "" {
		return fmt.Errorf("want <bench>/<unit>")
	}
	if err := checkName("benchmark name", bench); err != nil {
		return err
	}
	if err := checkName("unit name", unit); err != nil {
		return err
	}
	f.Bench, f.Unit = bench, unit
	return nil
}

// String renders the armed faults for logs.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	parts := make([]string, 0, len(p.faults))
	for _, f := range p.faults {
		s := f.Kind.String() + ":" + f.Bench
		if f.Input != "" {
			s += "/" + f.Input
		}
		if f.Unit != "" {
			s += "/" + f.Unit
		}
		if f.T != 0 {
			s += fmt.Sprintf("@%d", f.T)
		}
		if f.Kind == KindTrap {
			s += fmt.Sprintf("@%d", f.N)
		}
		if f.Kind == KindSlow {
			s += ":" + f.Delay.String()
		}
		if f.Times >= 0 {
			s += fmt.Sprintf("*%d", f.Times)
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ",")
}

// Empty reports whether the plan has no armed faults left.
func (p *Plan) Empty() bool {
	if p == nil {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.faults {
		if f.Times != 0 {
			return false
		}
	}
	return true
}

// match finds the first armed fault of the kind accepted by ok and
// consumes one fire from its budget.
func (p *Plan) match(kind Kind, ok func(*Fault) bool) *Fault {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.faults {
		if f.Kind != kind || f.Times == 0 || !ok(f) {
			continue
		}
		if f.Times > 0 {
			f.Times--
		}
		return f
	}
	return nil
}

func matchBench(f *Fault, bench string) bool { return f.Bench == "*" || f.Bench == bench }
func matchInput(f *Fault, input string) bool { return f.Input == "" || f.Input == input }
func matchUnit(f *Fault, unit string) bool   { return f.Unit == "*" || f.Unit == unit }
func matchT(f *Fault, t uint64) bool         { return f.T == 0 || f.T == t }

// BuildError returns the injected build failure for (bench, input), or
// nil. The build cache consults it before invoking the target builder.
func (p *Plan) BuildError(bench, input string) error {
	f := p.match(KindBuild, func(f *Fault) bool { return matchBench(f, bench) && matchInput(f, input) })
	if f == nil {
		return nil
	}
	return fmt.Errorf("faultinject: build failure for %s/%s", bench, input)
}

// Trap returns the injected guest-trap block count for a run of
// (bench, input), if one is armed. The value feeds dbt.Config.TrapAfter.
func (p *Plan) Trap(bench, input string) (uint64, bool) {
	f := p.match(KindTrap, func(f *Fault) bool { return matchBench(f, bench) && matchInput(f, input) })
	if f == nil {
		return 0, false
	}
	return f.N, true
}

// Delay returns the injected latency for a unit at (bench, unit, t),
// or zero.
func (p *Plan) Delay(bench, unit string, t uint64) time.Duration {
	f := p.match(KindSlow, func(f *Fault) bool {
		return matchBench(f, bench) && matchUnit(f, unit) && matchT(f, t)
	})
	if f == nil {
		return 0
	}
	return f.Delay
}

// PanicMessage returns the message to panic with inside the unit at
// (bench, unit, t), if a panic fault is armed there.
func (p *Plan) PanicMessage(bench, unit string, t uint64) (string, bool) {
	f := p.match(KindPanic, func(f *Fault) bool {
		return matchBench(f, bench) && matchUnit(f, unit) && matchT(f, t)
	})
	if f == nil {
		return "", false
	}
	return fmt.Sprintf("faultinject: panic in %s/%s", bench, unit), true
}
