package dbt

import (
	"repro/internal/guest"
	"repro/internal/interp"
)

// LowerableMismatches runs img over tape with the default config and
// returns how many blocks were translated and the addresses of those
// for which lowerable disagrees with what lower returned. It lets the
// external test package, which may import the benchmark suite, check
// the predicate on every suite program.
func LowerableMismatches(img *guest.Image, tape interp.Tape) (int, []int, error) {
	e, err := New(img, tape, Config{})
	if err != nil {
		return 0, nil, err
	}
	if _, _, err := e.Run(); err != nil {
		return 0, nil, err
	}
	n, bad := 0, []int(nil)
	for _, tb := range e.cache {
		if tb == nil {
			continue
		}
		n++
		if lowerable(tb) != tb.lowered {
			bad = append(bad, tb.addr)
		}
	}
	return n, bad, nil
}
