// Trace collection: a read-only observer that tallies per-site branch
// outcomes off the shared reference trace. The guest executes once; the
// collector rides dbt.RunMultiObserved next to the dynamic-predictor
// suite and perturbs nothing. Tallies are a pure function of the
// architectural branch stream, so they are bit-identical across worker
// counts and profiling configurations.
package learned

import "repro/internal/dbt"

// Collector tallies branch outcomes per enumerated site. Not safe for
// concurrent use: the branch stream is architectural order, which is
// inherently serial.
type Collector struct {
	sites []Site
	// index maps a code address to 1 + its site's position in sites; 0
	// means no site. It spans the addresses up to the highest site PC;
	// a site at a negative PC, which no branch event carries, is left
	// out.
	index   []int32
	count   []uint64
	taken   []uint64
	unknown uint64
}

// NewCollector builds a collector over the extracted site table.
func NewCollector(sites []Site) *Collector {
	c := &Collector{
		sites: sites,
		count: make([]uint64, len(sites)),
		taken: make([]uint64, len(sites)),
	}
	var span int32
	for i := range sites {
		span = max(span, sites[i].PC+1)
	}
	c.index = make([]int32, span)
	for i := range sites {
		if pc := sites[i].PC; pc >= 0 {
			c.index[pc] = int32(i) + 1
		}
	}
	return c
}

// ObserveBranches implements dbt.TraceObserver. A branch at an address
// out of the index's range or without a site counts as unknown.
func (c *Collector) ObserveBranches(evs []dbt.BranchEvent) {
	for _, ev := range evs {
		var i int32
		if uint32(ev.PC) < uint32(len(c.index)) {
			i = c.index[ev.PC]
		}
		if i == 0 {
			c.unknown++
			continue
		}
		c.count[i-1]++
		if ev.Taken {
			c.taken[i-1]++
		}
	}
}

// BenchData assembles the benchmark's training/evaluation record:
// the static site table annotated with the collected tallies.
func (c *Collector) BenchData(bench string) BenchData {
	out := BenchData{Bench: bench, Unknown: c.unknown}
	out.Sites = make([]Site, len(c.sites))
	for i := range c.sites {
		s := c.sites[i]
		s.Count = c.count[i]
		s.Taken = c.taken[i]
		out.Sites[i] = s
	}
	return out
}
