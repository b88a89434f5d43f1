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
	sites   []Site
	index   map[int32]int
	count   []uint64
	taken   []uint64
	unknown uint64
}

// NewCollector builds a collector over the extracted site table.
func NewCollector(sites []Site) *Collector {
	c := &Collector{
		sites: sites,
		index: make(map[int32]int, len(sites)),
		count: make([]uint64, len(sites)),
		taken: make([]uint64, len(sites)),
	}
	for i := range sites {
		c.index[sites[i].PC] = i
	}
	return c
}

// ObserveBranches implements dbt.TraceObserver.
func (c *Collector) ObserveBranches(evs []dbt.BranchEvent) {
	for _, ev := range evs {
		i, ok := c.index[ev.PC]
		if !ok {
			c.unknown++
			continue
		}
		c.count[i]++
		if ev.Taken {
			c.taken[i]++
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
