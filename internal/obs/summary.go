// Trace summarizer: turns a flight-recorder JSONL stream into the
// breakdowns a human asks of a run — where did the time go by phase and
// by benchmark, which units failed, and how busy the worker pool was
// over the run's lifetime (rendered with internal/textplot).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/textplot"
)

// PhaseTotal aggregates the events of one unit kind.
type PhaseTotal struct {
	Unit   string
	Events int
	Dur    time.Duration
	Blocks uint64
	Errs   int
}

// BenchTotal aggregates the events of one benchmark.
type BenchTotal struct {
	Bench  string
	Events int
	Dur    time.Duration
	Blocks uint64
	Errs   int
}

// HotLoop aggregates the engine hot-loop counters of executed run
// spans: the dynamic block volume against the wall-clock those spans
// spent, and translation-cache probes. All zero for traces recorded
// before the counters existed, or for a fully cache-warm study that
// executed nothing.
type HotLoop struct {
	Blocks  uint64
	RunDur  time.Duration // summed duration of counter-carrying spans
	Lookups uint64
}

// BlocksPerSec is the hot-loop throughput over the counted run spans.
func (h HotLoop) BlocksPerSec() float64 {
	if h.RunDur <= 0 {
		return 0
	}
	return float64(h.Blocks) / h.RunDur.Seconds()
}

// Summary is the aggregate view of one trace.
type Summary struct {
	Events int
	// Wall spans the earliest start to the latest end on the recorder
	// timeline.
	Wall time.Duration
	// Workers is the number of distinct pool slots observed.
	Workers int
	Phases  []PhaseTotal // in units order: build, ref, train, compare, ...
	Benches []BenchTotal // sorted by descending duration
	Hot     HotLoop
}

// Summarize aggregates a trace. Events must have passed ReadEvents
// validation.
func Summarize(events []Event) *Summary {
	s := &Summary{Events: len(events)}
	phases := make(map[string]*PhaseTotal)
	benches := make(map[string]*BenchTotal)
	workers := make(map[int]bool)
	var end int64
	for _, ev := range events {
		p := phases[ev.Unit]
		if p == nil {
			p = &PhaseTotal{Unit: ev.Unit}
			phases[ev.Unit] = p
		}
		b := benches[ev.Bench]
		if b == nil {
			b = &BenchTotal{Bench: ev.Bench}
			benches[ev.Bench] = b
		}
		p.Events++
		b.Events++
		p.Dur += time.Duration(ev.DurNS)
		b.Dur += time.Duration(ev.DurNS)
		p.Blocks += ev.Blocks
		b.Blocks += ev.Blocks
		if ev.Err != "" {
			p.Errs++
			b.Errs++
		}
		workers[ev.Worker] = true
		if ev.Lookups > 0 {
			s.Hot.Blocks += ev.Blocks
			s.Hot.RunDur += time.Duration(ev.DurNS)
			s.Hot.Lookups += ev.Lookups
		}
		if e := ev.StartNS + ev.DurNS; e > end {
			end = e
		}
	}
	s.Wall = time.Duration(end)
	s.Workers = len(workers)
	for _, unit := range units {
		if p := phases[unit]; p != nil {
			s.Phases = append(s.Phases, *p)
		}
	}
	for _, b := range benches {
		s.Benches = append(s.Benches, *b)
	}
	sort.Slice(s.Benches, func(i, j int) bool {
		if s.Benches[i].Dur != s.Benches[j].Dur {
			return s.Benches[i].Dur > s.Benches[j].Dur
		}
		return s.Benches[i].Bench < s.Benches[j].Bench
	})
	return s
}

// occupancyBins is the timeline resolution of the worker-occupancy
// chart.
const occupancyBins = 72

// Occupancy computes the average number of busy workers per timeline
// bin: each event contributes its overlap with the bin, so the series
// integrates to total busy time regardless of resolution.
func Occupancy(events []Event, bins int) (x []float64, busy []float64) {
	if bins < 1 {
		bins = occupancyBins
	}
	var end int64
	for _, ev := range events {
		if e := ev.StartNS + ev.DurNS; e > end {
			end = e
		}
	}
	if end == 0 {
		return nil, nil
	}
	width := float64(end) / float64(bins)
	x = make([]float64, bins)
	busy = make([]float64, bins)
	for i := range x {
		x[i] = float64(i) * width / float64(time.Second)
	}
	for _, ev := range events {
		lo, hi := float64(ev.StartNS), float64(ev.StartNS+ev.DurNS)
		first := int(lo / width)
		last := int(hi / width)
		if last >= bins {
			last = bins - 1
		}
		for b := first; b <= last; b++ {
			binLo, binHi := float64(b)*width, float64(b+1)*width
			overlap := minf(hi, binHi) - maxf(lo, binLo)
			if overlap > 0 {
				busy[b] += overlap / width
			}
		}
	}
	return x, busy
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Render formats the summary plus the worker-occupancy chart of the
// trace the summary came from.
func Render(events []Event) string {
	s := Summarize(events)
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events, wall %.3fs, %d workers\n",
		s.Events, s.Wall.Seconds(), s.Workers)

	var total time.Duration
	for _, p := range s.Phases {
		total += p.Dur
	}
	b.WriteString("\n-- per phase --\n")
	fmt.Fprintf(&b, "%-14s %8s %12s %8s %16s %6s\n", "phase", "events", "seconds", "share", "blocks", "errs")
	for _, p := range s.Phases {
		share := 0.0
		if total > 0 {
			share = 100 * float64(p.Dur) / float64(total)
		}
		fmt.Fprintf(&b, "%-14s %8d %12.4f %7.1f%% %16d %6d\n",
			p.Unit, p.Events, p.Dur.Seconds(), share, p.Blocks, p.Errs)
	}

	if h := s.Hot; h.Blocks > 0 {
		b.WriteString("\n-- hot loop (executed run spans) --\n")
		fmt.Fprintf(&b, "blocks/s       %14.0f  (%d blocks over %.3fs of run spans)\n",
			h.BlocksPerSec(), h.Blocks, h.RunDur.Seconds())
		fmt.Fprintf(&b, "cache lookups  %14d  (%.4f per block)\n",
			h.Lookups, float64(h.Lookups)/float64(h.Blocks))
	}

	b.WriteString("\n-- per benchmark --\n")
	fmt.Fprintf(&b, "%-14s %8s %12s %16s %6s\n", "bench", "events", "seconds", "blocks", "errs")
	for _, t := range s.Benches {
		fmt.Fprintf(&b, "%-14s %8d %12.4f %16d %6d\n",
			t.Bench, t.Events, t.Dur.Seconds(), t.Blocks, t.Errs)
	}

	if x, busy := Occupancy(events, occupancyBins); x != nil {
		b.WriteString("\n-- worker occupancy (avg busy workers over run time, x in seconds) --\n")
		b.WriteString(textplot.Chart(x, []textplot.Series{{Label: "busy workers", Y: busy}}, 72, 12))
	}
	return b.String()
}
