package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/resultcache"
)

// Fixed load shape, on the one processor a run uses: the study pool and
// the daemon's comparison pool get one worker each, and the compare
// workloads drive two clients, at least one of them in a closed loop,
// so the processor never idles waiting for a request. setupReps is how
// often a run repeats its set-up step; setup_s is their median.
const (
	parallelism = 1
	clients     = 2
	setupReps   = 3
)

// run is the state of one workload run: one process, one seed.
type run struct {
	workload *workload
	seed     int64
	seconds  time.Duration
	traced   bool
	// scale is the paper-unit scale every study and compare uses.
	scale  float64
	work   string // directory for result caches, inside the checkout
	stdout io.Writer
	stderr io.Writer
	spans  *spanLog // nil unless traced

	segments  []*segment
	window    time.Duration // the segments' total wall time
	setups    []float64     // host-normalized user processor time of each set-up step, s
	host      *hostSampler
	attempted int
	failed    int
	gateFails []string
	layers    map[string]float64
}

// segment is one stretch of the measured window: one study (suite_*),
// one pass over the compare key space (compare_cold) or a fixed stream
// of warm requests (compare_warm). The segments of a run repeat the
// same work.
type segment struct {
	traced bool
	wall   time.Duration
	ops    []float64 // latencies of the segment's ops, ms
	// host is the mean host probe reading while the segment ran, ms: how
	// fast the host ran it.
	host float64
	// alloc is the bytes the process allocated on the heap meanwhile.
	alloc uint64
}

// allocMBPerOp is the segment's heap allocation per op, MB.
func (seg *segment) allocMBPerOp() float64 {
	return float64(seg.alloc) / (1 << 20) / float64(len(seg.ops))
}

// normOp is the segment's mean op latency, host-normalized, ms. The
// mean rather than the median: the compare workloads' ops differ in cost
// from key to key, and which key's cost sits at a segment's median
// depends on which ops the two clients happened to queue behind each
// other. Over ten runs of each, segment medians spread the run results
// by 0.06-0.14 (interquartile distance over median), segment means by
// 0.04-0.08. A suite segment is one op, for which the two agree.
func (seg *segment) normOp() float64 { return normalize(mean(seg.ops), seg.host) }

// normPerOp is the segment's wall time per op, host-normalized, ms.
func (seg *segment) normPerOp() float64 {
	return normalize(ms(seg.wall)/float64(len(seg.ops)), seg.host)
}

// opDone records one finished op of seg. A failed op still counts as
// attempted; its latency is kept too, since a failure misses any
// latency limit anyway.
func (r *run) opDone(seg *segment, d time.Duration, ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
	seg.ops = append(seg.ops, ms(d))
}

// gate records a correctness check; a failed check fails the run.
func (r *run) gate(ok bool, format string, args ...any) bool {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		r.gateFails = append(r.gateFails, msg)
		fmt.Fprintf(r.stderr, "inipbench: %s: gate failed: %s\n", r.workload.name, msg)
	}
	return ok
}

// check is a gate outside any op, such as a cross-check after the
// window; it counts as one attempted op, failed when the check fails.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !r.gate(ok, format, args...) {
		r.failed++
	}
	return ok
}

// windowDone reports whether the measured window is used up. At least
// one segment always runs; a traced run runs at least eight, so that
// four traced ones can be compared with the untraced ones before them.
func (r *run) windowDone() bool {
	least := 1
	if r.traced {
		least = 8
	}
	return len(r.segments) >= least && r.window >= r.seconds
}

// nextTraced reports whether the next segment runs traced. A traced run
// alternates, starting untraced, so that both kinds see the same host
// and the tracing overhead is their difference.
func (r *run) nextTraced() bool { return r.traced && len(r.segments)%2 == 1 }

// hostTimed runs f and returns its wall time and the mean host probe
// reading while it ran.
func (r *run) hostTimed(f func()) (time.Duration, float64) {
	t0 := time.Now()
	f()
	t1 := time.Now()
	return t1.Sub(t0), r.host.over(t0, t1)
}

// measure runs f as the next segment of the window and returns the
// segment for its ops.
func (r *run) measure(traced bool, f func()) *segment {
	seg := &segment{traced: traced}
	a0 := heapAllocs()
	seg.wall, seg.host = r.hostTimed(f)
	seg.alloc = heapAllocs() - a0
	r.segments = append(r.segments, seg)
	r.window += seg.wall
	return seg
}

// setupTimed runs one set-up step and records the user-mode processor
// time it took, host-normalized. Not wall time, nor kernel time: the
// set-up steps of suite_warm and compare_warm fill a result cache, and
// each entry written is a synced disk write. On a shared host the wait
// for it drifts with no relation to the code (the median of a small
// synced write went from 0.2-0.4 ms to 0.4-0.6 ms within an hour on the
// host the benchmark was defined on), and so does the kernel time spent
// on it: over ten back-to-back runs of suite_warm it grew from 0.06 s to
// 0.2 s per set-up step (host-normalized) while user time stayed flat. The host probe
// sees neither. Work the code does, including work moved into set-up,
// still shows.
func (r *run) setupTimed(f func()) {
	u0 := userTime()
	_, host := r.hostTimed(f)
	r.setups = append(r.setups, normalize(ms(userTime()-u0), host)/1000)
}

// allOps is the latency of every op of the window, ms.
func (r *run) allOps() []float64 {
	var ops []float64
	for _, seg := range r.segments {
		ops = append(ops, seg.ops...)
	}
	return ops
}

// traceOverhead is how much longer an op takes traced: the median, over
// the window's pairs of an untraced segment and the traced one after
// it, of the ratio of their host-normalized times per op, minus 1.
func (r *run) traceOverhead() float64 {
	var ratios []float64
	for i := 0; i+1 < len(r.segments); i += 2 {
		ratios = append(ratios, r.segments[i+1].normPerOp()/r.segments[i].normPerOp())
	}
	return median(ratios) - 1
}

// freshStore opens an empty result cache in the run's work directory.
func (r *run) freshStore() (*resultcache.Store, error) {
	dir, err := os.MkdirTemp(r.work, "cache-")
	if err != nil {
		return nil, err
	}
	return resultcache.Open(dir)
}

// heapAllocs is the bytes the process has allocated on the heap so far.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// userTime is the processor time the process has used in user mode.
func userTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// finish turns the run into its result: the end-to-end metrics for an
// untraced run, the per-layer metrics for a traced one. It prints one
// line per metric as "workload metric value unit n=<samples>"; the
// op_norm_ms line adds, in raw time, the median and tail percentile over
// every op of the window, how many ops lie beyond the tail, and the op
// throughput.
func (r *run) finish() result {
	name := r.workload.name
	res := result{
		Correct:   len(r.gateFails) == 0 && r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	put := func(def metricDef, v float64, n string) {
		if math.IsNaN(v) {
			// A statistic over no samples, possible only for a layer
			// that did no work in this run.
			v = 0
		}
		res.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
		fmt.Fprintf(r.stdout, "%s %s %s %s %s\n", name, def.name, formatValue(v), def.unit, n)
	}
	ops := r.allOps()
	if !r.traced {
		tail := percentile(ops, r.workload.tail)
		var normOps, allocs []float64
		for _, seg := range r.segments {
			if len(seg.ops) > 0 {
				normOps = append(normOps, seg.normOp())
				allocs = append(allocs, seg.allocMBPerOp())
			}
		}
		values := map[string]float64{
			"op_norm_ms": median(normOps),
			"alloc_mb":   median(allocs),
			"setup_s":    median(r.setups),
		}
		counts := map[string]string{
			"op_norm_ms": fmt.Sprintf("n=%d segments=%d raw_p50=%s raw_p%g=%s beyond=%d ops_per_s=%s",
				len(ops), len(normOps), formatValue(median(ops)), r.workload.tail, formatValue(tail),
				beyond(ops, tail), formatValue(float64(len(ops))/r.window.Seconds())),
			"alloc_mb": fmt.Sprintf("n=%d segments=%d peak_rss_mb=%s", len(ops), len(allocs), formatValue(peakRSSMB())),
			"setup_s":  fmt.Sprintf("n=%d", len(r.setups)),
		}
		for _, def := range endToEnd {
			put(def, values[def.name], counts[def.name])
		}
	} else {
		r.layers["obs.trace_overhead_frac"] = r.traceOverhead()
		for _, def := range perLayer {
			put(def, r.layers[def.name], "n=1")
		}
	}
	errFrac := 0.0
	if r.attempted > 0 {
		errFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(r.stdout, "%s error_frac %s frac n=%d\n", name, formatValue(errFrac), r.attempted)
	return res
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// span is one benchmark-side trace record: a call into a layer, or an
// obs event of the study pipeline re-parented under the op it ran in.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Bench    string `json:"bench"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until exit. A nil log
// records nothing, so untraced code paths pass nil.
type spanLog struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, epoch: time.Now()}
}

// add records a finished span and returns its id (0 on a nil log, which
// is also the parent id of a root span).
func (l *spanLog) add(parent int64, name, bench string, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Workload: l.workload, Bench: bench,
		StartNS: start.Sub(l.epoch).Nanoseconds(), EndNS: end.Sub(l.epoch).Nanoseconds(),
	})
	return id
}

// setEnd closes a span added before its end was known.
func (l *spanLog) setEnd(id int64, end time.Time) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].EndNS = end.Sub(l.epoch).Nanoseconds()
	l.mu.Unlock()
}

// addEvents re-parents the obs events of one recorder under parent.
func (l *spanLog) addEvents(parent int64, recStart time.Time, evs []obs.Event) {
	for _, ev := range evs {
		start := recStart.Add(time.Duration(ev.StartNS))
		l.add(parent, "core."+ev.Unit, ev.Bench, start, start.Add(time.Duration(ev.DurNS)))
	}
}

// write stores the spans as JSONL.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
