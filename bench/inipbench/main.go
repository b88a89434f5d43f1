// Command inipbench is the repository's benchmark. It runs one workload
// of the reproduction end to end — the paper's study regenerated cold,
// with every extension axis, or from the result cache, and the study
// daemon answering cold and warm compares — checks that its outputs are
// correct, and prints its metrics.
//
// Usage:
//
//	inipbench -workload suite_cold -seed 1 -seconds 12 -trace 0
//	inipbench -workload suite_cold -seed 1 -trace 1 -spans s.jsonl
//	inipbench -out set.json -runs 10 [-trace 1] [a.bin [b.bin]]
//	inipbench -compare set.json
//
// A single run prints one line per metric, "workload metric value unit
// n=<samples>", and as its last line a JSON object with the keys
// correct, attempted, failed and metrics. -trace 0 reports the
// end-to-end metrics, measured with tracing off; -trace 1 reports the
// per-layer metrics of a traced run and, with -spans, writes its spans
// as JSONL at exit. Every run samples the host's speed while it
// measures and reports its times normalized by it (see host.go). -out
// runs a set: every workload -runs times, each run in its own child
// process. Given two binaries, a set runs them in interleaved pairs on
// the same seeds; -compare prints, for each workload and end-to-end
// metric, the two sides' medians, quartiles and paired ratio and a
// verdict under the bounds in BENCHMARK.json.
//
// Result caches and other scratch files go to .bench_build in the
// working directory and are removed on exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

// benchScale is the paper-unit scale of every workload: small enough
// that a suite study takes well under a second on one core, so a run
// holds many, large enough that the translator's hot loop dominates it.
const benchScale = 0.005

// workload is one traffic mix of the benchmark.
type workload struct {
	name string
	// tail is the percentile printed beside the median: the highest one
	// the workload's op count in a default-length run supports with ten
	// samples beyond it. The suite workloads run too few ops for any, so
	// theirs is a p90 shown with its actual support.
	tail float64
	run  func(r *run) error
}

var workloads = []*workload{
	{name: "suite_cold", tail: 90, run: runSuiteCold},
	{name: "suite_axes", tail: 90, run: runSuiteAxes},
	{name: "suite_warm", tail: 90, run: runSuiteWarm},
	{name: "compare_cold", tail: 90, run: runCompareCold},
	{name: "compare_warm", tail: 99, run: runCompareWarm},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("inipbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "run this workload once: suite_cold, suite_axes, suite_warm, compare_cold or compare_warm")
		seed      = fs.Int64("seed", 1, "workload seed; every generated input derives from it")
		seconds   = fs.Float64("seconds", 12, "length of the measured window in seconds")
		trace     = fs.Int("trace", 0, "0 reports end-to-end metrics, 1 runs traced and reports per-layer metrics")
		spans     = fs.String("spans", "", "with -trace 1, write the run's spans as JSONL to this file at exit")
		out       = fs.String("out", "", "run a set of every workload and write it as JSON to this file; the arguments name up to two binaries to run in pairs (default: this one)")
		runs      = fs.Int("runs", 1, "runs per workload and binary in a set, with seeds -seed, -seed+1, ...")
		compare   = fs.Bool("compare", false, "compare the two sides of a paired set: inipbench -compare set.json")
		benchJSON = fs.String("benchmark", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "inipbench: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "inipbench: -compare needs one paired set file")
			return 2
		}
		return compareSides(fs.Arg(0), *benchJSON, stdout, stderr)
	case *name != "":
		w := lookupWorkload(*name)
		if w == nil || *seconds <= 0 || fs.NArg() != 0 {
			fmt.Fprintf(stderr, "inipbench: bad arguments for -workload %q (-seconds %g)\n", *name, *seconds)
			return 2
		}
		return runOne(w, *seed, *seconds, *trace == 1, *spans, stdout, stderr)
	case *out != "":
		if *runs < 1 || *seconds <= 0 || fs.NArg() > 2 {
			fmt.Fprintln(stderr, "inipbench: a set needs -runs >= 1, -seconds > 0 and at most two binaries")
			return 2
		}
		return runSet(*out, fs.Args(), *seed, *runs, *seconds, *trace == 1, stdout, stderr)
	}
	fs.Usage()
	return 2
}

// runOne is one run of one workload, ending with the result line the
// set mode and other callers parse.
func runOne(w *workload, seed int64, seconds float64, traced bool, spansPath string, stdout, stderr io.Writer) int {
	// One processor: on a small shared host, work spread over two cores
	// waits on whichever the host slows, and every cross-core wake-up
	// waits on the hypervisor. Back-to-back suite studies on a 2-vCPU
	// host spread by 8% (interquartile distance over median) on one
	// always-busy core, against 18% on two.
	runtime.GOMAXPROCS(1)
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(stderr, "inipbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintf(stderr, "inipbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	r := &run{
		workload: w, seed: seed, seconds: time.Duration(seconds * float64(time.Second)), traced: traced,
		scale: benchScale, work: work, stdout: stdout, stderr: stderr,
	}
	res, err := execute(r)
	if err != nil {
		fmt.Fprintf(stderr, "inipbench: %s: %v\n", w.name, err)
		return 1
	}
	if spansPath != "" && r.spans != nil {
		if err := r.spans.write(spansPath); err != nil {
			fmt.Fprintf(stderr, "inipbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "inipbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs the workload with the host sampler on and returns its
// result.
func execute(r *run) (result, error) {
	host, _ := os.Hostname()
	name := r.workload.name
	fmt.Fprintf(r.stdout, "%s host name=%s nproc=%d gomaxprocs=%d go=%s scale=%g seed=%d seconds=%g traced=%t\n",
		name, host, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), r.scale, r.seed, r.seconds.Seconds(), r.traced)
	r.layers = map[string]float64{}
	if r.traced {
		r.spans = newSpanLog(name)
	}
	// The traced run's layer probe stops the sampler before it times
	// anything, so that the sampler's share of the processor stays out
	// of the layer timings.
	r.host = startHostSampler()
	err := r.workload.run(r)
	r.host.stop()
	if err != nil {
		return result{}, err
	}
	p := r.host.all()
	q1, q3 := quartiles(p)
	fmt.Fprintf(r.stdout, "%s host_probe_ms n=%d min=%.4g q1=%.4g median=%.4g q3=%.4g max=%.4g\n",
		name, len(p), slices.Min(p), q1, median(p), q3, slices.Max(p))
	r.layers["host.calib_ms"] = median(p)
	return r.finish(), nil
}
