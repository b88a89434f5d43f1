// Command inipstudy regenerates the paper's evaluation figures (8-18)
// over the synthetic SPEC2000 suite.
//
// Usage:
//
//	inipstudy [-scale 0.01] [-fig all|fig8,fig17] [-bench mcf,gzip]
//	          [-chart] [-json] [-v]
//	inipstudy -trace t.jsonl -benchjson b.json   # observability outputs
//	                                             # (-benchjson appends a dated entry
//	                                             # to the trajectory array in b.json)
//	inipstudy -tracesum t.jsonl                  # summarize a recorded trace
//	inipstudy -failpolicy degrade                # survive benchmark failures
//	inipstudy -cache results.cache               # memoize unit results on disk;
//	                                             # rerun with it to resume a stopped study
//	inipstudy -cache results.cache -cacheverify  # differential cache self-check
//	inipstudy -predictors all                    # dynamic-predictor zoo (figp1/figp2)
//	inipstudy -sampleperiods 1,4,16,64           # sampled-profiling frontier (figs1/figs2)
//	inipstudy -learned logreg                    # profile-free learned model (figl1/figl2)
//	inipstudy -learned tree -learnedjson m.json  # dump cross-validated weights/importances
//
// The default scale of 1.0 runs the paper's actual threshold ladder
// 100..4M (a few minutes); -scale 0.1 gives a quick low-resolution pass.
//
// SIGINT drains in-flight work, flushes the trace, and exits 130; the
// units that finished are kept only in the -cache store, so rerunning
// with the same -cache resumes the study. A second SIGINT aborts
// immediately.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/learned"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/resultcache"
	"repro/internal/spec"
	"repro/internal/study"
)

// benchReport is the schema of one -benchjson perf entry. The file
// itself is an append-only trajectory — a JSON array of these, one per
// measured optimization step — kept in the repository
// (BENCH_study.json) so successive changes have a measured history to
// compare against. writeBenchJSON appends.
type benchReport struct {
	Date       string  `json:"date"`
	Scale      float64 `json:"scale"`
	Benchmarks int     `json:"benchmarks"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	study.Perf
}

// writeBenchJSON appends the run's perf record to the trajectory file.
// A missing file is an empty trajectory; a file that is not a JSON
// array is an error and stays untouched.
func writeBenchJSON(path string, res *study.Results, nbench int) error {
	entry, err := json.Marshal(benchReport{
		Date:       time.Now().UTC().Format("2006-01-02"),
		Scale:      res.Scale,
		Benchmarks: nbench,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Perf:       res.Perf,
	})
	if err != nil {
		return err
	}
	var traj []json.RawMessage
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(data, &traj); err != nil {
			return fmt.Errorf("%s: not a bench trajectory array: %w", path, err)
		}
	}
	data, err = json.MarshalIndent(append(traj, entry), "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, append(data, '\n'), 0o644)
}

// parseSamplePeriods parses the -sampleperiods flag: a comma-separated
// list of positive integers. study.Config.Validate rejects duplicates
// and zeros again, but parsing here gives flag-shaped errors up front.
func parseSamplePeriods(v string) ([]uint64, error) {
	if v == "" {
		return nil, nil
	}
	var out []uint64
	for _, s := range strings.Split(v, ",") {
		p, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil || p < 1 {
			return nil, fmt.Errorf("invalid sample period %q (want a positive integer)", strings.TrimSpace(s))
		}
		out = append(out, p)
	}
	return out, nil
}

// summarizeTrace renders a recorded flight-recorder file (-tracesum).
func summarizeTrace(path string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	evs, err := obs.ReadEvents(f)
	if err != nil {
		return err
	}
	_, err = io.WriteString(stdout, obs.Render(evs))
	return err
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// section5Flags rejects flag combinations the section-5 experiments
// would silently ignore: -ext and -conv run instead of the figures and
// honour only -scale and -bench, plus -extT with -ext.
func section5Flags(fs *flag.FlagSet, ext, conv bool) error {
	var mode string
	switch {
	case ext && conv:
		return errors.New("-ext and -conv are separate experiments; give one")
	case ext:
		mode = "ext"
	case conv:
		mode = "conv"
	}
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "ext", "conv", "scale", "bench":
		case "extT":
			if mode != "ext" {
				ignored = append(ignored, "-extT")
			}
		default:
			if mode != "" {
				ignored = append(ignored, "-"+f.Name)
			}
		}
	})
	switch {
	case len(ignored) == 0:
		return nil
	case mode == "":
		return errors.New("-extT applies only with -ext")
	}
	return fmt.Errorf("-%s would ignore %s: section 5 honours only -scale and -bench (and -extT with -ext)", mode, strings.Join(ignored, ", "))
}

// run is main with its environment made explicit, so the smoke tests
// drive the full figure pipeline in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("inipstudy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale   = fs.Float64("scale", 1.0, "paper-unit scale factor")
		figSel  = fs.String("fig", "all", "comma-separated figure ids (fig8..fig18) or 'all'")
		benches = fs.String("bench", "", "comma-separated benchmark subset (default: full suite)")
		chart   = fs.Bool("chart", false, "render ASCII charts in addition to tables")
		asJSON  = fs.Bool("json", false, "emit figure data as JSON")
		asMD    = fs.String("md", "", "write all figures as a markdown report to this file")
		verbose = fs.Bool("v", false, "print per-benchmark progress")
		ext     = fs.Bool("ext", false, "run the section-5 extension experiment instead of the figures")
		extT    = fs.Float64("extT", 2000, "paper-unit threshold for -ext")
		conv    = fs.Bool("conv", false, "run the threshold-selection (convergence) experiment instead of the figures")

		benchJSON = fs.String("benchjson", "", "append suite wall-clock, blocks/sec, per-phase timing and engine counters as a dated entry to the trajectory array in this file")
		par       = fs.Int("par", 0, "worker-pool size for run units (default: GOMAXPROCS)")

		traceFile  = fs.String("trace", "", "write a flight-recorder event per pipeline unit as JSONL to this file")
		traceSum   = fs.String("tracesum", "", "summarize a recorded -trace file (phases, benchmarks, worker occupancy) and exit")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the study to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile taken after the study to this file")

		failPolicy    = fs.String("failpolicy", "failfast", "on unit failure: 'failfast' cancels the study, 'degrade' drops the failing benchmark and completes the rest")
		inject        = fs.String("inject", "", "deterministic fault-injection spec for robustness testing, e.g. 'build:gzip/ref' or 'trap:mcf/train@1000' (see internal/faultinject)")
		stopAfter     = fs.Int("stopafter", 0, "stop gracefully after this many benchmark completions (testing hook for resume through -cache)")
		cacheDir      = fs.String("cache", "", "memoize unit results in this content-addressed directory; a warm rerun of an unchanged study executes zero guest blocks")
		cacheVerify   = fs.Bool("cacheverify", false, "execute every unit despite cache hits and hard-error if a cached value diverges (requires -cache)")
		predictors    = fs.String("predictors", "", "comma-separated dynamic branch predictors to run over each reference trace (taken,nottaken,1bit,2bit,gshare,perceptron, 'learned', or 'all'); adds figp1/figp2 without touching the paper figures")
		samplePeriods = fs.String("sampleperiods", "", "comma-separated sampled-profiling periods to sweep (e.g. 1,4,16,64); adds figs1/figs2 without touching the paper figures")
		learnedModel  = fs.String("learned", "", "train the profile-free learned static branch model over the suite ('logreg' or 'tree'); adds figl1/figl2 without touching the paper figures")
		learnedJSON   = fs.String("learnedjson", "", "write the cross-validated learned model (weights, per-feature importances, per-fold held-out rates) as JSON to this file; implies -learned logreg unless -learned is set")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := section5Flags(fs, *ext, *conv); err != nil {
		fmt.Fprintf(stderr, "inipstudy: %v\n", err)
		return 2
	}

	// Sweep atomic-write temporaries a killed previous invocation may
	// have orphaned next to our output targets. Startup is the one
	// moment no write of this process can be in flight.
	for _, p := range []string{*benchJSON, *asMD, *traceFile, *learnedJSON} {
		if p != "" {
			atomicio.SweepTempsFor(p)
		}
	}

	if *traceSum != "" {
		if err := summarizeTrace(*traceSum, stdout); err != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", err)
			return 1
		}
		return 0
	}

	var selected []*spec.Benchmark
	if *benches != "" {
		for _, name := range strings.Split(*benches, ",") {
			b := spec.ByName(strings.TrimSpace(name))
			if b == nil {
				fmt.Fprintf(stderr, "inipstudy: unknown benchmark %q\n", name)
				return 2
			}
			selected = append(selected, b)
		}
	}

	if *conv || *ext {
		var res interface{ Render() string }
		var err error
		if *conv {
			res, err = study.RunConvergence(selected, *scale)
		} else {
			res, err = study.RunExtensions(selected, *scale, *extT)
		}
		if err != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, res.Render())
		return 0
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	cfg := study.Config{
		Scale:       *scale,
		Benchmarks:  selected,
		Parallelism: *par,
		StopAfter:   *stopAfter,
	}
	pol, perr := core.ParseFailurePolicy(*failPolicy)
	if perr != nil {
		fmt.Fprintf(stderr, "inipstudy: %v\n", perr)
		return 2
	}
	cfg.Policy = pol
	// 'learned' rides the -predictors selection but is a separate class
	// (a static model, not a dynamic predictor): strip the token before
	// the dynamic-predictor parse and map it to the study's learned
	// config. Note 'all' selects the dynamic zoo only.
	predList := *predictors
	learnedSel := *learnedModel
	if predList != "" {
		var kept []string
		for _, tok := range strings.Split(predList, ",") {
			if strings.TrimSpace(tok) == "learned" {
				if learnedSel == "" {
					learnedSel = learned.ModelLogReg
				}
				continue
			}
			kept = append(kept, tok)
		}
		predList = strings.Join(kept, ",")
	}
	preds, perr := predict.ParseList(predList)
	if perr != nil {
		fmt.Fprintf(stderr, "inipstudy: %v\n", perr)
		return 2
	}
	cfg.Predictors = preds
	if *learnedJSON != "" && learnedSel == "" {
		learnedSel = learned.ModelLogReg
	}
	if learnedSel != "" {
		cfg.Learned = &learned.Config{Model: learnedSel}
	}
	periods, perr := parseSamplePeriods(*samplePeriods)
	if perr != nil {
		fmt.Fprintf(stderr, "inipstudy: %v\n", perr)
		return 2
	}
	cfg.SamplePeriods = periods
	if *cacheVerify && *cacheDir == "" {
		fmt.Fprintln(stderr, "inipstudy: -cacheverify requires -cache")
		return 2
	}
	if *cacheDir != "" {
		store, serr := resultcache.Open(*cacheDir)
		if serr != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", serr)
			return 1
		}
		cfg.Cache = store
		cfg.CacheVerify = *cacheVerify
	}
	if *inject != "" {
		plan, ferr := faultinject.Parse(*inject)
		if ferr != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", ferr)
			return 2
		}
		cfg.Faults = plan
	}
	if *verbose {
		cfg.Progress = stderr
	}
	// SIGINT requests a graceful drain: in-flight units stop, the trace
	// is flushed, and the run reports ErrStopped.
	// A second SIGINT aborts on the spot.
	stop := make(chan struct{})
	cfg.Stop = stop
	finished := make(chan struct{})
	defer close(finished)
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)
	go func() {
		select {
		case <-sig:
			fmt.Fprintln(stderr, "inipstudy: interrupt — draining in-flight work (^C again to abort)")
			close(stop)
		case <-finished:
			return
		}
		select {
		case <-sig:
			os.Exit(130)
		case <-finished:
		}
	}()

	var traceOut *atomicio.File
	if *traceFile != "" {
		f, err := atomicio.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", err)
			return 1
		}
		traceOut = f
		cfg.Trace = obs.NewRecorder(f)
	}

	res, err := study.Run(cfg)
	stopped := errors.Is(err, study.ErrStopped)
	if cfg.Trace != nil {
		// The trace is published even when the study stopped or failed:
		// the recorder closed cleanly, so the file is complete JSONL and
		// exactly what a post-mortem wants. Only a write error discards.
		dropped, cerr := cfg.Trace.Close()
		if cerr == nil {
			cerr = traceOut.Commit()
		} else {
			traceOut.Close()
		}
		if cerr != nil {
			fmt.Fprintf(stderr, "inipstudy: trace: %v\n", cerr)
			if err == nil {
				return 1
			}
		} else {
			fmt.Fprintf(stderr, "wrote %s (%d events dropped)\n", *traceFile, dropped)
		}
	}
	if err != nil && !stopped {
		fmt.Fprintf(stderr, "inipstudy: %v\n", err)
		return 1
	}

	if len(res.Failures) > 0 {
		fmt.Fprintf(stderr, "inipstudy: %d unit failure(s); the affected benchmarks are excluded from every figure:\n", len(res.Failures))
		for _, f := range res.Failures {
			site := f.Unit
			if f.T > 0 {
				site = fmt.Sprintf("%s@T=%d", f.Unit, f.T)
			}
			fmt.Fprintf(stderr, "  %s: %s failed: %s\n", f.Bench, site, f.Err)
		}
	}

	if cfg.Cache != nil {
		c := cfg.Cache.Counters()
		line := fmt.Sprintf("cache %s: %d hits, %d misses, %d stores, %d errors",
			*cacheDir, c.Hits, c.Misses, c.Stores, c.Errors)
		if c.HealFailures > 0 {
			line += fmt.Sprintf(", %d heal failures (cache is read-only)", c.HealFailures)
		}
		fmt.Fprintln(stderr, line)
	}

	if stopped {
		done := 0
		for _, s := range res.Series {
			if s.Name != "" && len(s.Failures) == 0 {
				done++
			}
		}
		fmt.Fprintf(stderr, "inipstudy: stopped with %d of %d benchmarks finished\n", done, len(res.Series))
		if *cacheDir != "" {
			fmt.Fprintf(stderr, "inipstudy: resume by rerunning with: -cache %s\n", *cacheDir)
		} else {
			fmt.Fprintln(stderr, "inipstudy: nothing was kept; run with -cache to make a stopped study resumable")
		}
		return 130
	}

	if *memProfile != "" {
		f, cerr := os.Create(*memProfile)
		if cerr == nil {
			runtime.GC()
			cerr = pprof.WriteHeapProfile(f)
			if ferr := f.Close(); cerr == nil {
				cerr = ferr
			}
		}
		if cerr != nil {
			fmt.Fprintf(stderr, "inipstudy: memprofile: %v\n", cerr)
			return 1
		}
	}

	if *benchJSON != "" {
		nbench := len(cfg.Benchmarks)
		if nbench == 0 {
			nbench = len(spec.Suite())
		}
		if err := writeBenchJSON(*benchJSON, res, nbench); err != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %s (wall %.1fs, %.2fM blocks/s)\n",
			*benchJSON, res.Perf.WallSeconds, res.Perf.BlocksPerSec/1e6)
	}

	if *learnedJSON != "" {
		if res.Learned == nil {
			fmt.Fprintln(stderr, "inipstudy: -learnedjson: no learned fit was produced (a leave-one-out fit needs at least two cleanly completed benchmarks)")
			return 1
		}
		data, jerr := json.MarshalIndent(res.Learned, "", " ")
		if jerr == nil {
			jerr = atomicio.WriteFile(*learnedJSON, append(data, '\n'), 0o644)
		}
		if jerr != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", jerr)
			return 1
		}
		branches, mis, _ := res.Learned.Totals()
		fmt.Fprintf(stderr, "wrote %s (%s, held-out %d/%d mispredicted = %.4f vs always-taken %.4f)\n",
			*learnedJSON, res.Learned.Fingerprint, mis, branches, res.Learned.Rate(), res.Learned.TakenRate())
	}

	if *asMD != "" {
		if err := atomicio.WriteFile(*asMD, []byte(res.MarkdownReport()), 0o644); err != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %s\n", *asMD)
		return 0
	}

	want := map[string]bool{}
	if *figSel != "all" {
		for _, id := range strings.Split(*figSel, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	var out []study.Figure
	for _, f := range res.Figures() {
		if len(want) == 0 || want[f.ID] {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		fmt.Fprintf(stderr, "inipstudy: no figures match %q\n", *figSel)
		return 2
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", err)
			return 1
		}
		return 0
	}

	fmt.Fprint(stdout, study.TextReport(out, *chart))
	return 0
}
