// Command dbtrun executes one guest program under the two-phase dynamic
// binary translator and dumps the resulting profile snapshot — the
// on-line half of the paper's methodology. The snapshots it writes are
// consumed by cmd/profcmp, the off-line analysis tool.
//
// Usage:
//
//	dbtrun -bench mcf [-input ref] [-scale 1] [-T 2000] [-o inip.json]
//	dbtrun -image prog.sg32 -T 0            # AVEP (no optimization)
//	dbtrun -asm prog.s -T 500 -stats -dump
//	dbtrun -bench gzip -T 500 -trace run.jsonl
//	dbtrun -bench mcf -T 500 -sampleperiod 16   # LBR-style sampled profiling
//	dbtrun -bench mcf -T 500 -learned           # learned-model per-site features + tallies
//
// -T 0 disables the optimization phase (an AVEP/average-profile run);
// any other value is the retranslation threshold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/dbt"
	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/learned"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/profile"
	"repro/internal/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dbtrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName    = fs.String("bench", "", "synthetic SPEC2000 benchmark name")
		imageFile    = fs.String("image", "", "SG32 binary image to run")
		asmFile      = fs.String("asm", "", "SG32 assembler source to run")
		input        = fs.String("input", "ref", "input name: ref or train")
		scale        = fs.Float64("scale", 1.0, "benchmark scale factor (with -bench)")
		threshold    = fs.Uint64("T", 0, "retranslation threshold; 0 = no optimization (AVEP)")
		seed         = fs.String("seed", "", "tape seed override (defaults to <name>/<input>)")
		outFile      = fs.String("o", "", "write the profile snapshot as JSON to this file")
		dump         = fs.Bool("dump", false, "print a human-readable profile dump")
		stats        = fs.Bool("stats", false, "print run statistics")
		perf         = fs.Bool("perf", false, "enable the cycle model and report simulated cycles (not for a sampled run)")
		adaptive     = fs.Bool("adaptive", false, "dissolve and rebuild regions whose side-exit rate shows a behaviour change")
		contTrip     = fs.Bool("continuous-trips", false, "keep loop-back instrumentation alive in optimized loop regions")
		converge     = fs.Float64("converge", 0, "register blocks on probability convergence with this epsilon (0 = fixed threshold)")
		traceFile    = fs.String("trace", "", "append a flight-recorder event for this run as JSONL to this file")
		samplePeriod = fs.Uint64("sampleperiod", 0, "sampled-profiling period: update profiling counters only every Nth block event (0 or 1 = full instrumentation)")
		sampleSeed   = fs.Uint64("sampleseed", 0, "seed of the sampled-profiling stride phase (with -sampleperiod)")
		learnedDump  = fs.Bool("learned", false, "dump the learned-model static feature vector and observed taken tally of every conditional-branch site")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	img, tape, err := load(*benchName, *imageFile, *asmFile, *input, *scale, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "dbtrun: %v\n", err)
		return 2
	}

	cfg := dbt.Config{
		Input:               *input,
		Threshold:           *threshold,
		Optimize:            *threshold > 0,
		RegisterTwice:       true,
		Adaptive:            *adaptive,
		ContinuousTripCount: *contTrip,
		SamplePeriod:        *samplePeriod,
		SampleSeed:          *sampleSeed,
	}
	if *converge > 0 {
		cfg.ConvergeRegister = true
		cfg.ConvergeEpsilon = *converge
	}
	if *perf {
		cfg.Perf = perfmodel.NewAccumulator(perfmodel.DefaultParams())
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(stderr, "dbtrun: %v\n", err)
		return 2
	}

	var rec *obs.Recorder
	var traceOut *os.File
	if *traceFile != "" {
		f, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "dbtrun: %v\n", err)
			return 1
		}
		traceOut = f
		rec = obs.NewRecorder(f)
	}

	// The learned dump rides the read-only observer rail of the same
	// run: the snapshot, stats and any -o/-dump output are identical to
	// a run without it.
	var collector *learned.Collector
	if *learnedDump {
		sites, lerr := learned.ExtractSites(img)
		if lerr != nil {
			fmt.Fprintf(stderr, "dbtrun: %v\n", lerr)
			return 1
		}
		collector = learned.NewCollector(sites)
	}

	start := time.Now()
	var snap *profile.Snapshot
	var runStats *dbt.RunStats
	if collector != nil {
		snaps, allStats, rerr := dbt.RunMultiObserved(img, tape, []dbt.Config{cfg}, []dbt.TraceObserver{collector})
		if rerr == nil {
			snap, runStats = snaps[0], allStats[0]
		}
		err = rerr
	} else {
		snap, runStats, err = dbt.Run(img, tape, cfg)
	}
	if rec != nil {
		ev := obs.Event{Bench: img.Name, Unit: obs.UnitRun, T: *threshold}
		if err == nil {
			ev.Blocks = runStats.BlocksExecuted
			ev.Fast = runStats.FastDispatches
			ev.Generic = runStats.GenericDispatches
			ev.Lookups = runStats.CacheLookups
		}
		rec.RecordEvent(ev, start, time.Since(start), err)
		dropped, cerr := rec.Close()
		if ferr := traceOut.Close(); cerr == nil {
			cerr = ferr
		}
		if cerr != nil {
			fmt.Fprintf(stderr, "dbtrun: trace: %v\n", cerr)
			if err == nil {
				return 1
			}
		} else if dropped > 0 {
			fmt.Fprintf(stderr, "dbtrun: trace: %d events dropped\n", dropped)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "dbtrun: %v\n", err)
		return 1
	}

	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fmt.Fprintf(stderr, "dbtrun: %v\n", err)
			return 1
		}
		if err := snap.Save(f); err != nil {
			fmt.Fprintf(stderr, "dbtrun: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "dbtrun: %v\n", err)
			return 1
		}
	}
	if *dump {
		fmt.Fprint(stdout, snap.Dump())
	}
	if *stats {
		fmt.Fprintf(stdout, "blocks executed:    %d\n", runStats.BlocksExecuted)
		fmt.Fprintf(stdout, "instructions:       %d\n", runStats.Instructions)
		fmt.Fprintf(stdout, "blocks translated:  %d\n", runStats.BlocksTranslated)
		fmt.Fprintf(stdout, "retranslations:     %d\n", runStats.Retranslations)
		fmt.Fprintf(stdout, "optimization waves: %d\n", runStats.OptimizationWaves)
		fmt.Fprintf(stdout, "regions formed:     %d\n", runStats.RegionsFormed)
		if runStats.RegionsDissolved > 0 {
			fmt.Fprintf(stdout, "regions dissolved:  %d\n", runStats.RegionsDissolved)
		}
		fmt.Fprintf(stdout, "region entries:     %d (completions %d, loop-backs %d, side exits %d)\n",
			runStats.RegionEntries, runStats.RegionCompletions, runStats.RegionLoopBacks, runStats.RegionSideExits)
		fmt.Fprintf(stdout, "dispatches:         %d fast, %d generic (%d cache lookups)\n",
			runStats.FastDispatches, runStats.GenericDispatches, runStats.CacheLookups)
		fmt.Fprintf(stdout, "interrupt polls:    %d\n", runStats.InterruptPolls)
		if runStats.FreezeEvents > 0 {
			fmt.Fprintf(stdout, "freeze events:      %d\n", runStats.FreezeEvents)
		}
		fmt.Fprintf(stdout, "profiling ops:      %d\n", snap.ProfilingOps)
		if *perf && cfg.SamplePeriod <= 1 {
			// A sampled run has no cycle model.
			fmt.Fprintf(stdout, "simulated cycles:   %.0f\n", runStats.Cycles)
		}
	}
	if collector != nil {
		data := collector.BenchData(img.Name)
		if data.Unknown > 0 {
			fmt.Fprintf(stderr, "dbtrun: warning: %d branch events at sites the static extractor missed\n", data.Unknown)
		}
		out := struct {
			FeatureNames []string `json:"feature_names"`
			learned.BenchData
		}{learned.FeatureNames(), data}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "dbtrun: %v\n", err)
			return 1
		}
	}
	if *outFile == "" && !*dump && !*stats && collector == nil {
		fmt.Fprintf(stdout, "%s/%s T=%d: %d blocks, %d regions, %d profiling ops\n",
			snap.Program, snap.Input, snap.Threshold, len(snap.Blocks), len(snap.Regions), snap.ProfilingOps)
	}
	return 0
}

func load(bench, image, asm, input string, scale float64, seed string) (*guest.Image, interp.Tape, error) {
	sources := 0
	for _, s := range []string{bench, image, asm} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return nil, nil, fmt.Errorf("exactly one of -bench, -image, -asm is required")
	}
	switch {
	case bench != "":
		b := spec.ByName(bench)
		if b == nil {
			return nil, nil, fmt.Errorf("unknown benchmark %q", bench)
		}
		return b.Build(input, scale)
	case image != "":
		f, err := os.Open(image)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		img, err := guest.Load(f)
		if err != nil {
			return nil, nil, err
		}
		if seed == "" {
			seed = img.Name + "/" + input
		}
		return img, interp.NewUniformTape(seed), nil
	default:
		src, err := os.ReadFile(asm)
		if err != nil {
			return nil, nil, err
		}
		img, err := guest.Assemble(string(src))
		if err != nil {
			return nil, nil, err
		}
		if seed == "" {
			seed = img.Name + "/" + input
		}
		return img, interp.NewUniformTape(seed), nil
	}
}
