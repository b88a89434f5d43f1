package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/learned"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/resultcache"
	"repro/internal/spec"
	"repro/internal/study"
)

// legacyIDs are the paper's figures: every study configuration must
// produce them byte-identically, whatever axes it adds.
var legacyIDs = map[string]bool{
	"fig8": true, "fig9": true, "fig10": true, "fig11": true, "fig12": true, "fig13": true,
	"fig14": true, "fig15": true, "fig16": true, "fig17": true, "fig18": true,
}

// studyConfig is the study one suite op regenerates: the whole suite in
// the paper's order. The suite is the paper's fixed input, so the seed
// does not change it. axes adds every extension axis on the shared
// reference trace: all six dynamic predictors, two sampled-profiling
// periods and the learned tree model.
func (r *run) studyConfig(axes bool) study.Config {
	cfg := study.Config{Scale: r.scale, Parallelism: parallelism}
	if axes {
		cfg.Predictors = predict.Names()
		cfg.SamplePeriods = []uint64{4, 16}
		cfg.Learned = &learned.Config{Model: learned.ModelTree}
	}
	return cfg
}

// studyOut is one regenerated study.
type studyOut struct {
	res  *study.Results
	figs []byte // every figure as JSON: the study's product
	// wall is one op: study.Run, drawing the figures and encoding them.
	wall            time.Duration
	figures, render time.Duration
	events          []obs.Event
}

// legacy is fig8..fig18 of the study as JSON.
func (o *studyOut) legacy() []byte {
	var figs []study.Figure
	for _, f := range o.res.Figures() {
		if legacyIDs[f.ID] {
			figs = append(figs, f)
		}
	}
	data, err := json.Marshal(figs)
	if err != nil {
		panic(err) // regenerate already encoded these very figures
	}
	return data
}

// regenerate runs one study and renders its figures. With traced set,
// the study's obs recorder is attached and the call is recorded as a
// span named name: study.Run with the recorder's events beneath it,
// then figure drawing and rendering.
func (r *run) regenerate(cfg study.Config, traced bool, name string) (*studyOut, error) {
	var buf bytes.Buffer
	var rec *obs.Recorder
	if traced {
		rec = obs.NewRecorder(&buf)
		cfg.Trace = rec
	}
	t0 := time.Now()
	res, err := study.Run(cfg)
	t1 := time.Now()
	if _, cerr := rec.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("study: %w", err)
	}
	figs := res.Figures()
	t2 := time.Now()
	data, err := json.Marshal(figs)
	t3 := time.Now()
	if err != nil {
		return nil, err
	}
	out := &studyOut{res: res, figs: data, wall: t3.Sub(t0), figures: t2.Sub(t1), render: t3.Sub(t2)}
	if traced {
		if out.events, err = obs.ReadEvents(&buf); err != nil {
			return nil, err
		}
		sp := r.spans
		id := sp.add(0, name, "", t0, t3)
		runID := sp.add(id, "study.run", "", t0, t1)
		sp.addEvents(runID, rec.Start(), out.events)
		sp.add(id, "study.figures", "", t1, t2)
		sp.add(id, "study.render", "", t2, t3)
	}
	return out, nil
}

// checkStudy gates one regenerated study: every benchmark completed
// cleanly, and the guest executed exactly when it should have.
func (r *run) checkStudy(out *studyOut, wantBlocks bool) bool {
	ok := r.gate(len(out.res.Failures) == 0, "study reported %d unit failures", len(out.res.Failures))
	ok = r.gate(len(out.res.Series) == len(spec.Suite()), "study has %d series, want %d", len(out.res.Series), len(spec.Suite())) && ok
	blocks := out.res.Perf.BlocksExecuted
	if wantBlocks {
		ok = r.gate(blocks > 0, "cold study executed no guest blocks") && ok
	} else {
		ok = r.gate(blocks == 0, "warm study executed %d guest blocks", blocks) && ok
	}
	return ok
}

// printLegacyHash reports the hash of the paper's figures, which every
// suite workload must produce identically; the set mode compares it
// across workloads.
func (r *run) printLegacyHash(legacy []byte) {
	sum := sha256.Sum256(legacy)
	fmt.Fprintf(r.stdout, "%s legacy_figures_sha256 %s\n", r.workload.name, hex.EncodeToString(sum[:]))
}

func runSuiteCold(r *run) error { return r.suite(false, false) }

func runSuiteAxes(r *run) error { return r.suite(true, false) }

func runSuiteWarm(r *run) error { return r.suite(false, true) }

// suite runs a suite workload. Every op regenerates the study: from
// scratch (suite_cold), from scratch with every axis on (suite_axes), or
// from a filled result cache, executing no guest block (suite_warm).
//
// The set-up step regenerates the plain study from scratch, into a
// fresh result cache for suite_warm, which is that workload's write
// side. Its figures are the reference every op must reproduce: all of
// them, or for suite_axes the paper's figures, which the axes must not
// move.
func (r *run) suite(axes, warm bool) error {
	var ref *studyOut
	var store *resultcache.Store
	var setupEvents []obs.Event
	for i := 0; i < setupReps; i++ {
		cfg := r.studyConfig(false)
		if warm {
			s, err := r.freshStore()
			if err != nil {
				return err
			}
			if store != nil {
				if err := os.RemoveAll(store.Dir()); err != nil {
					return err
				}
			}
			store, cfg.Cache = s, s
		}
		var out *studyOut
		var err error
		r.setupTimed(func() { out, err = r.regenerate(cfg, r.traced && warm, "setup") })
		if err != nil {
			return err
		}
		ok := r.checkStudy(out, true)
		if ref == nil {
			ref = out
		} else {
			ok = r.gate(bytes.Equal(out.figs, ref.figs), "set-up %d figures differ from set-up 0", i) && ok
		}
		r.check(ok, "set-up %d failed its gates", i)
		setupEvents = append(setupEvents, out.events...)
	}
	refLegacy := ref.legacy()
	r.printLegacyHash(refLegacy)

	// first is the reference of every op's figures: the set-up's, or
	// with every axis on, which the plain set-up does not draw, op 0's.
	first := ref
	var traced []*studyOut
	for i := 0; !r.windowDone(); i++ {
		cfg := r.studyConfig(axes)
		cfg.Cache = store
		tr := r.nextTraced()
		var out *studyOut
		var err error
		seg := r.measure(tr, func() { out, err = r.regenerate(cfg, tr, "op") })
		if err != nil {
			return err
		}
		ok := r.checkStudy(out, !warm)
		if axes && i == 0 {
			first = out
		}
		ok = r.gate(bytes.Equal(out.figs, first.figs), "op %d figures differ from the reference", i) && ok
		if axes {
			ok = r.gate(bytes.Equal(out.legacy(), refLegacy), "op %d: the paper's figures with every axis on differ from the plain study's", i) && ok
		}
		r.opDone(seg, out.wall, ok)
		if tr {
			traced = append(traced, out)
		}
	}
	if !r.traced {
		return nil
	}
	r.studyLayers(traced, setupEvents)
	if warm {
		if err := r.storeLayers(store); err != nil {
			return err
		}
		return r.probe(probePlan{builds: spec.Suite(), hash: true})
	}
	return r.probe(r.suitePlan(axes, first.res))
}

// studyLayers derives the core, resultcache and study layer metrics of
// the suite workloads from the traced ops, per op. setupEvents are the
// recorder events of traced set-up steps, the only place suite_warm
// writes cache entries.
func (r *run) studyLayers(ops []*studyOut, setupEvents []obs.Event) {
	var evs []obs.Event
	var wall, figures, render time.Duration
	for _, o := range ops {
		evs = append(evs, o.events...)
		wall += o.wall
		figures += o.figures
		render += o.render
	}
	n := float64(len(ops))
	r.eventLayers(evs, setupEvents, n, wall)
	r.layers["study.figures_ms"] = ms(figures) / n
	r.layers["study.render_ms"] = ms(render) / n
}
