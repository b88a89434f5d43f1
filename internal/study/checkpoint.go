package study

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/atomicio"
	"repro/internal/learned"
	"repro/internal/obs"
)

// checkpointVersion is bumped whenever the on-disk schema changes; a
// version mismatch is a hard resume error, never a silent reinterpret.
//
// v2: the header lost its run-mode flag (the study has one run mode).
const checkpointVersion = 2

// checkpointHeader is the first line of a checkpoint file: the
// fingerprint of the study configuration that produced it. A resumed
// run must match it exactly — mixing series from different scales,
// ladders, study axes or suite selections would corrupt the figures
// silently, which is worse than rerunning.
type checkpointHeader struct {
	Version    int       `json:"version"`
	Scale      float64   `json:"scale"`
	PaperT     []float64 `json:"paper_t"`
	Benchmarks []string  `json:"benchmarks"`
	// Predictors is the requested dynamic-predictor list; omitted when
	// empty so predictor-less checkpoints are byte-identical to files
	// written before the field existed (strict unmarshal keeps reading
	// them).
	Predictors []string `json:"predictors,omitempty"`
	// SamplePeriods is the requested sampled-profiling period ladder;
	// omitted when empty for the same backwards compatibility.
	SamplePeriods []uint64 `json:"sample_periods,omitempty"`
	// Learned is the learned-model fingerprint (config + feature-schema
	// version); omitted when the study ran no learned collection. A
	// mismatch refuses the resume: series carry per-site feature vectors
	// whose meaning the fingerprint pins.
	Learned string `json:"learned,omitempty"`
}

// checkpointer persists completed benchmark series. Every commit
// atomically rewrites the whole file (header plus one JSONL line per
// completed series, in suite order) — a study is at most a few dozen
// small series, and full rewrites keep the file valid after any crash:
// either the old set or the new set, never a torn line. All methods
// are safe on a nil receiver (checkpointing off).
type checkpointer struct {
	path   string
	header checkpointHeader
	order  map[string]int // benchmark name -> suite position

	mu      sync.Mutex
	done    map[string]BenchmarkSeries
	nWrites uint64
	nErrors uint64
}

// openCheckpoint wires up checkpointing for the run: it returns the
// writer (nil when no path is configured) and, when resuming, the
// series restored from the existing file. A missing file on resume is
// a fresh start — the study may have been interrupted before the first
// benchmark completed — but an unreadable or mismatching file is an
// error.
func openCheckpoint(cfg *Config, paperT []float64) (*checkpointer, map[string]BenchmarkSeries, error) {
	if cfg.Checkpoint == "" {
		return nil, nil, nil
	}
	names := make([]string, len(cfg.Benchmarks))
	order := make(map[string]int, len(cfg.Benchmarks))
	for i, b := range cfg.Benchmarks {
		names[i] = b.Name
		order[b.Name] = i
	}
	c := &checkpointer{
		path: cfg.Checkpoint,
		header: checkpointHeader{
			Version:       checkpointVersion,
			Scale:         cfg.Scale,
			PaperT:        paperT,
			Benchmarks:    names,
			Predictors:    cfg.Predictors,
			SamplePeriods: cfg.SamplePeriods,
			Learned:       learnedFingerprint(cfg.Learned),
		},
		order: order,
		done:  make(map[string]BenchmarkSeries),
	}
	// A kill mid-publication orphans a checkpoint temp file next to the
	// destination; sweep it before any write of this run is in flight.
	// Scoped to this checkpoint's basename so per-job checkpoints can
	// share a state directory with live writers.
	atomicio.SweepTempsFor(cfg.Checkpoint)
	if !cfg.Resume {
		return c, nil, nil
	}
	f, err := os.Open(cfg.Checkpoint)
	if errors.Is(err, os.ErrNotExist) {
		return c, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("study: resume: %w", err)
	}
	defer f.Close()
	resumed, err := readCheckpoint(f, c.header)
	if err != nil {
		return nil, nil, fmt.Errorf("study: resume %s: %w", cfg.Checkpoint, err)
	}
	return c, resumed, nil
}

// learnedFingerprint is the header form of the learned config: empty
// when the class is off, the model fingerprint otherwise.
func learnedFingerprint(c *learned.Config) string {
	if c == nil {
		return ""
	}
	return c.Fingerprint()
}

// readCheckpoint parses and validates a checkpoint stream against the
// current run's fingerprint.
func readCheckpoint(r io.Reader, want checkpointHeader) (map[string]BenchmarkSeries, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, errors.New("empty checkpoint (no header)")
	}
	// The version is read on its own first: a header of another
	// version may carry fields this build does not know, and the reader
	// must name the version mismatch rather than the first such field.
	var v struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if v.Version != want.Version {
		return nil, fmt.Errorf("checkpoint version %d, this build reads only version %d", v.Version, want.Version)
	}
	var h checkpointHeader
	if err := strictUnmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if err := matchHeader(h, want); err != nil {
		return nil, err
	}
	valid := make(map[string]bool, len(want.Benchmarks))
	for _, n := range want.Benchmarks {
		valid[n] = true
	}
	out := make(map[string]BenchmarkSeries)
	for line := 2; sc.Scan(); line++ {
		var s BenchmarkSeries
		if err := strictUnmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		switch {
		case !valid[s.Name]:
			return nil, fmt.Errorf("line %d: series for %q, which is not in this run's benchmark set", line, s.Name)
		case len(s.PerT) != len(want.PaperT):
			return nil, fmt.Errorf("line %d: series %q has %d ladder entries, ladder has %d", line, s.Name, len(s.PerT), len(want.PaperT))
		case len(s.Failures) != 0:
			return nil, fmt.Errorf("line %d: series %q was checkpointed with failures", line, s.Name)
		}
		if _, dup := out[s.Name]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %q", line, s.Name)
		}
		out[s.Name] = s
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// strictUnmarshal decodes one JSON value rejecting unknown fields, so
// schema drift surfaces as a clear error instead of dropped data.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// matchHeader verifies the stored fingerprint against this run's,
// naming the first difference (readCheckpoint has already matched the
// version).
func matchHeader(got, want checkpointHeader) error {
	if got.Scale != want.Scale {
		return fmt.Errorf("checkpoint scale %v, this run uses %v", got.Scale, want.Scale)
	}
	if !equalFloats(got.PaperT, want.PaperT) {
		return fmt.Errorf("checkpoint ladder %v, this run uses %v", got.PaperT, want.PaperT)
	}
	if !equalStrings(got.Benchmarks, want.Benchmarks) {
		return fmt.Errorf("checkpoint benchmarks %v, this run selects %v", got.Benchmarks, want.Benchmarks)
	}
	if !equalStrings(got.Predictors, want.Predictors) {
		return fmt.Errorf("checkpoint predictors %v, this run selects %v", got.Predictors, want.Predictors)
	}
	if !equalUints(got.SamplePeriods, want.SamplePeriods) {
		return fmt.Errorf("checkpoint sample periods %v, this run selects %v", got.SamplePeriods, want.SamplePeriods)
	}
	if got.Learned != want.Learned {
		return fmt.Errorf("checkpoint learned model %q, this run uses %q", got.Learned, want.Learned)
	}
	return nil
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalUints(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// keep registers a series already present in the file (restored on
// resume) so later rewrites retain it.
func (c *checkpointer) keep(s BenchmarkSeries) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.done[s.Name] = s
	c.mu.Unlock()
}

// commit adds one completed series and rewrites the checkpoint
// atomically. A write failure is counted and traced, never fatal: the
// study's in-memory results are unaffected, only resumability of this
// benchmark is lost.
func (c *checkpointer) commit(s BenchmarkSeries, trace *obs.Recorder) {
	if c == nil {
		return
	}
	start := time.Now()
	c.mu.Lock()
	c.done[s.Name] = s
	data, err := c.renderLocked()
	if err == nil {
		err = atomicio.WriteFile(c.path, data, 0o644)
	}
	c.nWrites++
	if err != nil {
		c.nErrors++
	}
	c.mu.Unlock()
	trace.Record(s.Name, obs.UnitCheckpoint, 0, 0, start, time.Since(start), 0, err)
}

// renderLocked serializes header plus completed series in suite order.
func (c *checkpointer) renderLocked() ([]byte, error) {
	names := make([]string, 0, len(c.done))
	for n := range c.done {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return c.order[names[i]] < c.order[names[j]] })
	var out []byte
	hdr, err := json.Marshal(c.header)
	if err != nil {
		return nil, err
	}
	out = append(out, hdr...)
	out = append(out, '\n')
	for _, n := range names {
		line, err := json.Marshal(c.done[n])
		if err != nil {
			return nil, err
		}
		out = append(out, line...)
		out = append(out, '\n')
	}
	return out, nil
}

func (c *checkpointer) writes() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nWrites
}

func (c *checkpointer) writeErrors() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nErrors
}
