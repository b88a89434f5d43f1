package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/study"
)

// JobState is the lifecycle of one async study job.
type JobState string

const (
	// JobQueued: accepted, waiting for a job slot.
	JobQueued JobState = "queued"
	// JobRunning: study.Run is executing.
	JobRunning JobState = "running"
	// JobDone: completed; figures and perf are available.
	JobDone JobState = "done"
	// JobStopped: drained cooperatively mid-run (stop_after); a -resume
	// restart re-enqueues it, and the rerun recomputes only the units
	// missing from the server's shared cache.
	JobStopped JobState = "stopped"
	// JobInterrupted: the daemon went down (drain or kill) before the
	// job finished; resumable like JobStopped.
	JobInterrupted JobState = "interrupted"
	// JobFailed: study.Run returned a hard error.
	JobFailed JobState = "failed"
)

// terminal reports whether the state is final for this daemon process.
func (s JobState) terminal() bool {
	return s == JobDone || s == JobStopped || s == JobInterrupted || s == JobFailed
}

// resumable reports whether a -resume restart should re-enqueue the
// job: anything not finished and not failed, including records left in
// queued/running by an uncontrolled kill.
func (s JobState) resumable() bool {
	return s == JobQueued || s == JobRunning || s == JobStopped || s == JobInterrupted
}

// studyRequest is the POST /v1/study body.
type studyRequest struct {
	// Scale overrides the server default.
	Scale float64 `json:"scale,omitempty"`
	// Benches selects a suite subset (default: full suite).
	Benches []string `json:"benches,omitempty"`
	// StopAfter stops the study gracefully after that many benchmark
	// completions — the deterministic drain hook tests and the CI
	// kill-and-resume smoke use. It is a one-shot interruption aid:
	// a resumed job ignores it and runs to completion.
	StopAfter int `json:"stop_after,omitempty"`
}

// jobRecord is the persisted job state (StateDir/jobs.json).
type jobRecord struct {
	ID      string       `json:"id"`
	State   JobState     `json:"state"`
	Request studyRequest `json:"request"`
	Error   string       `json:"error,omitempty"`
	// Resumed marks a job re-enqueued from a previous daemon's state.
	Resumed      bool  `json:"resumed,omitempty"`
	CreatedUnix  int64 `json:"created_unix"`
	FinishedUnix int64 `json:"finished_unix,omitempty"`
}

// jobResult is the persisted outcome of a finished job
// (StateDir/<id>.result.json). Figures are deterministic data — a
// resumed job's figures are byte-identical to an uninterrupted run's.
type jobResult struct {
	Figures  []study.Figure     `json:"figures"`
	Perf     study.Perf         `json:"perf"`
	Failures []core.UnitFailure `json:"failures,omitempty"`
}

// job is the in-memory job state: the record plus the live machinery —
// stop channel, progress lines, SSE subscribers.
type job struct {
	mu     sync.Mutex
	rec    jobRecord
	stop   chan struct{}
	closed bool // stop already closed
	lines  []string
	subs   map[chan string]struct{}
	result *jobResult
}

// requestStop closes the job's cooperative stop channel once.
func (j *job) requestStop() {
	j.mu.Lock()
	if !j.closed {
		j.closed = true
		close(j.stop)
	}
	j.mu.Unlock()
}

// Write implements io.Writer for study.Config.Progress: complete lines
// are appended to the job's log and fanned out to SSE subscribers.
// Partial trailing data is carried until its newline arrives.
func (j *job) Write(p []byte) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, line := range strings.Split(strings.TrimRight(string(p), "\n"), "\n") {
		if line == "" {
			continue
		}
		j.lines = append(j.lines, line)
		for ch := range j.subs {
			select {
			case ch <- line:
			default: // a stalled subscriber drops lines, never blocks the study
			}
		}
	}
	return len(p), nil
}

// subscribe returns a snapshot of the lines so far plus a live channel;
// the channel is closed when the job reaches a terminal state.
func (j *job) subscribe() ([]string, chan string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan string, 64)
	if j.rec.State.terminal() {
		close(ch)
		return append([]string(nil), j.lines...), ch
	}
	if j.subs == nil {
		j.subs = make(map[chan string]struct{})
	}
	j.subs[ch] = struct{}{}
	return append([]string(nil), j.lines...), ch
}

func (j *job) unsubscribe(ch chan string) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// snapshot returns a copy of the record under the lock.
func (j *job) snapshot() jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// jobTable owns every job: registry, ordering, persistence, the job
// concurrency gate and the drain WaitGroup.
type jobTable struct {
	mu    sync.Mutex
	byID  map[string]*job
	order []string
	seq   int

	dir   string // "" = memory-only
	slots chan struct{}
	wg    sync.WaitGroup

	// recordsDropped counts corrupt jobs.json tails salvaged at open
	// (set once at startup; exported as inipd_job_records_dropped_total).
	recordsDropped uint64
}

// openJobTable loads (or initializes) the job table. Startup is the
// safe moment to sweep stale atomic-write temporaries out of the state
// directory: a previous daemon killed mid-publication of jobs.json or
// a result file leaves exactly such orphans behind.
func openJobTable(dir string, maxJobs int) (*jobTable, error) {
	t := &jobTable{
		byID:  make(map[string]*job),
		dir:   dir,
		slots: make(chan struct{}, maxJobs),
	}
	if dir == "" {
		return t, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	if _, err := atomicio.SweepTemps(dir); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, "jobs.json"))
	if os.IsNotExist(err) {
		return t, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: job table: %w", err)
	}
	recs, dropped := decodeJobRecords(data)
	t.recordsDropped = dropped
	for _, rec := range recs {
		// A record still queued/running belongs to a daemon that was
		// killed without a drain; it is interrupted until resumed.
		if rec.State == JobQueued || rec.State == JobRunning {
			rec.State = JobInterrupted
		}
		j := &job{rec: rec, stop: make(chan struct{})}
		t.byID[rec.ID] = j
		t.order = append(t.order, rec.ID)
		if n := numericSuffix(rec.ID); n > t.seq {
			t.seq = n
		}
	}
	return t, nil
}

// decodeJobRecords parses jobs.json, tolerating a corrupt tail. The
// file is rewritten atomically, so a damaged one means outside
// interference (disk fault, manual edit, a copy taken mid-write by a
// non-atomic tool) — the daemon salvages every leading record that
// still parses rather than refusing to start: losing resumability for
// one trailing job must not take the whole job history down with it.
// dropped counts the salvage (1 per corrupt tail; the exact number of
// records lost in unparsable bytes is unknowable).
func decodeJobRecords(data []byte) (recs []jobRecord, dropped uint64) {
	if err := json.Unmarshal(data, &recs); err == nil {
		return recs, 0
	}
	if len(bytes.TrimSpace(data)) == 0 {
		// An empty file is an empty table, not a corrupt one.
		return nil, 0
	}
	recs = nil
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
		return nil, 1
	}
	for dec.More() {
		var rec jobRecord
		if err := dec.Decode(&rec); err != nil {
			break
		}
		recs = append(recs, rec)
	}
	return recs, 1
}

func numericSuffix(id string) int {
	n := 0
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

// create registers a new queued job and persists the table.
func (t *jobTable) create(req studyRequest) *job {
	t.mu.Lock()
	t.seq++
	j := &job{
		rec: jobRecord{
			ID:          fmt.Sprintf("job-%d", t.seq),
			State:       JobQueued,
			Request:     req,
			CreatedUnix: time.Now().Unix(),
		},
		stop: make(chan struct{}),
	}
	t.byID[j.rec.ID] = j
	t.order = append(t.order, j.rec.ID)
	t.mu.Unlock()
	t.persist()
	return j
}

func (t *jobTable) get(id string) *job {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byID[id]
}

func (t *jobTable) list() []jobRecord {
	t.mu.Lock()
	ids := append([]string(nil), t.order...)
	t.mu.Unlock()
	out := make([]jobRecord, 0, len(ids))
	for _, id := range ids {
		if j := t.get(id); j != nil {
			out = append(out, j.snapshot())
		}
	}
	return out
}

// transition moves a job to a new state and persists the table. On a
// terminal state every SSE subscriber channel is closed.
func (t *jobTable) transition(j *job, state JobState, errMsg string) {
	j.mu.Lock()
	j.rec.State = state
	j.rec.Error = errMsg
	if state.terminal() {
		j.rec.FinishedUnix = time.Now().Unix()
		for ch := range j.subs {
			close(ch)
		}
		j.subs = nil
	}
	j.mu.Unlock()
	t.persist()
}

// persist atomically rewrites jobs.json (no-op for a memory-only
// table). A write failure must not take a job down with it — the job's
// in-memory state is authoritative for this process — so it is
// deliberately dropped here; resumability degrades, correctness does
// not.
func (t *jobTable) persist() {
	if t.dir == "" {
		return
	}
	t.mu.Lock()
	recs := make([]jobRecord, 0, len(t.order))
	for _, id := range t.order {
		if j := t.byID[id]; j != nil {
			recs = append(recs, j.snapshot())
		}
	}
	t.mu.Unlock()
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return
	}
	atomicio.WriteFile(filepath.Join(t.dir, "jobs.json"), append(data, '\n'), 0o644)
}

// stopAll requests a cooperative stop of every live job.
func (t *jobTable) stopAll() {
	t.mu.Lock()
	jobs := make([]*job, 0, len(t.byID))
	for _, j := range t.byID {
		jobs = append(jobs, j)
	}
	t.mu.Unlock()
	for _, j := range jobs {
		j.requestStop()
	}
}

func (t *jobTable) resultPath(id string) string {
	if t.dir == "" {
		return ""
	}
	return filepath.Join(t.dir, id+".result.json")
}

// loadResult returns a finished job's result, reading it back from the
// state directory when this process did not produce it itself.
func (t *jobTable) loadResult(j *job) (*jobResult, error) {
	j.mu.Lock()
	res := j.result
	id := j.rec.ID
	j.mu.Unlock()
	if res != nil {
		return res, nil
	}
	p := t.resultPath(id)
	if p == "" {
		return nil, fmt.Errorf("serve: job %s has no stored result", id)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, err
	}
	var out jobResult
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("serve: job %s result: %w", id, err)
	}
	j.mu.Lock()
	j.result = &out
	j.mu.Unlock()
	return &out, nil
}

// resumeJobs re-enqueues every resumable job found at startup.
func (s *Server) resumeJobs() {
	for _, rec := range s.jobs.list() {
		if !rec.State.resumable() {
			continue
		}
		j := s.jobs.get(rec.ID)
		j.mu.Lock()
		j.rec.State = JobQueued
		j.rec.Error = ""
		j.rec.Resumed = true
		j.rec.FinishedUnix = 0
		j.mu.Unlock()
		s.jobs.persist()
		s.spawnJob(j)
	}
}

// spawnJob launches the job goroutine (tracked for drain).
func (s *Server) spawnJob(j *job) {
	s.jobs.wg.Add(1)
	go s.runJob(j)
}

// studyConfig builds the study a request asks for. handleStudy calls
// it to answer a bad request with 400 before any job exists, and
// runJob calls it again to run the job, so both judge the same config.
func (s *Server) studyConfig(req studyRequest) (study.Config, error) {
	cfg := study.Config{
		Scale:       req.Scale,
		Parallelism: s.cfg.Workers,
		Policy:      core.Degrade,
		StopAfter:   req.StopAfter,
		Cache:       s.cfg.Cache,
		Trace:       s.cfg.Trace,
	}
	if cfg.Scale == 0 {
		cfg.Scale = s.cfg.Scale
	}
	for _, name := range req.Benches {
		b := spec.ByName(strings.TrimSpace(name))
		if b == nil {
			return cfg, fmt.Errorf("unknown benchmark %q", name)
		}
		cfg.Benchmarks = append(cfg.Benchmarks, b)
	}
	return cfg, cfg.Validate()
}

// runJob takes a job through its lifecycle: wait for a slot, run the
// study with the server's shared cache and trace, classify the outcome.
// A cooperative stop during drain leaves the job interrupted and
// resumable; its finished units are in the shared cache.
func (s *Server) runJob(j *job) {
	defer s.jobs.wg.Done()
	select {
	case s.jobs.slots <- struct{}{}:
	case <-j.stop:
		s.jobs.transition(j, JobInterrupted, "")
		return
	}
	defer func() { <-s.jobs.slots }()
	s.jobs.transition(j, JobRunning, "")

	rec := j.snapshot()
	req := rec.Request
	if rec.Resumed {
		// stop_after already did its job in the interrupted run; the
		// resumed one completes the remainder.
		req.StopAfter = 0
	}
	var res *study.Results
	cfg, err := s.studyConfig(req)
	if err == nil {
		cfg.Stop = j.stop
		cfg.Progress = j
		res, err = study.Run(cfg)
	}
	switch {
	case err == nil:
		out := &jobResult{Figures: res.Figures(), Perf: res.Perf, Failures: res.Failures}
		if p := s.jobs.resultPath(rec.ID); p != "" {
			if data, merr := json.MarshalIndent(out, "", "  "); merr == nil {
				atomicio.WriteFile(p, append(data, '\n'), 0o644)
			}
		}
		j.mu.Lock()
		j.result = out
		j.mu.Unlock()
		s.recordJobPerf(res.Perf)
		s.jobs.transition(j, JobDone, "")
	case isStopped(err) && s.draining.Load():
		s.jobs.transition(j, JobInterrupted, "")
	case isStopped(err):
		s.jobs.transition(j, JobStopped, "")
	default:
		s.jobs.transition(j, JobFailed, err.Error())
	}
}

func isStopped(err error) bool {
	return errors.Is(err, study.ErrStopped)
}

func (s *Server) handleStudy(w http.ResponseWriter, r *http.Request) {
	s.m.studyRequests.Add(1)
	if s.draining.Load() {
		errorJSON(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req studyRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if _, err := s.studyConfig(req); err != nil {
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	j := s.jobs.create(req)
	s.spawnJob(j)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(j.snapshot())
}

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"jobs": s.jobs.list()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		errorJSON(w, http.StatusNotFound, "no such job")
		return
	}
	rec := j.snapshot()
	out := map[string]any{"job": rec}
	if rec.State == JobDone {
		if res, err := s.jobs.loadResult(j); err == nil {
			out["result"] = res
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleJobFigures serves exactly the figure JSON of a finished job —
// deterministic data with no timestamps, so two runs of the same study
// (including an interrupted-then-resumed one) compare byte-equal.
func (s *Server) handleJobFigures(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		errorJSON(w, http.StatusNotFound, "no such job")
		return
	}
	if st := j.snapshot().State; st != JobDone {
		errorJSON(w, http.StatusConflict, "job is %s, figures exist only for done jobs", st)
		return
	}
	res, err := s.jobs.loadResult(j)
	if err != nil {
		errorJSON(w, http.StatusInternalServerError, "%v", err)
		return
	}
	data, err := json.MarshalIndent(res.Figures, "", " ")
	if err != nil {
		errorJSON(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// handleJobEvents streams job progress as Server-Sent Events: a replay
// of everything logged so far, then live lines, then a terminal "state"
// event naming how the job ended.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		errorJSON(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		errorJSON(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	replay, ch := j.subscribe()
	defer j.unsubscribe(ch)
	for _, line := range replay {
		fmt.Fprintf(w, "data: %s\n\n", line)
	}
	fl.Flush()
	for {
		select {
		case line, open := <-ch:
			if !open {
				fmt.Fprintf(w, "event: state\ndata: %s\n\n", j.snapshot().State)
				fl.Flush()
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", line)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
