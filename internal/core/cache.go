package core

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/dbt"
	"repro/internal/learned"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/resultcache"
)

// This file threads the result cache (internal/resultcache) through the
// unit pipeline. Every cached unit output — the seven entry kinds ref,
// run, cmp, traincmp, bp, ls and sp — goes through one slot (below):
//
//   - lookup happens before a unit's expensive body runs; a validated
//     hit outside verify mode is warm and replays the unit's outputs
//     without executing any guest block (addRunStats is never called on
//     a warm path, so the study's BlocksExecuted stays at zero for fully
//     cached benchmarks);
//   - settle happens only on the unit's clean completion path: a miss
//     stores the computed value, a hit (verify mode, or a cold reference
//     run forced by another entry's miss) checks it against the cached
//     one. Failed, interrupted or faulted runs never reach a settle, so
//     the cache can only ever hold results the uncached pipeline would
//     have reported;
//   - in verify mode (Options.CacheVerify) a hit does not short-circuit:
//     the unit executes anyway and a divergence between the computed and
//     cached values is a hard unit error — the differential self-check
//     of both the cache and the engine's determinism;
//   - a unit settles every slot before it spawns a dependent unit, so a
//     settle failure fails the unit while it still owns every work item
//     it would have handed on, and the failure policy retires each of
//     them exactly once.
//
// What is never cached: benchmarks with an armed fault plan (their runs
// are deliberately perturbed), targets without a TapeID (the input
// identity is not declarative, so the key closure is incomplete), and
// interrupted or failed units (no clean completion, no store).

// runOutput is the cached outcome of one profiled execution: the unit of
// reuse for training runs, and the per-follower element of a reference
// bundle.
type runOutput struct {
	// T is the effective retranslation threshold (0 for AVEP/train).
	T uint64 `json:"t"`
	// Snapshot is the run's profile snapshot.
	Snapshot cachedSnapshot `json:"snapshot"`
	// Stats are the engine counters of this run's profiling context.
	Stats dbt.RunStats `json:"stats"`
	// Cycles is the perf-model total (0 when the model is off).
	Cycles float64 `json:"cycles"`
}

// refEntry is the cached output of a reference unit: the
// AVEP profile plus one runOutput per distinct effective threshold, in
// ladder (config) order.
type refEntry struct {
	AVEP       cachedSnapshot `json:"avep"`
	AVEPStats  dbt.RunStats   `json:"avep_stats"`
	AVEPCycles float64        `json:"avep_cycles"`
	Runs       []runOutput    `json:"runs"`
}

// cachedSnapshot is a profile snapshot as a cache entry field: a JSON
// string holding the base64 of its binary encoding, or null for nil.
// Snapshots are nearly all of an entry's bytes, and the binary form
// decodes several times faster than a map of seven-field JSON objects.
// The rest of each entry stays JSON, so the entries remain readable and
// the forging tests can still edit them.
type cachedSnapshot struct{ *profile.Snapshot }

func (c cachedSnapshot) MarshalJSON() ([]byte, error) {
	if c.Snapshot == nil {
		return []byte("null"), nil
	}
	raw, err := c.Snapshot.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, base64.StdEncoding.EncodedLen(len(raw))+2)
	out = append(out, '"')
	out = base64.StdEncoding.AppendEncode(out, raw)
	return append(out, '"'), nil
}

// UnmarshalJSON decodes the quoted base64 in place. It is called with
// the field's raw bytes, so each snapshot is scanned by the JSON
// decoder only as the string it is.
func (c *cachedSnapshot) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		c.Snapshot = nil
		return nil
	}
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return fmt.Errorf("core: cached snapshot is not a JSON string")
	}
	raw, err := base64.StdEncoding.AppendDecode(nil, data[1:len(data)-1])
	if err != nil {
		return fmt.Errorf("core: cached snapshot: %w", err)
	}
	snap := new(profile.Snapshot)
	if err := snap.UnmarshalBinary(raw); err != nil {
		return err
	}
	c.Snapshot = snap
	return nil
}

// cmpEntry is the cached output of one INIP(T)-vs-AVEP comparison.
type cmpEntry struct {
	Summary metrics.Summary `json:"summary"`
}

// trainCmpEntry is the cached output of the training comparison pair.
type trainCmpEntry struct {
	Train        metrics.Summary `json:"train"`
	TrainRegions metrics.Summary `json:"train_regions"`
}

// bpEntry is the cached output of the dynamic-predictor observers over
// the reference trace: one tally per requested predictor, in request
// order. The trace is fully determined by image and tape, so the entry
// is threshold-independent and shared across ladder shapes.
type bpEntry struct {
	Results []predict.Result `json:"results"`
}

// lsEntry is the cached output of the learned-predictor collection over
// the reference trace: every static branch site with its feature vector
// and outcome tallies. Like bp it is threshold-independent — the trace
// is fully determined by image and tape — and shared across ladder
// shapes. The fingerprint pins the feature schema (and,
// via the key's engine component, the model config it will feed).
type lsEntry struct {
	Fingerprint string            `json:"fingerprint"`
	Data        learned.BenchData `json:"data"`
}

// spEntry is the cached output of one sampled-profiling ladder: every
// distinct-threshold run of one sample period over the reference
// input, in ladder (config) order. The comparisons against AVEP are
// not cached — they are cheap and recomputed on warm reruns.
type spEntry struct {
	Period uint64      `json:"period"`
	Runs   []runOutput `json:"runs"`
}

// cacheUsable reports whether this benchmark's units may consult the
// result cache at all. Fault plans perturb runs, and a target without a
// declarative tape identity leaves the key closure incomplete — in both
// cases the pipeline silently runs uncached rather than guessing.
func (b *benchRun) cacheUsable() bool {
	return b.opts.Cache != nil && b.t.TapeID != nil && b.opts.Faults == nil
}

// cacheKey assembles the canonical key for one unit output of this
// benchmark. imgHash and tape identify the guest-side inputs, engine the
// translator configuration(s); kind and t disambiguate the unit flavour.
func (b *benchRun) cacheKey(kind, imgHash, tape, engine string, t uint64) resultcache.Key {
	return resultcache.Key{
		Kind:    kind,
		Bench:   b.t.Name,
		Context: b.opts.CacheContext,
		Image:   imgHash,
		Tape:    tape,
		Engine:  engine,
		T:       t,
	}
}

// slot is one cache entry a unit body consults: looked up before the
// body runs, settled with the computed value after. A slot that is off
// (cache unusable, or the entry's axis not requested) never hits and
// settles nothing.
type slot[E any] struct {
	b      *benchRun
	key    resultcache.Key
	on     bool
	hit    bool // a stored entry decoded and passed its validator
	cached E
}

// lookupSlot consults the store for one entry when on is set. keyFn is
// only called then, so an uncached run never pays for key building;
// valid, when non-nil, sanity-checks the decoded entry (a failure is a
// miss). The lookup emits a flight-recorder event for the validated
// outcome, so traces show where warm runs got their data, and an entry
// the validator rejected is a cache_miss whose error says so.
func lookupSlot[E any](b *benchRun, on bool, keyFn func() resultcache.Key, valid func(*E) bool, worker int) slot[E] {
	s := slot[E]{b: b, on: on}
	if !on {
		return s
	}
	s.key = keyFn()
	start := time.Now()
	s.hit = b.opts.Cache.Lookup(s.key, &s.cached)
	var err error
	if s.hit && valid != nil && !valid(&s.cached) {
		s.hit = false
		err = fmt.Errorf("core: %s cache entry of %s (t=%d) rejected by its sanity check (entry %s)",
			s.key.Kind, b.t.Name, s.key.T, s.key.Hash())
	}
	unit := obs.UnitCacheHit
	if !s.hit {
		unit = obs.UnitCacheMiss
		var zero E
		s.cached = zero // a rejected or partly decoded entry is not data
	}
	b.opts.Trace.Record(b.t.Name, unit, s.key.T, worker, start, time.Since(start), 0, err)
	return s
}

// warm reports whether the cached entry may be served as-is: a
// validated hit outside verify mode.
func (s *slot[E]) warm() bool { return s.hit && !s.b.opts.CacheVerify }

// settle closes the slot with the unit's freshly computed value: stored
// on a miss, checked against the entry on a hit (cacheVerify), nothing
// when the slot is off. A failed write is traced and counted by the
// store but never fails the unit — the computed result is correct
// either way, only its reuse is lost.
func (s *slot[E]) settle(computed E, worker int) error {
	switch {
	case !s.on:
		return nil
	case s.hit:
		return s.b.cacheVerify(s.key, computed, s.cached)
	}
	start := time.Now()
	err := s.b.opts.Cache.Put(s.key, computed)
	s.b.opts.Trace.Record(s.b.t.Name, obs.UnitCacheStore, s.key.T, worker, start, time.Since(start), 0, err)
	return nil
}

// cacheVerify compares a freshly computed unit output against the
// cached entry for the same key. Both sides are canonicalized through
// json.Marshal (deterministic: struct order, sorted map keys) so a
// value that merely round-tripped through the store compares equal; any
// remaining difference means the cache and the engine disagree about a
// supposedly deterministic result, which is exactly what verify mode
// exists to catch — it is a hard unit error, subject to the failure
// policy like any other.
func (b *benchRun) cacheVerify(k resultcache.Key, computed, cached any) error {
	cj, err := json.Marshal(computed)
	if err != nil {
		return fmt.Errorf("core: cache verify %s of %s: encode computed: %w", k.Kind, b.t.Name, err)
	}
	gj, err := json.Marshal(cached)
	if err != nil {
		return fmt.Errorf("core: cache verify %s of %s: encode cached: %w", k.Kind, b.t.Name, err)
	}
	if !bytes.Equal(cj, gj) {
		return fmt.Errorf("core: cache verify: %s entry of %s (t=%d) diverges from recomputed result (entry %s)",
			k.Kind, b.t.Name, k.T, k.Hash())
	}
	return nil
}

// cyclesOf extracts a run's perf-model total (0 with the model off).
func cyclesOf(cfg dbt.Config) float64 {
	if cfg.Perf != nil {
		return cfg.Perf.Cycles
	}
	return 0
}

// refEntryMatches sanity-checks a decoded reference bundle against the
// follower configs the pipeline is about to serve. The key fingerprint
// already encodes the config set, so a mismatch indicates a damaged or
// hand-edited entry; the caller treats it as a miss.
func refEntryMatches(ent *refEntry, cfgs []dbt.Config) bool {
	if ent.AVEP.Snapshot == nil || len(ent.Runs) != len(cfgs)-1 {
		return false
	}
	for j, ro := range ent.Runs {
		if ro.Snapshot.Snapshot == nil || ro.T != cfgs[j+1].Threshold {
			return false
		}
	}
	return true
}

// refCacheKey keys the reference bundle: one entry covers
// the AVEP run and every distinct-threshold follower, so the engine
// component joins all follower fingerprints in config order.
func (b *benchRun) refCacheKey(imgHash string, cfgs []dbt.Config) resultcache.Key {
	return b.cacheKey("ref", imgHash, b.t.TapeID("ref"), joinFingerprints(cfgs), 0)
}

// joinFingerprints is the engine component of a multi-run entry: every
// config's fingerprint in config order, joined with '|'.
func joinFingerprints(cfgs []dbt.Config) string {
	engines := make([]byte, 0, 64*len(cfgs))
	for i, cfg := range cfgs {
		if i > 0 {
			engines = append(engines, '|')
		}
		engines = append(engines, cfg.Fingerprint()...)
	}
	return string(engines)
}

// bpEntryMatches sanity-checks a decoded predictor entry against the
// requested predictor list; a mismatch is treated as a miss.
func bpEntryMatches(ent *bpEntry, names []string) bool {
	if len(ent.Results) != len(names) {
		return false
	}
	for i, r := range ent.Results {
		if r.Predictor != names[i] {
			return false
		}
	}
	return true
}

// bpCacheKey keys the predictor tallies over the reference trace. The
// engine component is the predictor list — the trace itself does not
// depend on any translator configuration, only on image and tape.
func (b *benchRun) bpCacheKey(imgHash string) resultcache.Key {
	return b.cacheKey("bp", imgHash, b.t.TapeID("ref"),
		"predictors="+strings.Join(b.opts.Predictors, ","), 0)
}

// lsEntryMatches sanity-checks a decoded learned-collection entry; a
// mismatch (wrong fingerprint, wrong benchmark, or a feature width the
// current extractor would not produce) is treated as a miss.
func lsEntryMatches(ent *lsEntry, fingerprint, bench string) bool {
	if ent.Fingerprint != fingerprint || ent.Data.Bench != bench {
		return false
	}
	for i := range ent.Data.Sites {
		if len(ent.Data.Sites[i].X) != learned.NumFeatures() {
			return false
		}
	}
	return true
}

// lsCacheKey keys the learned collection over the reference trace. The
// engine component is the model-config fingerprint, which also carries
// the feature-schema version; the collection itself depends only on
// image and tape, so study runs and the daemon warm each other.
func (b *benchRun) lsCacheKey(imgHash string) resultcache.Key {
	return b.cacheKey("ls", imgHash, b.t.TapeID("ref"), b.opts.Learned.Fingerprint(), 0)
}

// spEntryMatches sanity-checks a decoded sampled-ladder entry against
// the period and configs the pipeline is about to serve; a mismatch is
// treated as a miss.
func spEntryMatches(ent *spEntry, period uint64, cfgs []dbt.Config) bool {
	if ent.Period != period || len(ent.Runs) != len(cfgs) {
		return false
	}
	for j, ro := range ent.Runs {
		if ro.Snapshot.Snapshot == nil || ro.T != cfgs[j].Threshold {
			return false
		}
	}
	return true
}

// spCacheKey keys one sampled-profiling ladder. Each config's
// fingerprint already carries the period and seed (";sample=..."), so
// the joined engine component pins the whole bundle; T carries the
// period to keep entries of one sweep distinguishable in traces.
func (b *benchRun) spCacheKey(imgHash string, period uint64, cfgs []dbt.Config) resultcache.Key {
	return b.cacheKey("sp", imgHash, b.t.TapeID("ref"), joinFingerprints(cfgs), period)
}

// runCacheKey keys one profiled execution: the training run.
func (b *benchRun) runCacheKey(imgHash, input string, cfg dbt.Config) resultcache.Key {
	return b.cacheKey("run", imgHash, b.t.TapeID(input), cfg.Fingerprint(), cfg.Threshold)
}

// cmpCacheKey keys one INIP(T)-vs-AVEP comparison. Both sides' configs
// participate.
func (b *benchRun) cmpCacheKey(t uint64) resultcache.Key {
	inip := b.dbtConfig("ref", t, true).Fingerprint()
	avep := b.dbtConfig("ref", 0, false).Fingerprint()
	return b.cacheKey("cmp", b.refImgHash, b.t.TapeID("ref"),
		fmt.Sprintf("inip(%s)vs(%s)", inip, avep), t)
}

// trainCmpCacheKey keys the training comparison pair. It spans two
// images and two tapes (ref for AVEP, train for INIP(train)), joined
// component-wise; the offline region formation that produces the
// TrainRegions side is pinned by its threshold.
func (b *benchRun) trainCmpCacheKey() resultcache.Key {
	avep := b.dbtConfig("ref", 0, false).Fingerprint()
	train := b.dbtConfig("train", 0, false).Fingerprint()
	return b.cacheKey("traincmp",
		b.refImgHash+"+"+b.trainImgHash,
		b.t.TapeID("ref")+"+"+b.t.TapeID("train"),
		fmt.Sprintf("train(%s)vs(%s)|offlineregions=%d", train, avep, trainRegionThreshold), 0)
}
