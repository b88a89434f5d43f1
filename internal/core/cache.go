package core

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strconv"
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
// unit pipeline. Every cached unit output — the three entry kinds ref,
// run and traincmp — goes through one slot (below):
//
//   - lookup happens before a unit's expensive body runs; a validated
//     hit outside verify mode is warm and replays the unit's outputs
//     without executing any guest block (addRunStats is never called on
//     a warm path, so the study's BlocksExecuted stays at zero for fully
//     cached benchmarks);
//   - settle happens only on the unit's clean completion path: a miss
//     stores the computed value, a hit (which reaches a settle only in
//     verify mode) checks it against the cached one. Failed, interrupted
//     or faulted runs never reach a settle, so the cache can only ever
//     hold results the uncached pipeline would have reported;
//   - in verify mode (Options.CacheVerify) a hit does not short-circuit:
//     the unit executes anyway and a divergence between the computed and
//     cached values is a hard unit error — the differential self-check
//     of both the cache and the engine's determinism;
//   - a unit settles its slot before it publishes, so a settle failure
//     fails the unit before any result computed from the unsettled
//     values reaches the benchmark's output.
//
// What is never cached: benchmarks with an armed fault plan (their runs
// are deliberately perturbed), targets without a TapeID (the input
// identity is not declarative, so the key closure is incomplete), and
// interrupted or failed units (no clean completion, no store).

// refEntry is the cached output of the reference step: the AVEP
// profile, which a training comparison that misses its own entry still
// reads, plus each other follower's result (its comparison with AVEP
// included) and the output of every study axis that rode the same
// trace. Runs holds one result per distinct effective threshold, in
// ladder (config) order. The axis fields are omitted when their axis is
// off, so an entry without axes keeps the bytes it had before they
// existed.
type refEntry struct {
	AVEP       cachedSnapshot    `json:"avep"`
	AVEPCycles float64           `json:"avep_cycles"`
	Runs       []ThresholdResult `json:"runs"`
	// Predictors holds one tally per requested predictor, in request
	// order.
	Predictors []predict.Result `json:"predictors,omitempty"`
	// Sampling holds one sampled ladder per requested period, in period
	// order, each shaped like Runs.
	Sampling [][]SampleThresholdResult `json:"sampling,omitempty"`
	// Learned is the learned-predictor collection: every static branch
	// site with its feature vector and outcome tallies.
	Learned *learned.BenchData `json:"learned,omitempty"`
	// Variants holds one result per requested variant, in request order.
	Variants []ThresholdResult `json:"variants,omitempty"`
}

// cachedSnapshot is a profile snapshot as a cache entry field: a JSON
// string holding the base64 of its binary encoding, or null for nil.
// It is the whole run entry and the ref entry's AVEP. The rest of each
// entry stays JSON, so the entries remain readable and the forging
// tests can still edit them.
//
// A looked-up snapshot keeps its base64 bytes and decodes at first use
// (snapshot): a warm answer whose training comparison hits its own
// entry reads neither snapshot, so it decodes neither. The bytes lie
// inside the store's checksum, the cache's trust boundary, so a
// checksummed snapshot that fails to decode is an error of the unit
// that reads it, never a panic and never served.
type cachedSnapshot struct {
	snap *profile.Snapshot // the decoded snapshot; nil until first use
	b64  []byte            // the stored base64, until decoded
}

// present reports whether the field holds a snapshot, decoded or not.
func (c *cachedSnapshot) present() bool { return c.snap != nil || c.b64 != nil }

// snapshot returns the snapshot, decoding the stored bytes on first
// use. A field that holds none returns nil.
func (c *cachedSnapshot) snapshot() (*profile.Snapshot, error) {
	if c.snap != nil || c.b64 == nil {
		return c.snap, nil
	}
	if onSnapshotDecode != nil {
		onSnapshotDecode()
	}
	raw, err := base64.StdEncoding.AppendDecode(nil, c.b64)
	if err != nil {
		return nil, fmt.Errorf("core: cached snapshot: %w", err)
	}
	snap := new(profile.Snapshot)
	if err := snap.UnmarshalBinary(raw); err != nil {
		return nil, err
	}
	c.snap, c.b64 = snap, nil
	return snap, nil
}

// onSnapshotDecode, when set, is called before each stored snapshot
// decodes; tests count decodes with it.
var onSnapshotDecode func()

// profilingOps returns the ProfilingOps of the snapshot the field
// holds. An undecoded snapshot yields it from the head of its binary
// encoding, without decoding a block.
func (c *cachedSnapshot) profilingOps() (uint64, error) {
	if c.b64 == nil {
		return c.snap.ProfilingOps, nil
	}
	// Decode a prefix of whole base64 quanta, doubling it until it holds
	// the header (its two strings are the only fields of open length).
	var buf [96]byte
	for n := 128; ; n *= 2 {
		n = min(n, len(c.b64)/4*4)
		head, err := base64.StdEncoding.AppendDecode(buf[:0], c.b64[:n])
		if err != nil {
			return 0, fmt.Errorf("core: cached snapshot: %w", err)
		}
		ops, err := profile.BinaryProfilingOps(head)
		if err == nil || n == len(c.b64)/4*4 {
			return ops, err
		}
	}
}

func (c cachedSnapshot) MarshalJSON() ([]byte, error) {
	snap, err := c.snapshot()
	if err != nil {
		return nil, err
	}
	if snap == nil {
		return []byte("null"), nil
	}
	raw, err := snap.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, base64.StdEncoding.EncodedLen(len(raw))+2)
	out = append(out, '"')
	out = base64.StdEncoding.AppendEncode(out, raw)
	return append(out, '"'), nil
}

// UnmarshalJSON keeps the quoted base64 for snapshot to decode. It is
// called with the field's raw bytes, so each snapshot is scanned by the
// JSON decoder only as the string it is.
func (c *cachedSnapshot) UnmarshalJSON(data []byte) error {
	c.snap, c.b64 = nil, nil
	if string(data) == "null" {
		return nil
	}
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return fmt.Errorf("core: cached snapshot is not a JSON string")
	}
	c.b64 = append([]byte{}, data[1:len(data)-1]...)
	return nil
}

// trainCmpEntry is the cached output of the training comparison pair.
type trainCmpEntry struct {
	Train        metrics.Summary `json:"train"`
	TrainRegions metrics.Summary `json:"train_regions"`
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
// translator configuration(s); kind names the unit flavour.
func (b *benchRun) cacheKey(kind, imgHash, tape, engine string) resultcache.Key {
	return resultcache.Key{
		Kind:    kind,
		Bench:   b.t.Name,
		Context: b.opts.CacheContext,
		Image:   imgHash,
		Tape:    tape,
		Engine:  engine,
	}
}

// slot is one cache entry a unit body consults: looked up before the
// body runs, settled with the computed value after. A slot that is off
// (the cache is unusable, see cacheUsable) never hits and settles
// nothing.
type slot[E any] struct {
	b      *benchRun
	key    resultcache.Key
	on     bool
	hit    bool // a stored entry decoded and passed its validator
	cached E
}

// lookupSlot consults the store for one entry when the cache is usable.
// keyFn is only called then, so an uncached run never pays for key
// building;
// valid, when non-nil, sanity-checks the decoded entry (a failure is a
// miss). The lookup emits a flight-recorder event for the validated
// outcome, so traces show where warm runs got their data, and an entry
// the validator rejected is a cache_miss whose error says so.
func lookupSlot[E any](b *benchRun, keyFn func() resultcache.Key, valid func(*E) bool, worker int) slot[E] {
	s := slot[E]{b: b, on: b.cacheUsable()}
	if !s.on {
		return s
	}
	s.key = keyFn()
	start := time.Now()
	s.hit = b.opts.Cache.Lookup(s.key, &s.cached)
	var err error
	if s.hit && valid != nil && !valid(&s.cached) {
		s.hit = false
		err = fmt.Errorf("core: %s cache entry of %s rejected by its sanity check (entry %s)",
			s.key.Kind, b.t.Name, s.key.Hash())
	}
	unit := obs.UnitCacheHit
	if !s.hit {
		unit = obs.UnitCacheMiss
		var zero E
		s.cached = zero // a rejected or partly decoded entry is not data
	}
	b.opts.Trace.Record(b.t.Name, unit, 0, worker, start, time.Since(start), 0, err)
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
	s.b.opts.Trace.Record(s.b.t.Name, obs.UnitCacheStore, 0, worker, start, time.Since(start), 0, err)
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
		return fmt.Errorf("core: cache verify: %s entry of %s diverges from recomputed result (entry %s)",
			k.Kind, b.t.Name, k.Hash())
	}
	return nil
}

// refEntryMatches sanity-checks a decoded reference bundle against what
// the pipeline is about to serve: cfgs are the reference configs in
// trace order (see referenceConfigs), n the number of distinct rungs.
// Every stored result must sit at its config's threshold. The key
// already encodes the config set and the axes, so a mismatch indicates
// a damaged or hand-edited entry; the caller treats it as a miss.
func (b *benchRun) refEntryMatches(ent *refEntry, cfgs []dbt.Config, n int) bool {
	preds, lcfg := b.opts.Predictors, b.opts.Learned
	if (!ent.AVEP.present() && !b.corpus) || len(ent.Sampling) != len(b.opts.SamplePeriods) ||
		len(ent.Predictors) != len(preds) || (ent.Learned != nil) != (lcfg != nil) {
		return false
	}
	tr := func(r *ThresholdResult) uint64 { return r.T }
	if !atThresholds(ent.Runs, cfgs[1:1+n], tr) ||
		!atThresholds(ent.Variants, cfgs[len(cfgs)-len(b.opts.Variants):], tr) {
		return false
	}
	for k, runs := range ent.Sampling {
		c := 1 + (k+1)*n
		if !atThresholds(runs, cfgs[c:c+n], func(r *SampleThresholdResult) uint64 { return r.T }) {
			return false
		}
	}
	for i, r := range ent.Predictors {
		if r.Predictor != preds[i] {
			return false
		}
	}
	if ent.Learned != nil {
		if ent.Learned.Bench != b.t.Name {
			return false
		}
		for i := range ent.Learned.Sites {
			if len(ent.Learned.Sites[i].X) != learned.NumFeatures() {
				return false
			}
		}
	}
	return true
}

// atThresholds reports whether rs holds one result per config of cfgs,
// each at its config's threshold (t reads a result's).
func atThresholds[R any](rs []R, cfgs []dbt.Config, t func(*R) uint64) bool {
	if len(rs) != len(cfgs) {
		return false
	}
	for i := range rs {
		if t(&rs[i]) != cfgs[i].Threshold {
			return false
		}
	}
	return true
}

// refCacheKey keys the reference bundle: one entry covers the AVEP run
// and every other follower with its comparison against AVEP, so the
// engine component joins all their fingerprints in config order. The
// predictor list and the learned model's fingerprint are appended only
// when those axes are set, so an axis-less bundle keeps its key.
func (b *benchRun) refCacheKey(cfgs []dbt.Config) resultcache.Key {
	engine := joinFingerprints(cfgs)
	if len(b.opts.Predictors) > 0 {
		engine += "|predictors=" + strings.Join(b.opts.Predictors, ",")
	}
	if b.opts.Learned != nil {
		engine += "|learned=" + b.opts.Learned.Fingerprint()
	}
	return b.cacheKey("ref", b.refImgHash, b.t.TapeID("ref"), engine)
}

// joinFingerprints is the engine component of a multi-run entry: every
// config's fingerprint in config order, joined with '|', rendered into
// one buffer.
func joinFingerprints(cfgs []dbt.Config) string {
	engines := make([]byte, 0, 224*len(cfgs))
	for i := range cfgs {
		if i > 0 {
			engines = append(engines, '|')
		}
		engines = cfgs[i].AppendFingerprint(engines)
	}
	return string(engines)
}

// runCacheKey keys one profiled execution: the training run.
func (b *benchRun) runCacheKey(imgHash, input string, cfg dbt.Config) resultcache.Key {
	return b.cacheKey("run", imgHash, b.t.TapeID(input), cfg.Fingerprint())
}

// trainCmpCacheKey keys the training comparison pair. It spans two
// images and two tapes (ref for AVEP, train for INIP(train)), joined
// component-wise; the offline region formation that produces the
// TrainRegions side is pinned by its threshold.
func (b *benchRun) trainCmpCacheKey() resultcache.Key {
	engine := append(make([]byte, 0, 512), "train("...)
	engine = b.dbtConfig("train", 0, false).AppendFingerprint(engine)
	engine = append(engine, ")vs("...)
	engine = b.dbtConfig("ref", 0, false).AppendFingerprint(engine)
	engine = append(engine, ")|offlineregions="...)
	engine = strconv.AppendInt(engine, trainRegionThreshold, 10)
	return b.cacheKey("traincmp",
		b.refImgHash+"+"+b.trainImgHash,
		b.t.TapeID("ref")+"+"+b.t.TapeID("train"),
		string(engine))
}
