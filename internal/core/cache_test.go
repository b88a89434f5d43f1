package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dbt"
	"repro/internal/faultinject"
	"repro/internal/learned"
	"repro/internal/obs"
	"repro/internal/resultcache"
)

// cacheOpts is the option baseline of the caching tests: a couple of
// ladder rungs, a predictor, a sample period, the learned collector and
// an adaptive variant riding the reference trace (so every entry kind
// and every axis field of the ref entry is written), and a Timing
// aggregate to observe guest-block volume.
func cacheOpts(t *testing.T, dir string) (Options, *Timing) {
	t.Helper()
	store, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tm := &Timing{}
	adaptive := TranslatorConfig("ref", 8, true)
	adaptive.Adaptive = true
	return Options{
		Thresholds:    []uint64{4, 16},
		Predictors:    []string{"gshare"},
		SamplePeriods: []uint64{4},
		Learned:       &learned.Config{Model: learned.ModelTree},
		Variants:      []dbt.Config{adaptive},
		Cache:         store,
		CacheContext:  "test",
		Timing:        tm,
	}, tm
}

func runCached(t *testing.T, target Target, opts Options) *BenchmarkResult {
	t.Helper()
	out, err := RunBenchmark(target, opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCacheColdThenWarm(t *testing.T) {
	dir := t.TempDir()
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))

	opts, tm := cacheOpts(t, dir)
	cold := runCached(t, target, opts)
	c := opts.Cache.Counters()
	if c.Hits != 0 || c.Stores == 0 {
		t.Fatalf("cold counters %+v, want 0 hits and some stores", c)
	}
	if tm.BlocksExecuted.Load() == 0 {
		t.Fatal("cold run executed no guest blocks")
	}

	// Warm: a fresh store handle over the same directory must serve the
	// whole benchmark without executing a single guest block, and the
	// result must be deeply equal to the cold one.
	opts2, tm2 := cacheOpts(t, dir)
	warm := runCached(t, target, opts2)
	c2 := opts2.Cache.Counters()
	if c2.Hits == 0 || c2.Misses != 0 || c2.Stores != 0 {
		t.Fatalf("warm counters %+v, want only hits", c2)
	}
	if n := tm2.BlocksExecuted.Load(); n != 0 {
		t.Fatalf("warm run executed %d guest blocks, want 0", n)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm result differs from cold:\ncold %+v\nwarm %+v", cold, warm)
	}
	// Name the snapshots the cache carries, so a codec that loses a
	// field, or turns a nil collection into an empty one, fails on the
	// snapshot it damaged: the ref entry's AVEP and the run entry's
	// training snapshot against the serial oracle's freshly computed ones.
	_, want := serialOracle(t, target, opts)
	got := storedSnapshots(t, dir)
	if !reflect.DeepEqual(got.avep, want.avep) {
		t.Fatalf("stored AVEP snapshot differs from a fresh run:\nfresh %+v\nstored %+v", want.avep, got.avep)
	}
	if !reflect.DeepEqual(got.train, want.train) {
		t.Fatalf("stored training snapshot differs from a fresh run:\nfresh %+v\nstored %+v", want.train, got.train)
	}
}

func TestCacheDoesNotPerturbResults(t *testing.T) {
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	opts, _ := cacheOpts(t, t.TempDir())
	withCache := runCached(t, target, opts)

	plain := opts
	plain.Cache = nil
	plain.Timing = &Timing{}
	uncached := runCached(t, target, plain)
	if !reflect.DeepEqual(withCache, uncached) {
		t.Fatal("cold cached run differs from an uncached run")
	}
}

func TestCachePoisonedEntriesReExecute(t *testing.T) {
	dir := t.TempDir()
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	opts, _ := cacheOpts(t, dir)
	cold := runCached(t, target, opts)

	// Damage every entry a different way: truncation, garbage, a bit
	// flip inside the value. The warm run must silently re-execute and
	// reproduce the cold results, then leave the store healed.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("cold run left no cache entries")
	}
	for i, e := range entries {
		p := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0:
			data = data[:len(data)/3]
		case 1:
			data = []byte("junk")
		case 2:
			data[len(data)/2] ^= 0x20
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	opts2, _ := cacheOpts(t, dir)
	warm := runCached(t, target, opts2)
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("results after cache poisoning differ from cold run")
	}
	c := opts2.Cache.Counters()
	if c.Hits != 0 || c.Errors == 0 || c.Stores == 0 {
		t.Fatalf("poisoned-run counters %+v, want no hits, some errors, rewrites", c)
	}

	// The rewrites must have healed the store: a third run is all hits.
	opts3, tm3 := cacheOpts(t, dir)
	healed := runCached(t, target, opts3)
	if n := tm3.BlocksExecuted.Load(); n != 0 {
		t.Fatalf("healed run executed %d blocks, want 0", n)
	}
	if !reflect.DeepEqual(cold, healed) {
		t.Fatal("healed run differs from cold run")
	}
}

func TestCacheVerifyCleanPass(t *testing.T) {
	dir := t.TempDir()
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	opts, _ := cacheOpts(t, dir)
	cold := runCached(t, target, opts)

	opts2, tm2 := cacheOpts(t, dir)
	opts2.CacheVerify = true
	verified := runCached(t, target, opts2)
	if tm2.BlocksExecuted.Load() == 0 {
		t.Fatal("verify mode must execute for real")
	}
	c := opts2.Cache.Counters()
	if c.Hits == 0 {
		t.Fatalf("verify counters %+v, want hits (entries were present)", c)
	}
	if !reflect.DeepEqual(cold, verified) {
		t.Fatal("verify-mode result differs from cold run")
	}
}

// cacheEntryPath returns the stored entry of the given kind whose key
// also contains every one of fields (the first in directory order when
// several match), failing the test when the store holds none.
func cacheEntryPath(t *testing.T, dir, kind string, fields ...string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fields = append(fields, "|kind="+kind+"|")
next:
	for _, e := range entries {
		p := filepath.Join(dir, e.Name())
		key := readEnvelope(t, p).Key
		for _, f := range fields {
			if !strings.Contains(key, f) {
				continue next
			}
		}
		return p
	}
	t.Fatalf("no %s entry with %q in the store", kind, fields)
	return ""
}

// cacheEnvelope mirrors the store's on-disk entry wrapper.
type cacheEnvelope struct {
	Schema int             `json:"schema"`
	Key    string          `json:"key"`
	Sum    string          `json:"sum"`
	Value  json.RawMessage `json:"value"`
}

func readEnvelope(t *testing.T, path string) cacheEnvelope {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env cacheEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	return env
}

// forgeValue lets edit rewrite the raw value of the entry at path and
// recomputes the checksum, so the store itself accepts the forged entry
// as intact.
func forgeValue(t *testing.T, path string, edit func(value []byte) []byte) {
	t.Helper()
	env := readEnvelope(t, path)
	env.Value = edit(env.Value)
	sum := sha256.Sum256(env.Value)
	env.Sum = hex.EncodeToString(sum[:])
	data, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// forgeEntry decodes the value of the entry at path as a JSON object
// (numbers kept exact), lets edit rewrite it, and stores it forged.
func forgeEntry(t *testing.T, path string, edit func(v map[string]any)) {
	t.Helper()
	forgeValue(t, path, func(value []byte) []byte {
		dec := json.NewDecoder(bytes.NewReader(value))
		dec.UseNumber()
		var v map[string]any
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		edit(v)
		out, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
}

// fields is the forge of a row that edits an entry's JSON fields.
func fields(edit func(v map[string]any)) func(*testing.T, string) {
	return func(t *testing.T, path string) { forgeEntry(t, path, edit) }
}

// forgeSnapshotCount stores the run entry's training snapshot with one
// block's use count raised: the binary codec's bytes, decoded, edited
// and re-encoded.
func forgeSnapshotCount(t *testing.T, path string) {
	t.Helper()
	forgeValue(t, path, func(value []byte) []byte {
		var snap cachedSnapshot
		if err := json.Unmarshal(value, &snap); err != nil || snap.Snapshot == nil || len(snap.Blocks) == 0 {
			t.Fatalf("run entry holds no training snapshot with blocks (%v)", err)
		}
		for _, blk := range snap.Blocks {
			blk.Use++
			break
		}
		out, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
}

// object walks a decoded JSON value to the object at path: string
// steps index objects, int steps index arrays.
func object(v any, path ...any) map[string]any {
	for _, step := range path {
		switch s := step.(type) {
		case string:
			v = v.(map[string]any)[s]
		case int:
			v = v.([]any)[s]
		}
	}
	return v.(map[string]any)
}

// TestCacheVerifyCatchesForgedEntry forges each entry kind, each axis
// field of the ref entry, and each value the ref entry stores for a
// follower, in turn — a perturbed value under a recomputed checksum, so
// the store itself accepts it and every sanity check passes — and
// requires the differential verify mode to catch it. The axis rows are
// named after their axis: bp the predictor tallies, ls the learned
// collection, sp the sampled ladders; the summary rows forge one
// comparison of a ladder rung, a sampled rung and a variant, and the run
// row one count inside the training snapshot.
func TestCacheVerifyCatchesForgedEntry(t *testing.T) {
	for _, tc := range []struct {
		name, kind string
		forge      func(t *testing.T, path string)
	}{
		{"ref", "ref", fields(func(v map[string]any) { v["avep_cycles"] = 1.5 })},
		{"run", "run", forgeSnapshotCount},
		{"runs summary", "ref", fields(func(v map[string]any) { object(v, "runs", 0, "summary")["SdBP"] = 0.123456789 })},
		{"runs profiling ops", "ref", fields(func(v map[string]any) { object(v, "runs", 0)["profiling_ops"] = 123456789 })},
		{"runs stats", "ref", fields(func(v map[string]any) { object(v, "runs", 0, "stats")["BlocksExecuted"] = 123456789 })},
		{"sampling summary", "ref", fields(func(v map[string]any) { object(v, "sampling", 0, 0, "summary")["SdBP"] = 0.123456789 })},
		{"variants summary", "ref", fields(func(v map[string]any) { object(v, "variants", 0, "summary")["SdBP"] = 0.123456789 })},
		{"traincmp", "traincmp", fields(func(v map[string]any) { object(v, "train")["SdBP"] = 0.123456789 })},
		{"bp", "ref", fields(func(v map[string]any) { object(v, "predictors", 0)["mispredicts"] = 123456789 })},
		{"ls", "ref", fields(func(v map[string]any) { object(v, "learned", "sites", 0)["taken"] = 123456789 })},
		{"sp", "ref", fields(func(v map[string]any) { object(v, "sampling", 0, 0)["cycles"] = 1.5 })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
			opts, _ := cacheOpts(t, dir)
			runCached(t, target, opts)
			tc.forge(t, cacheEntryPath(t, dir, tc.kind))

			opts2, _ := cacheOpts(t, dir)
			opts2.CacheVerify = true
			_, err := RunBenchmark(target, opts2)
			if err == nil || !strings.Contains(err.Error(), "cache verify: "+tc.kind+" entry") {
				t.Fatalf("verify over a forged %s entry returned %v, want a cache verify error", tc.kind, err)
			}

			// Without verify the forged-but-checksummed entry is served
			// as-is; that is the documented trust boundary, pinned here so
			// a future change that silently re-checks (and slows) every
			// hit is noticed.
			opts3, _ := cacheOpts(t, dir)
			if _, err := RunBenchmark(target, opts3); err != nil {
				t.Fatalf("non-verify warm run failed: %v", err)
			}
		})
	}
}

// TestCacheInvalidEntriesReExecute: an entry that passes the store's
// checksum but fails its kind's sanity check is a miss. The unit
// re-executes, the result equals the cold run's, and the rewrite heals
// the store so the next run is fully warm.
func TestCacheInvalidEntriesReExecute(t *testing.T) {
	for _, tc := range []struct {
		name, kind string
		forge      func(t *testing.T, path string)
	}{
		{"bp renamed predictor", "ref", fields(func(v map[string]any) {
			object(v, "predictors", 0)["predictor"] = "renamed"
		})},
		{"sp wrong threshold", "ref", fields(func(v map[string]any) { object(v, "sampling", 0, 0)["t"] = 5 })},
		{"sp missing ladder", "ref", fields(func(v map[string]any) { v["sampling"] = []any{} })},
		{"variant wrong threshold", "ref", fields(func(v map[string]any) { object(v, "variants", 0)["t"] = 5 })},
		{"ls wrong bench", "ref", fields(func(v map[string]any) { object(v, "learned")["bench"] = "other" })},
		{"ls short feature vector", "ref", fields(func(v map[string]any) {
			site := object(v, "learned", "sites", 0)
			x := site["x"].([]any)
			site["x"] = x[:len(x)-1]
		})},
		{"ref without AVEP", "ref", fields(func(v map[string]any) { v["avep"] = nil })},
		{"run with null snapshot", "run", func(t *testing.T, path string) {
			forgeValue(t, path, func([]byte) []byte { return []byte("null") })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
			opts, _ := cacheOpts(t, dir)
			cold := runCached(t, target, opts)
			path := cacheEntryPath(t, dir, tc.kind)
			tc.forge(t, path)

			opts2, tm2 := cacheOpts(t, dir)
			var trace bytes.Buffer
			opts2.Trace = obs.NewRecorder(&trace)
			got := runCached(t, target, opts2)
			if _, err := opts2.Trace.Close(); err != nil {
				t.Fatal(err)
			}
			if tm2.BlocksExecuted.Load() == 0 {
				t.Fatalf("invalid %s entry was served instead of re-executing", tc.kind)
			}
			// The trace records the validated outcome: the store found a
			// checksummed entry, but the lookup is a miss naming the
			// rejection, and every other store hit is a traced hit.
			events, err := obs.ReadEvents(&trace)
			if err != nil {
				t.Fatal(err)
			}
			hash := strings.TrimSuffix(filepath.Base(path), ".json")
			var hits, rejected uint64
			for _, ev := range events {
				switch {
				case ev.Unit == obs.UnitCacheHit:
					hits++
				case ev.Unit == obs.UnitCacheMiss && ev.Err != "":
					rejected++
					if !strings.Contains(ev.Err, tc.kind+" cache entry") || !strings.Contains(ev.Err, hash) {
						t.Fatalf("rejection traced as %q, want it to name the %s entry %s", ev.Err, tc.kind, hash)
					}
				}
			}
			if c := opts2.Cache.Counters(); rejected != 1 || hits != c.Hits-1 {
				t.Fatalf("trace has %d hits and %d rejected misses over %d store hits, want %d and 1",
					hits, rejected, c.Hits, c.Hits-1)
			}
			if c := opts2.Cache.Counters(); c.Stores == 0 {
				t.Fatalf("counters %+v, want the invalid entry rewritten", c)
			}
			if !reflect.DeepEqual(cold, got) {
				t.Fatal("result after an invalid entry differs from the cold run")
			}

			opts3, tm3 := cacheOpts(t, dir)
			healed := runCached(t, target, opts3)
			if n := tm3.BlocksExecuted.Load(); n != 0 {
				t.Fatalf("healed run executed %d blocks, want 0", n)
			}
			if !reflect.DeepEqual(cold, healed) {
				t.Fatal("healed run differs from the cold run")
			}
		})
	}
}

func TestCacheSkippedUnderFaultPlan(t *testing.T) {
	plan, err := faultinject.Parse("slow:other/ref:1ms")
	if err != nil {
		t.Fatal(err)
	}
	opts, _ := cacheOpts(t, t.TempDir())
	opts.Faults = plan
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	runCached(t, target, opts)
	if c := opts.Cache.Counters(); c != (resultcache.Counters{}) {
		t.Fatalf("cache touched under an armed fault plan: %+v", c)
	}
}

func TestCacheSkippedWithoutTapeID(t *testing.T) {
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	target.TapeID = nil
	opts, _ := cacheOpts(t, t.TempDir())
	runCached(t, target, opts)
	if c := opts.Cache.Counters(); c != (resultcache.Counters{}) {
		t.Fatalf("cache touched without a tape identity: %+v", c)
	}
}

// TestSettleFailureRetiresRefOnce: a cache settle that fails inside the
// reference unit must fail the unit before it publishes, so a failed
// reference unit publishes no comparison, no comparison runs twice, and
// the benchmark reports exactly once with no unit left live. The forged
// field is the second sample period's ladder, which the verify-mode
// settle of the one ref entry catches.
func TestSettleFailureRetiresRefOnce(t *testing.T) {
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	baseline := func(t *testing.T, dir string) Options {
		opts, _ := cacheOpts(t, dir)
		// Rungs distinct from the periods and the variant's threshold, so
		// a compare span at a rung's threshold is that rung's comparison.
		opts.Thresholds = []uint64{50, 100}
		opts.SamplePeriods = []uint64{4, 16}
		return opts
	}
	t.Run("verify", func(t *testing.T) {
		dir := t.TempDir()
		runCached(t, target, baseline(t, dir))
		forgeEntry(t, cacheEntryPath(t, dir, "ref"), func(v map[string]any) { object(v, "sampling", 1, 0)["cycles"] = 1.5 })

		opts := baseline(t, dir)
		opts.CacheVerify = true
		var trace bytes.Buffer
		opts.Trace = obs.NewRecorder(&trace)
		s := NewSchedulerPolicy(2, Degrade)
		var doneCalls atomic.Int64
		b := scheduleBenchmark(s, target, opts, func(*BenchmarkResult) { doneCalls.Add(1) })
		if err := s.Wait(); err != nil {
			t.Fatalf("Degrade run failed outright: %v", err)
		}
		if _, err := opts.Trace.Close(); err != nil {
			t.Fatal(err)
		}

		b.mu.Lock()
		live := b.live
		b.mu.Unlock()
		if live != 0 {
			t.Fatalf("live = %d after Wait, want 0", live)
		}
		if n := doneCalls.Load(); n != 1 {
			t.Fatalf("onDone fired %d times, want once", n)
		}
		if f := b.out.Failures; len(f) != 1 || f[0].Unit != obs.UnitRef ||
			!strings.Contains(f[0].Err, "cache verify: ref entry") {
			t.Fatalf("Failures = %+v, want one ref-unit ref verify failure", f)
		}
		events, err := obs.ReadEvents(&trace)
		if err != nil {
			t.Fatal(err)
		}
		compares := make(map[uint64]int)
		for _, ev := range events {
			if ev.Unit == obs.UnitCompare {
				compares[ev.T]++
			}
		}
		for _, rung := range opts.Thresholds {
			if compares[rung] != 1 {
				t.Fatalf("comparison of T=%d ran %d times, want once", rung, compares[rung])
			}
		}
		for i, tr := range b.out.PerT {
			if !reflect.DeepEqual(tr, (ThresholdResult{})) {
				t.Fatalf("failed reference unit published PerT[%d]: %+v", i, tr)
			}
		}
		for i, pr := range b.out.Sampling {
			if !reflect.DeepEqual(pr, (SamplePeriodResult{})) {
				t.Fatalf("failed reference unit published Sampling[%d]: %+v", i, pr)
			}
		}
		for i, tr := range b.out.Variants {
			if !reflect.DeepEqual(tr, (ThresholdResult{})) {
				t.Fatalf("failed reference unit published Variants[%d]: %+v", i, tr)
			}
		}
	})
}
