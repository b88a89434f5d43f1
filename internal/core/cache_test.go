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

	"repro/internal/faultinject"
	"repro/internal/learned"
	"repro/internal/obs"
	"repro/internal/resultcache"
)

// cacheOpts is the option baseline of the caching tests: a couple of
// ladder rungs, the perf model on (so cached Cycles are exercised), a
// predictor, a sample period and the learned collector riding the
// reference trace (so every entry kind is written), the INIP(T)
// snapshots kept in the result (so comparisons of cold and warm results
// cover every snapshot the cache carries), and a Timing aggregate to
// observe guest-block volume.
func cacheOpts(t *testing.T, dir string) (Options, *Timing) {
	t.Helper()
	store, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tm := &Timing{}
	return Options{
		Thresholds:    []uint64{4, 16},
		Perf:          true,
		Predictors:    []string{"gshare"},
		SamplePeriods: []uint64{4},
		Learned:       &learned.Config{Model: learned.ModelTree},
		Cache:         store,
		CacheContext:  "test",
		KeepSnapshots: true,
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
	// Name the snapshots the whole-result comparison covers, so a cache
	// codec that loses a field, or turns a nil collection into an empty
	// one, fails on the snapshot it damaged.
	if !reflect.DeepEqual(cold.AVEP, warm.AVEP) {
		t.Fatal("warm AVEP snapshot differs from cold")
	}
	regions := 0
	for i := range cold.Results {
		c, w := cold.Results[i].Snapshot, warm.Results[i].Snapshot
		if c == nil || w == nil {
			t.Fatalf("T=%d: KeepSnapshots left no INIP snapshot (cold %v, warm %v)", cold.Results[i].T, c != nil, w != nil)
		}
		if !reflect.DeepEqual(c, w) {
			t.Fatalf("T=%d: warm INIP snapshot differs from cold:\ncold %+v\nwarm %+v", cold.Results[i].T, c, w)
		}
		regions += len(c.Regions)
	}
	if regions == 0 {
		t.Fatal("no INIP snapshot formed a region; the test would not cover them")
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

// forgeEntry decodes the value of the entry at path (numbers kept
// exact), lets edit rewrite it, and recomputes the checksum so the
// store itself accepts the forged entry as intact.
func forgeEntry(t *testing.T, path string, edit func(v map[string]any)) {
	t.Helper()
	env := readEnvelope(t, path)
	dec := json.NewDecoder(bytes.NewReader(env.Value))
	dec.UseNumber()
	var v map[string]any
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	edit(v)
	var err error
	if env.Value, err = json.Marshal(v); err != nil {
		t.Fatal(err)
	}
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

// TestCacheVerifyCatchesForgedEntry forges each entry kind in turn —
// a perturbed value under a recomputed checksum, so the store itself
// accepts it and every sanity check passes — and requires the
// differential verify mode to catch it.
func TestCacheVerifyCatchesForgedEntry(t *testing.T) {
	for _, tc := range []struct {
		kind string
		edit func(v map[string]any)
	}{
		{"ref", func(v map[string]any) { v["avep_cycles"] = 1.5 }},
		{"run", func(v map[string]any) { v["cycles"] = 1.5 }},
		{"cmp", func(v map[string]any) { object(v, "summary")["SdBP"] = 0.123456789 }},
		{"traincmp", func(v map[string]any) { object(v, "train")["SdBP"] = 0.123456789 }},
		{"bp", func(v map[string]any) { object(v, "results", 0)["mispredicts"] = 123456789 }},
		{"ls", func(v map[string]any) { object(v, "data", "sites", 0)["taken"] = 123456789 }},
		{"sp", func(v map[string]any) { object(v, "runs", 0)["cycles"] = 1.5 }},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			dir := t.TempDir()
			target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
			opts, _ := cacheOpts(t, dir)
			runCached(t, target, opts)
			forgeEntry(t, cacheEntryPath(t, dir, tc.kind), tc.edit)

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
		edit       func(v map[string]any)
	}{
		{"bp renamed predictor", "bp", func(v map[string]any) {
			object(v, "results", 0)["predictor"] = "renamed"
		}},
		{"sp wrong period", "sp", func(v map[string]any) { v["period"] = 5 }},
		{"ls short feature vector", "ls", func(v map[string]any) {
			site := object(v, "data", "sites", 0)
			x := site["x"].([]any)
			site["x"] = x[:len(x)-1]
		}},
		{"ref without AVEP", "ref", func(v map[string]any) { v["avep"] = nil }},
		{"run with null snapshot", "run", func(v map[string]any) { v["snapshot"] = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
			opts, _ := cacheOpts(t, dir)
			cold := runCached(t, target, opts)
			path := cacheEntryPath(t, dir, tc.kind)
			forgeEntry(t, path, tc.edit)

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
// reference unit must fail the unit before it spawns any dependent.
// Otherwise the absorbed failure's cancel retires the items of
// comparisons that were already spawned a second time (remaining goes
// negative and onDone can fire before they have written), and a retry
// spawns them again. The forged entry is the second sample period's,
// so the first period has settled cleanly by the time it fails.
func TestSettleFailureRetiresRefOnce(t *testing.T) {
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	baseline := func(t *testing.T, dir string) Options {
		opts, _ := cacheOpts(t, dir)
		// Rungs distinct from the periods, so a cache lookup at a rung's
		// threshold is that rung's comparison unit and nothing else.
		opts.Thresholds = []uint64{50, 100}
		opts.SamplePeriods = []uint64{4, 16}
		return opts
	}
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, dir string, opts *Options)
	}{
		{"verify", func(t *testing.T, dir string, opts *Options) { opts.CacheVerify = true }},
		{"partially warm", func(t *testing.T, dir string, opts *Options) {
			if err := os.Remove(cacheEntryPath(t, dir, "bp")); err != nil {
				t.Fatal(err)
			}
		}},
		{"retried", func(t *testing.T, dir string, opts *Options) {
			opts.CacheVerify = true
			opts.MaxAttempts = 2
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			runCached(t, target, baseline(t, dir))
			forgeEntry(t, cacheEntryPath(t, dir, "sp", "|t=16|"), func(v map[string]any) { object(v, "runs", 0)["cycles"] = 1.5 })

			opts := baseline(t, dir)
			tc.setup(t, dir, &opts)
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
			remaining := b.remaining
			b.mu.Unlock()
			if remaining != 0 {
				t.Fatalf("remaining = %d after Wait, want 0", remaining)
			}
			if n := doneCalls.Load(); n != 1 {
				t.Fatalf("onDone fired %d times, want once", n)
			}
			if f := b.out.Failures; len(f) != 1 || f[0].Unit != obs.UnitRef ||
				!strings.Contains(f[0].Err, "cache verify: sp entry") {
				t.Fatalf("Failures = %+v, want one ref-unit sp verify failure", f)
			}
			events, err := obs.ReadEvents(&trace)
			if err != nil {
				t.Fatal(err)
			}
			spawns := make(map[uint64]int)
			for _, ev := range events {
				if ev.Unit == obs.UnitCacheHit || ev.Unit == obs.UnitCacheMiss {
					spawns[ev.T]++
				}
			}
			for _, rung := range opts.Thresholds {
				if spawns[rung] > 1 {
					t.Fatalf("comparison unit of T=%d spawned %d times, want at most once", rung, spawns[rung])
				}
			}
			for i, tr := range b.out.Results {
				if !reflect.DeepEqual(tr, (ThresholdResult{})) {
					t.Fatalf("failed reference unit published Results[%d]: %+v", i, tr)
				}
			}
		})
	}
}
