package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/resultcache"
)

// cacheOpts is the option baseline of the caching tests: a couple of
// ladder rungs, the perf model on (so cached Cycles are exercised) and
// a Timing aggregate to observe guest-block volume.
func cacheOpts(t *testing.T, dir string) (Options, *Timing) {
	t.Helper()
	store, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tm := &Timing{}
	return Options{
		Thresholds:   []uint64{4, 16},
		Perf:         true,
		Cache:        store,
		CacheContext: "test",
		Timing:       tm,
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

func TestCacheVerifyCatchesForgedEntry(t *testing.T) {
	dir := t.TempDir()
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	opts, _ := cacheOpts(t, dir)
	runCached(t, target, opts)

	// Forge a comparison entry: decode its envelope, perturb the cached
	// summary, recompute the checksum so the store itself accepts it.
	// Only the differential verify mode can catch this.
	forged := false
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		p := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Schema int             `json:"schema"`
			Key    string          `json:"key"`
			Sum    string          `json:"sum"`
			Value  json.RawMessage `json:"value"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(env.Key, "kind=cmp") {
			continue
		}
		var val struct {
			Summary map[string]any `json:"summary"`
		}
		if err := json.Unmarshal(env.Value, &val); err != nil {
			t.Fatal(err)
		}
		val.Summary["SdBP"] = 0.123456789
		if env.Value, err = json.Marshal(val); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(env.Value)
		env.Sum = hex.EncodeToString(sum[:])
		if data, err = json.Marshal(env); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		forged = true
		break
	}
	if !forged {
		t.Fatal("no cmp entry found to forge")
	}

	opts2, _ := cacheOpts(t, dir)
	opts2.CacheVerify = true
	_, err = RunBenchmark(target, opts2)
	if err == nil || !strings.Contains(err.Error(), "cache verify") {
		t.Fatalf("verify over a forged entry returned %v, want a cache verify error", err)
	}

	// Without verify the forged-but-checksummed entry is served as-is;
	// that is the documented trust boundary, pinned here so a future
	// change that silently re-checks (and slows) every hit is noticed.
	opts3, _ := cacheOpts(t, dir)
	if _, err := RunBenchmark(target, opts3); err != nil {
		t.Fatalf("non-verify warm run failed: %v", err)
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
