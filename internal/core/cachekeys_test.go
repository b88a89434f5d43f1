package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/learned"
	"repro/internal/resultcache"
	"repro/internal/spec"
)

var updateKeys = flag.Bool("update", false, "rewrite the golden cache-key corpus")

// goldenKey is one result-cache key of the pinned run: its kind, its
// threshold component and its content address.
type goldenKey struct {
	Kind string `json:"kind"`
	T    uint64 `json:"t"`
	Hash string `json:"hash"`
}

// TestGoldenCacheKeys pins every result-cache key a cold scheduled
// benchmark looks up: one spec benchmark over a ladder that collapses
// at this scale, with dynamic predictors, two sample periods and the
// learned collector riding the reference trace. A cold run misses every
// lookup and stores each miss once, so the stored entries are exactly
// the keys looked up. Any change to a key's kind, threshold, engine
// fingerprint, tape identity, image hash or context moves a hash here
// and orphans every cache filled before it — regenerate with
// `go test ./internal/core -run GoldenCacheKeys -update` only for a
// deliberate key change.
func TestGoldenCacheKeys(t *testing.T) {
	const scale = 0.01
	dir := t.TempDir()
	store, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{
		Thresholds:    []uint64{1, 1, 2, 5, 10, 20, 50, 100, 200, 400},
		Perf:          true,
		Predictors:    []string{"2bit", "gshare"},
		SamplePeriods: []uint64{4, 16},
		Learned:       &learned.Config{Model: learned.ModelTree},
		Cache:         store,
		CacheContext:  "scale=" + strconv.FormatFloat(scale, 'g', -1, 64),
	}
	s := core.NewScheduler(1)
	core.ScheduleBenchmark(s, spec.ByName("gzip").Target(scale), opts, func(*core.BenchmarkResult) {})
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}

	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	c := store.Counters()
	if c.Hits != 0 || c.Misses != c.Stores || int(c.Stores) != len(entries) {
		t.Fatalf("cold run counters %+v over %d entries, want every lookup a miss stored once", c, len(entries))
	}
	keys := make([]goldenKey, 0, len(entries))
	for _, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		keys = append(keys, parseGoldenKey(t, env.Key, strings.TrimSuffix(filepath.Base(path), ".json")))
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Kind != keys[j].Kind {
			return keys[i].Kind < keys[j].Kind
		}
		if keys[i].T != keys[j].T {
			return keys[i].T < keys[j].T
		}
		return keys[i].Hash < keys[j].Hash
	})
	got, err := json.MarshalIndent(keys, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "golden_cachekeys.json")
	if *updateKeys {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cache keys differ from %s:\ngot\n%s\nwant\n%s", golden, got, want)
	}
}

// parseGoldenKey reads kind and threshold back out of a stored key
// fingerprint and checks that the entry's file name is its hash.
func parseGoldenKey(t *testing.T, fingerprint, file string) goldenKey {
	t.Helper()
	if sum := sha256.Sum256([]byte(fingerprint)); hex.EncodeToString(sum[:]) != file {
		t.Fatalf("entry %s does not hold the key it is named for", file)
	}
	k := goldenKey{Hash: file}
	for _, field := range strings.Split(fingerprint, "|") {
		name, val, _ := strings.Cut(field, "=")
		switch name {
		case "kind":
			k.Kind = val
		case "t":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				t.Fatalf("key %q: bad threshold: %v", fingerprint, err)
			}
			k.T = n
			return k // the engine component follows and may contain '|'
		}
	}
	t.Fatalf("key %q has no threshold component", fingerprint)
	return k
}
