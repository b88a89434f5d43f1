package core

import (
	"encoding/base64"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/learned"
	"repro/internal/profile"
)

// countDecodes counts stored-snapshot decodes until the test ends.
func countDecodes(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	onSnapshotDecode = func() { n.Add(1) }
	t.Cleanup(func() { onSnapshotDecode = nil })
	return &n
}

// TestWarmRunDecodesNoSnapshot: a fully warm benchmark reads its
// training comparison from the traincmp entry, so neither stored
// snapshot (the ref entry's AVEP, the run entry's training snapshot) is
// decoded; TrainOps comes from the training snapshot's header.
func TestWarmRunDecodesNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	opts, _ := cacheOpts(t, dir)
	cold := runCached(t, target, opts)

	decodes := countDecodes(t)
	opts2, tm2 := cacheOpts(t, dir)
	warm := runCached(t, target, opts2)
	if n := tm2.BlocksExecuted.Load(); n != 0 {
		t.Fatalf("warm run executed %d guest blocks, want 0", n)
	}
	if n := decodes.Load(); n != 0 {
		t.Fatalf("fully warm run decoded %d snapshots, want 0", n)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm result differs from the cold run")
	}
}

// TestTrainCompareMissDecodesStoredSnapshots: with its traincmp entry
// deleted, a warm benchmark recomputes the training comparison from the
// two stored snapshots, decoded at that first use, and reproduces the
// cold result without executing a guest block.
func TestTrainCompareMissDecodesStoredSnapshots(t *testing.T) {
	dir := t.TempDir()
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	opts, _ := cacheOpts(t, dir)
	cold := runCached(t, target, opts)
	if err := os.Remove(cacheEntryPath(t, dir, "traincmp")); err != nil {
		t.Fatal(err)
	}

	decodes := countDecodes(t)
	opts2, tm2 := cacheOpts(t, dir)
	got := runCached(t, target, opts2)
	if n := tm2.BlocksExecuted.Load(); n != 0 {
		t.Fatalf("run executed %d guest blocks, want 0", n)
	}
	if n := decodes.Load(); n != 2 {
		t.Fatalf("training comparison decoded %d snapshots, want 2 (AVEP and training)", n)
	}
	if !reflect.DeepEqual(cold, got) {
		t.Fatalf("result through the stored snapshots differs from the cold run:\ncold %+v\ngot  %+v", cold, got)
	}
}

// truncateAVEP forges the ref entry's AVEP as a valid base64 string of a
// truncated binary encoding, under a recomputed checksum.
func truncateAVEP(t *testing.T, path string) {
	t.Helper()
	forgeEntry(t, path, func(v map[string]any) {
		raw, err := base64.StdEncoding.DecodeString(v["avep"].(string))
		if err != nil {
			t.Fatal(err)
		}
		v["avep"] = base64.StdEncoding.EncodeToString(raw[:len(raw)/2])
	})
}

// TestUndecodableAVEPFailsOnlyWhenRead: a checksummed AVEP that does not
// decode lies inside the store's trust boundary. It is served while the
// traincmp entry answers the training comparison; once that entry is
// gone, the comparison reads the AVEP and fails the benchmark with an
// error naming the benchmark and the entry kind.
func TestUndecodableAVEPFailsOnlyWhenRead(t *testing.T) {
	dir := t.TempDir()
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	opts, _ := cacheOpts(t, dir)
	cold := runCached(t, target, opts)
	truncateAVEP(t, cacheEntryPath(t, dir, "ref"))

	opts2, tm2 := cacheOpts(t, dir)
	if got := runCached(t, target, opts2); !reflect.DeepEqual(cold, got) {
		t.Fatal("warm result over an unread truncated AVEP differs from the cold run")
	}
	if n := tm2.BlocksExecuted.Load(); n != 0 {
		t.Fatalf("warm run executed %d guest blocks, want 0", n)
	}

	if err := os.Remove(cacheEntryPath(t, dir, "traincmp")); err != nil {
		t.Fatal(err)
	}
	opts3, _ := cacheOpts(t, dir)
	_, err := RunBenchmark(target, opts3)
	if err == nil || !strings.Contains(err.Error(), "ref cache entry of stationary holds a snapshot that does not decode") {
		t.Fatalf("training comparison over a truncated AVEP returned %v, want an error naming the ref entry of stationary", err)
	}
}

// TestProfilingOpsReadsHeaderOnly: an undecoded snapshot yields its
// ProfilingOps from the header, also when the header's strings outgrow
// the first decoded prefix, and a truncated header is an error.
func TestProfilingOpsReadsHeaderOnly(t *testing.T) {
	decodes := countDecodes(t)
	for _, name := range []string{"p", strings.Repeat("p", 300)} {
		snap := &profile.Snapshot{Program: name, Input: "train", ProfilingOps: 123456789,
			Blocks: map[int]*profile.Block{4: {Addr: 4, End: 9, Use: 7}}}
		data, err := json.Marshal(cachedSnapshot{snap: snap})
		if err != nil {
			t.Fatal(err)
		}
		var stored cachedSnapshot
		if err := json.Unmarshal(data, &stored); err != nil {
			t.Fatal(err)
		}
		if ops, err := stored.profilingOps(); err != nil || ops != snap.ProfilingOps {
			t.Fatalf("program name of %d bytes: profilingOps %d, %v; want %d", len(name), ops, err, snap.ProfilingOps)
		}
		stored.b64 = stored.b64[:len(stored.b64)/8*4]
		if _, err := stored.profilingOps(); len(name) > 1 && err == nil {
			t.Fatal("a truncated header read without error")
		}
	}
	if n := decodes.Load(); n != 0 {
		t.Fatalf("profilingOps decoded %d snapshots, want 0", n)
	}
}

// TestCorpusEntryStoresNoAVEP: a learned-corpus collection stores its
// ref entry without the AVEP snapshot nothing it returns reads, and a
// warm collection serves that entry without executing a guest block.
func TestCorpusEntryStoresNoAVEP(t *testing.T) {
	dir := t.TempDir()
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	opts, _ := cacheOpts(t, dir)
	lcfg := learned.Config{Model: learned.ModelTree}
	cold, err := CollectLearnedData(target, lcfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	var ent map[string]json.RawMessage
	storedValue(t, cacheEntryPath(t, dir, "ref"), &ent)
	if string(ent["avep"]) != "null" {
		t.Fatalf("corpus entry stores an AVEP of %d bytes, want null", len(ent["avep"]))
	}

	opts2, tm2 := cacheOpts(t, dir)
	warm, err := CollectLearnedData(target, lcfg, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if n := tm2.BlocksExecuted.Load(); n != 0 {
		t.Fatalf("warm collection executed %d guest blocks, want 0", n)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm collection differs from the cold one")
	}
}
