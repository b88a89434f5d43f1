// External test package: the learned package must stay importable from
// internal/core (so tests reach spec through core without a cycle).
package learned_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/dbt"
	"repro/internal/learned"
	"repro/internal/spec"
)

const testScale = 0.001

// collect runs one benchmark's cheap collection pass: extract sites,
// execute the reference input once, tally branches.
func collect(t testing.TB, name string) learned.BenchData {
	t.Helper()
	b := spec.ByName(name)
	if b == nil {
		t.Fatalf("unknown benchmark %q", name)
	}
	img, tape, err := b.Build("ref", testScale)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := learned.ExtractSites(img)
	if err != nil {
		t.Fatal(err)
	}
	col := learned.NewCollector(sites)
	if _, _, err := dbt.RunMultiObserved(img, tape, []dbt.Config{{}}, []dbt.TraceObserver{col}); err != nil {
		t.Fatal(err)
	}
	return col.BenchData(b.Name)
}

func suiteData(t testing.TB) []learned.BenchData {
	t.Helper()
	var data []learned.BenchData
	for _, b := range spec.Suite() {
		data = append(data, collect(t, b.Name))
	}
	return data
}

func TestFingerprintCoversConfig(t *testing.T) {
	base := learned.DefaultConfig().Fingerprint()
	if base == "" {
		t.Fatal("empty fingerprint")
	}
	if (learned.Config{}).Fingerprint() != base {
		t.Fatal("zero config must default to the canonical fingerprint")
	}
	variants := []learned.Config{
		{Model: learned.ModelTree},
		{Epochs: 7},
		{LearnRate: 0.25},
		{L2: 0.5},
		{Model: learned.ModelTree, TreeDepth: 5},
	}
	seen := map[string]bool{base: true}
	for _, v := range variants {
		fp := v.Fingerprint()
		if seen[fp] {
			t.Fatalf("fingerprint collision for %+v: %s", v, fp)
		}
		seen[fp] = true
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (learned.Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate (defaults): %v", err)
	}
	bad := []learned.Config{
		{Model: "forest"},
		{Epochs: -1},
		{LearnRate: -0.5},
		{L2: -1},
		{Model: learned.ModelTree, TreeDepth: 99},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %+v must be rejected", c)
		}
	}
}

func TestExtractSitesDeterministicAndComplete(t *testing.T) {
	b := spec.ByName("vortex")
	img, _, err := b.Build("ref", testScale)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := learned.ExtractSites(img)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := learned.ExtractSites(img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("repeated extraction differs")
	}
	if len(s1) == 0 {
		t.Fatal("no branch sites extracted")
	}
	for i := 1; i < len(s1); i++ {
		if s1[i].PC <= s1[i-1].PC {
			t.Fatalf("sites not PC-ascending at %d", i)
		}
	}
	for _, s := range s1 {
		if len(s.X) != learned.NumFeatures() {
			t.Fatalf("site %d: %d features, want %d", s.PC, len(s.X), learned.NumFeatures())
		}
		if s.X[0] != 1 {
			t.Fatalf("site %d: bias feature = %v", s.PC, s.X[0])
		}
		for j, v := range s.X {
			if v < 0 || v > 1 {
				t.Fatalf("site %d: feature %s = %v outside [0,1]", s.PC, learned.FeatureNames()[j], v)
			}
		}
	}
}

// Every observed branch event must land on an enumerated site: the
// static closure is a superset of dynamic discovery.
func TestCollectorSeesNoUnknownSites(t *testing.T) {
	for _, name := range []string{"gzip", "swim", "perlbmk", "vortex"} {
		data := collect(t, name)
		if data.Unknown != 0 {
			t.Fatalf("%s: %d branch events at unenumerated sites", name, data.Unknown)
		}
		if data.Branches() == 0 {
			t.Fatalf("%s: no branches observed", name)
		}
	}
}

// The dense site index counts an event at an address with no site, or
// outside the index's range, as unknown, and tallies the rest.
func TestCollectorCountsUnknownAddresses(t *testing.T) {
	col := learned.NewCollector([]learned.Site{{PC: 3}, {PC: 10}})
	col.ObserveBranches([]dbt.BranchEvent{
		{PC: 3, Taken: true}, {PC: 10}, {PC: 3}, {PC: 0}, {PC: 5},
		{PC: 11, Taken: true}, {PC: -1}, {PC: 1 << 30},
	})
	got := col.BenchData("toy")
	if got.Unknown != 5 {
		t.Fatalf("unknown = %d, want 5", got.Unknown)
	}
	want := []learned.Site{{PC: 3, Count: 2, Taken: 1}, {PC: 10, Count: 1}}
	if !reflect.DeepEqual(got.Sites, want) {
		t.Fatalf("sites = %+v, want %+v", got.Sites, want)
	}
}

func TestCollectDeterministicAcrossRuns(t *testing.T) {
	d1 := collect(t, "gzip")
	d2 := collect(t, "gzip")
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("repeated collection differs")
	}
	j1, err := json.Marshal(d1)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(d2)
	if string(j1) != string(j2) {
		t.Fatal("serialized collection differs")
	}
}

func TestTrainingIsDeterministic(t *testing.T) {
	data := []learned.BenchData{collect(t, "gzip"), collect(t, "swim"), collect(t, "art")}
	for _, cfg := range []learned.Config{{}, {Model: learned.ModelTree}} {
		r1, err := learned.CrossValidate(cfg, data)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := learned.CrossValidate(cfg, data)
		if err != nil {
			t.Fatal(err)
		}
		j1, _ := json.Marshal(r1)
		j2, _ := json.Marshal(r2)
		if string(j1) != string(j2) {
			t.Fatalf("%s: repeated cross validation differs", cfg.Fingerprint())
		}
	}
}

// The acceptance gate: held-out (leave-one-benchmark-out) learned
// prediction must beat the always-taken baseline over the full
// 26-benchmark suite.
func TestHeldOutBeatsAlwaysTaken(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite collection in -short mode")
	}
	data := suiteData(t)
	for _, cfg := range []learned.Config{{}, {Model: learned.ModelTree}} {
		res, err := learned.CrossValidate(cfg, data)
		if err != nil {
			t.Fatal(err)
		}
		branches, mis, takenMis := res.Totals()
		t.Logf("%s: held-out rate %.4f vs always-taken %.4f over %d branches",
			cfg.Fingerprint(), res.Rate(), res.TakenRate(), branches)
		for _, f := range res.Folds {
			t.Logf("  %-10s learned %.4f taken %.4f (%d branches)", f.Bench, f.Rate(), f.TakenRate(), f.Branches)
		}
		if mis >= takenMis {
			t.Errorf("%s: held-out mispredicts %d not better than always-taken %d",
				cfg.Fingerprint(), mis, takenMis)
		}
	}
}

// BenchmarkCrossValidateTree runs the tree model's leave-one-out cross
// validation over the whole suite's tallies at scale 0.001 (26 folds
// and the full fit). Its allocs/op is a count independent of host
// speed, and ci.sh holds it to a ceiling in BENCH_floor.json:
//
//	go test ./internal/learned -run '^$' -bench CrossValidateTree -benchmem
func BenchmarkCrossValidateTree(b *testing.B) {
	data := suiteData(b)
	cfg := learned.Config{Model: learned.ModelTree}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := learned.CrossValidate(cfg, data); err != nil {
			b.Fatal(err)
		}
	}
}
