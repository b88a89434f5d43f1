package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type payload struct {
	Name  string    `json:"name"`
	N     uint64    `json:"n"`
	Xs    []float64 `json:"xs"`
	Inner map[string]int
}

func testKey() Key {
	return Key{
		Kind: "run", Bench: "gzip", Context: "scale=0.001",
		Image: "deadbeef", Tape: "uniform:gzip/ref",
		Engine: "input=ref;threshold=5",
	}
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	want := payload{Name: "x", N: 42, Xs: []float64{1.5, 0.1 + 0.2}, Inner: map[string]int{"a": 1}}
	var miss payload
	if s.Lookup(k, &miss) {
		t.Fatal("lookup hit on empty store")
	}
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	var got payload
	if !s.Lookup(k, &got) {
		t.Fatal("lookup missed after put")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	c := s.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.Stores != 1 || c.Errors != 0 {
		t.Fatalf("counters %+v, want 1 hit, 1 miss, 1 store, 0 errors", c)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1 entry", n, err)
	}
}

// TestUnwritableDirDemotesToReadOnly: when the cache directory stops
// accepting writes, exactly the first failed store surfaces an error;
// every later store — the per-lookup heals of corrupt entries included
// — is a silent counted no-op, and reads keep working. The regression
// scenario is a read-only -cache directory, simulated here by sweeping
// the directory away (root ignores permission bits, so a chmod-based
// simulation would silently pass under CI-as-root).
func TestUnwritableDirDemotesToReadOnly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(), payload{Name: "x"}); err == nil {
		t.Fatal("first write to an unwritable dir returned nil")
	}
	if !s.ReadOnly() {
		t.Fatal("store did not demote itself to read-only")
	}
	// Later writes (heal attempts) must be demoted, not surfaced.
	k2 := testKey()
	k2.Engine = "input=ref;threshold=7"
	for i := 0; i < 3; i++ {
		if err := s.Put(k2, payload{Name: "heal"}); err != nil {
			t.Fatalf("demoted write %d surfaced: %v", i, err)
		}
	}
	var v payload
	if s.Lookup(testKey(), &v) {
		t.Fatal("lookup hit in a swept-away store")
	}
	c := s.Counters()
	if c.HealFailures != 4 {
		t.Fatalf("HealFailures = %d, want 4", c.HealFailures)
	}
	if c.Errors != 1 {
		t.Fatalf("Errors = %d, want exactly the surfaced first failure", c.Errors)
	}
	if c.Stores != 0 {
		t.Fatalf("Stores = %d on an unwritable dir", c.Stores)
	}
}

// TestReadOnlyDirPermissions is the literal read-only-directory flavour
// of the demotion test. Permission bits do not bind root, so it skips
// where the sweep-based test above still covers the code path.
func TestReadOnlyDirPermissions(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A pre-populated entry stays readable after the dir goes read-only.
	k := testKey()
	if err := s.Put(k, payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	var got payload
	if !s.Lookup(k, &got) || got.Name != "x" {
		t.Fatal("read-only dir broke lookups")
	}
	k2 := testKey()
	k2.Engine = "input=ref;threshold=9"
	if err := s.Put(k2, payload{Name: "y"}); err == nil {
		t.Fatal("first write to a read-only dir returned nil")
	}
	if err := s.Put(k2, payload{Name: "y"}); err != nil {
		t.Fatalf("second write not demoted: %v", err)
	}
	if c := s.Counters(); c.HealFailures != 2 || !s.ReadOnly() {
		t.Fatalf("counters %+v, ReadOnly=%v; want 2 heal failures on a read-only store", c, s.ReadOnly())
	}
}

// TestOpenSweepsStaleTemps: a temp file orphaned by a crash mid-store
// is removed when the store is reopened.
func TestOpenSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".abc123.json.tmp456")
	if err := os.WriteFile(stale, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived Open: %v", err)
	}
}

func TestKeyComponentsSeparateEntries(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := testKey()
	if err := s.Put(base, payload{Name: "base"}); err != nil {
		t.Fatal(err)
	}
	variants := []Key{}
	for _, mut := range []func(*Key){
		func(k *Key) { k.Kind = "traincmp" },
		func(k *Key) { k.Bench = "mcf" },
		func(k *Key) { k.Context = "scale=1" },
		func(k *Key) { k.Image = "cafebabe" },
		func(k *Key) { k.Tape = "uniform:gzip/train" },
		func(k *Key) { k.Engine = "input=ref;threshold=7" },
	} {
		k := base
		mut(&k)
		variants = append(variants, k)
	}
	for i, k := range variants {
		var v payload
		if s.Lookup(k, &v) {
			t.Errorf("variant %d (%s) aliased the base entry", i, k.Fingerprint())
		}
		if k.Hash() == base.Hash() {
			t.Errorf("variant %d has the base hash", i)
		}
	}
}

func TestNilStoreSafe(t *testing.T) {
	var s *Store
	var v payload
	if s.Lookup(testKey(), &v) {
		t.Fatal("nil store hit")
	}
	if err := s.Put(testKey(), payload{}); err != nil {
		t.Fatal(err)
	}
	if c := s.Counters(); c != (Counters{}) {
		t.Fatalf("nil store counters %+v", c)
	}
	if s.Dir() != "" {
		t.Fatal("nil store has a dir")
	}
}

func TestIncompleteKeyRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Key{Kind: "run"}, payload{}); err == nil {
		t.Fatal("put accepted a key without an image hash")
	}
	var v payload
	if s.Lookup(Key{Image: "x"}, &v) {
		t.Fatal("lookup hit on a kindless key")
	}
}

// entryPath locates the single entry file of a one-entry store.
func entryPath(t *testing.T, s *Store, k Key) string {
	t.Helper()
	p := filepath.Join(s.Dir(), k.Hash()+".json")
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("entry file: %v", err)
	}
	return p
}

// corruptions are the damaged shapes of a valid entry file (written
// for testKey) that must each read as a counted miss, never a panic and
// never wrong data. FuzzStoreLookup starts from them too.
var corruptions = []struct {
	name string
	mut  func(data []byte) []byte
}{
	{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
	{"empty", func(d []byte) []byte { return nil }},
	{"garbage", func(d []byte) []byte { return []byte("not json at all") }},
	{"bitflip", func(d []byte) []byte {
		out := append([]byte(nil), d...)
		// Flip a bit inside the value region: the envelope still
		// parses, only the checksum can catch it.
		i := strings.Index(string(out), `"value"`) + len(`"value"`) + 10
		out[i] ^= 0x01
		return out
	}},
	{"wrong-version", func(d []byte) []byte {
		cur := fmt.Sprintf(`{"schema":%d,`, SchemaVersion)
		return []byte(strings.Replace(string(d), cur, `{"schema":999,`, 1))
	}},
	{"wrong-key", func(d []byte) []byte {
		return []byte(strings.Replace(string(d), "bench=gzip", "bench=mcf", 1))
	}},
	// Valid JSON holding the right key, sum and value, but not in the
	// layout Put writes: the reader does not parse JSON envelopes.
	{"reordered", func(d []byte) []byte {
		var env map[string]json.RawMessage
		if err := json.Unmarshal(d, &env); err != nil {
			panic(err)
		}
		return []byte(fmt.Sprintf(`{"value":%s,"sum":%s,"key":%s,"schema":%s}`,
			env["value"], env["sum"], env["key"], env["schema"]))
	}},
	{"indented", func(d []byte) []byte {
		var out bytes.Buffer
		if err := json.Indent(&out, d, "", "  "); err != nil {
			panic(err)
		}
		return out.Bytes()
	}},
	{"key-escaped-differently", func(d []byte) []byte {
		return []byte(strings.Replace(string(d), "bench=gzip", `bench=\u0067zip`, 1))
	}},
	{"trailing-bytes", func(d []byte) []byte { return append(append([]byte(nil), d...), "{}\n"...) }},
}

// TestCorruptEntriesAreMisses: every corruption reads as a miss counted
// in Errors, and a subsequent Put restores the entry.
func TestCorruptEntriesAreMisses(t *testing.T) {
	k := testKey()
	want := payload{Name: "x", N: 7, Xs: []float64{3.25}}

	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(k, want); err != nil {
				t.Fatal(err)
			}
			p := entryPath(t, s, k)
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, tc.mut(data), 0o644); err != nil {
				t.Fatal(err)
			}
			var got payload
			if s.Lookup(k, &got) {
				t.Fatalf("corrupt entry (%s) served as a hit: %+v", tc.name, got)
			}
			c := s.Counters()
			if c.Errors != 1 {
				t.Fatalf("counters %+v, want exactly 1 error", c)
			}
			// Re-execute-and-rewrite: the store must accept a fresh Put
			// over the damaged file and serve it again.
			if err := s.Put(k, want); err != nil {
				t.Fatalf("rewrite over corrupt entry: %v", err)
			}
			var again payload
			if !s.Lookup(k, &again) || !reflect.DeepEqual(again, want) {
				t.Fatalf("entry not restored after rewrite: %+v", again)
			}
		})
	}
}

// A forged entry with a *valid* checksum over wrong data is the one
// corruption the envelope cannot catch — that is exactly what the
// CacheVerify differential mode exists for (tested at the study
// level). Here we only pin down that such an entry does decode, so the
// verify test upstream is meaningful.
func TestForgedEntryWithValidSumDecodes(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	if err := s.Put(k, payload{Name: "right"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, payload{Name: "forged"}); err != nil {
		t.Fatal(err)
	}
	var got payload
	if !s.Lookup(k, &got) || got.Name != "forged" {
		t.Fatalf("got %+v, want the overwritten entry", got)
	}
}

func TestFloat64RoundTripExact(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	// Values with no short decimal representation must survive the
	// JSON round trip bit-exactly — the cross-run DeepEqual contract
	// depends on it.
	want := payload{Xs: []float64{1.0 / 3.0, 0.1, 2.2250738585072014e-308, 1.7976931348623157e308}}
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	var got payload
	if !s.Lookup(k, &got) {
		t.Fatal("miss")
	}
	for i := range want.Xs {
		if got.Xs[i] != want.Xs[i] {
			t.Fatalf("float %d: %x != %x", i, got.Xs[i], want.Xs[i])
		}
	}
}

func TestEnvelopeShapeStable(t *testing.T) {
	// The envelope layout is part of the on-disk contract: Lookup reads
	// exactly this shape, so a change would orphan every existing cache.
	// Pin it byte for byte.
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	if err := s.Put(k, payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(entryPath(t, s, k))
	if err != nil {
		t.Fatal(err)
	}
	value := `{"name":"x","n":0,"xs":null,"Inner":null}`
	sum := sha256.Sum256([]byte(value))
	want := fmt.Sprintf(`{"schema":%d,"key":%q,"sum":"%s","value":%s}`+"\n",
		SchemaVersion, k.Fingerprint(), hex.EncodeToString(sum[:]), value)
	if string(data) != want {
		t.Fatalf("entry file\n%s\nwant\n%s", data, want)
	}

	// The trailing newline is optional on read.
	if err := os.WriteFile(entryPath(t, s, k), bytes.TrimSuffix(data, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	var got payload
	if !s.Lookup(k, &got) || got.Name != "x" {
		t.Fatal("entry without its trailing newline missed")
	}
}

// escapeKey is testKey with a context that JSON must escape: quotes, a
// backslash, HTML-sensitive characters and a control character.
func escapeKey() Key {
	k := testKey()
	k.Context = "scale=\"0.001\" <a&b> \\ \t"
	return k
}

func TestKeyNeedingEscapesRoundTrips(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := escapeKey()
	if err := s.Put(k, payload{Name: "esc"}); err != nil {
		t.Fatal(err)
	}
	var got payload
	if !s.Lookup(k, &got) || got.Name != "esc" {
		t.Fatalf("lookup under a key needing escapes: %+v, counters %+v", got, s.Counters())
	}
}

// FuzzStoreLookup: whatever bytes an entry file holds, Lookup returns
// either a hit whose envelope really is valid for the key (checked here
// with encoding/json as an independent reader) and whose value is the
// one stored, or a miss counted in Errors — never a panic. The key needs
// JSON escaping, so the valid seed exercises the escaped key match; the
// other seeds are the corruption matrix applied to it.
func FuzzStoreLookup(f *testing.F) {
	k := escapeKey()
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put(k, payload{Name: "x", N: 7, Xs: []float64{3.25, 0.1}, Inner: map[string]int{"a": 1}}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(s.path(k))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, c := range corruptions {
		f.Add(c.mut(valid))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(s.path(k), data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := s.Counters()
		var got payload
		hit := s.Lookup(k, &got)
		c := s.Counters()
		if !hit {
			if c.Misses != before.Misses+1 || c.Errors != before.Errors+1 {
				t.Fatalf("miss not counted as an error: %+v -> %+v", before, c)
			}
			return
		}
		var env struct {
			Schema int             `json:"schema"`
			Key    string          `json:"key"`
			Sum    string          `json:"sum"`
			Value  json.RawMessage `json:"value"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("hit on an entry that is not JSON: %v", err)
		}
		sum := sha256.Sum256(env.Value)
		if env.Schema != SchemaVersion || env.Key != k.Fingerprint() || env.Sum != hex.EncodeToString(sum[:]) {
			t.Fatalf("hit on an invalid envelope: schema %d key %q sum %s", env.Schema, env.Key, env.Sum)
		}
		var want payload
		if err := json.Unmarshal(env.Value, &want); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("hit served %+v, the stored value is %+v (%v)", got, want, err)
		}
	})
}
