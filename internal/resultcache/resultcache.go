// Package resultcache is an on-disk content-addressed store for the
// study pipeline's expensive unit outputs: the reference step's AVEP
// snapshot with every follower's result, training-run snapshots and
// training comparison summaries.
//
// Entries are keyed by a canonical fingerprint of everything that
// determines a unit's result — the guest image's content hash, the
// input tape's identity, the translator configurations' engine
// fingerprints, the study context (scale) and a cache schema version.
// Whatever is not provably part of that closure (fault-injected runs,
// targets without a declared tape identity) must simply not be cached;
// the store never guesses.
//
// The on-disk format is defensive in both directions:
//
//   - writes go through internal/atomicio, so a crash mid-store leaves
//     either the old entry or the new one, never a torn file;
//   - reads validate an integrity envelope — schema version, the full
//     key fingerprint (not just its hash) and a checksum over the
//     value bytes — so truncated, bit-flipped or stale-schema entries
//     are treated as misses (re-execute, rewrite), never as data.
//
// All methods are safe for concurrent use and safe on a nil *Store
// (caching off), so call sites need no guards.
package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/atomicio"
)

// SchemaVersion is bumped whenever the serialized shape — or the
// meaning — of any cached value changes. A version mismatch is a miss:
// the entry is ignored and rewritten by the re-executed unit, never
// reinterpreted.
//
// v2: RunStats.CacheLookups semantics changed (the indirect-target
// table resolves jr/ret successors without a code-cache probe), so v1
// entries' stats would fail -cacheverify against a fresh run.
//
// v3: the profile snapshots inside ref, run and sp entries are stored
// as base64 strings of their binary encoding (profile.MarshalBinary)
// instead of JSON objects, so a v2 value no longer decodes.
//
// v4: cycle totals are computed from the cycle model's integer class
// sums instead of a running float sum, which moves them in the 12th–13th
// significant digit; a v3 entry would serve the old rounding, so a
// warm study could disagree with a cold one.
//
// v5: every follower of a ref entry carries its comparison with AVEP,
// the cmp kind is gone and keys lose their threshold component; a v4
// ref entry would decode with zero summaries.
//
// v6: a ref entry stores each follower's published result (threshold,
// summary, profiling ops, cycles and, for rungs and variants, engine
// counters) instead of its snapshot, and a run entry is the training
// snapshot alone; a v5 value no longer decodes into either shape.
const SchemaVersion = 6

// Key identifies one cached unit output. Every field participates in
// the canonical fingerprint; the zero value is not a usable key (Lookup
// and Put reject keys without a kind or image hash).
type Key struct {
	// Kind is the unit flavour: "ref" (the shared-trace reference
	// bundle: every follower's run and its comparison with AVEP, and the
	// output of every study axis that rode the trace), "run" (the
	// training run) or "traincmp" (the training comparison pair).
	Kind string
	// Bench is the benchmark name — informational for humans listing
	// the store, but also part of the fingerprint so two benchmarks
	// that happen to share code and tape never alias.
	Bench string
	// Context carries study-level parameters that are not visible in
	// the image or config (the study puts "scale=<v>" here).
	Context string
	// Image is the guest image content hash (guest.Image.ContentHash);
	// for pair entries the two hashes joined with "+".
	Image string
	// Tape is the deterministic input-tape identity (core.Target.TapeID);
	// for pair entries the two identities joined with "+".
	Tape string
	// Engine is the translator configuration fingerprint
	// (dbt.Config.Fingerprint); for multi-run entries the fingerprints
	// joined with "|".
	Engine string
}

// Fingerprint renders the key canonically. The rendering — not the
// caller's memory of what it meant — is what Lookup validates against
// the envelope, so two builds only ever share an entry when they agree
// on every component.
func (k Key) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d|kind=%s|bench=%s|ctx=%s|img=%s|tape=%s|engine=%s",
		SchemaVersion, k.Kind, k.Bench, k.Context, k.Image, k.Tape, k.Engine)
	return b.String()
}

// Hash returns the content address of the key: the hex SHA-256 of its
// fingerprint, which names the entry file.
func (k Key) Hash() string {
	sum := sha256.Sum256([]byte(k.Fingerprint()))
	return hex.EncodeToString(sum[:])
}

func (k Key) valid() bool { return k.Kind != "" && k.Image != "" }

// Counters is a snapshot of the store's accounting.
type Counters struct {
	// Hits counts lookups that returned a validated entry.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that found nothing usable (including the
	// corrupt entries counted separately in Errors).
	Misses uint64 `json:"misses"`
	// Stores counts successful entry writes.
	Stores uint64 `json:"stores"`
	// Errors counts entries rejected on read (truncated, checksum or
	// fingerprint mismatch, stale schema) plus failed writes. Every
	// read-side error is also a miss.
	Errors uint64 `json:"errors"`
	// HealFailures counts store/heal writes that could not land because
	// the cache directory is unwritable (read-only filesystem, removed
	// directory, permissions). The first failure is surfaced as an
	// error and demotes the store to read-only mode; every later write
	// is a counted no-op here rather than a fresh error per lookup.
	HealFailures uint64 `json:"heal_failures"`
}

// Store is an on-disk result cache rooted at one directory.
type Store struct {
	dir string

	hits      atomic.Uint64
	misses    atomic.Uint64
	stores    atomic.Uint64
	errs      atomic.Uint64
	healFails atomic.Uint64
	// readOnly latches after the first failed entry write: an
	// unwritable cache directory (read-only mount, swept-away dir)
	// does not heal itself, so retrying — and erroring — on every
	// subsequent lookup's rewrite would drown the run in noise. Reads
	// keep working; writes become counted no-ops.
	readOnly atomic.Bool
}

// Open returns a store rooted at dir, creating the directory if
// needed. Stale atomic-write temporaries from a previous process
// killed mid-store are swept here — the one moment no write of this
// process can be in flight.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultcache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	// Best-effort: a read-only pre-populated store is still usable.
	atomicio.SweepTemps(dir)
	return &Store{dir: dir}, nil
}

// ReadOnly reports whether the store has demoted itself to read-only
// mode after a failed write. Safe on nil (false).
func (s *Store) ReadOnly() bool {
	return s != nil && s.readOnly.Load()
}

// Dir returns the store's root directory ("" on a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Counters returns a snapshot of the store's accounting. Safe on nil
// (all zero).
func (s *Store) Counters() Counters {
	if s == nil {
		return Counters{}
	}
	return Counters{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Stores:       s.stores.Load(),
		Errors:       s.errs.Load(),
		HealFailures: s.healFails.Load(),
	}
}

// An entry file is one JSON object, always in this exact layout
// (field order, no whitespace) plus a newline:
//
//	{"schema":N,"key":"<fingerprint>","sum":"<64 hex>","value":<value>}
//
// schema is the SchemaVersion the entry was written under; key is the
// full canonical fingerprint, stored verbatim so a hash collision (or a
// mangled file name) can never serve a value for the wrong key; sum is
// the hex SHA-256 over the exact value bytes; value is the cached unit
// output, opaque to the store. Put writes the layout by concatenation
// and Lookup reads it back with one strict split, so the value bytes
// are neither re-compacted on write nor scanned as part of the wrapper
// on read: the only JSON pass over them is the final decode.

// appendEntryHead appends everything an entry for k holds before the
// value's sum: the schema version and the quoted key fingerprint.
func appendEntryHead(dst []byte, k Key) []byte {
	key, _ := json.Marshal(k.Fingerprint()) // a string always encodes
	dst = append(dst, `{"schema":`...)
	dst = strconv.AppendInt(dst, SchemaVersion, 10)
	dst = append(dst, `,"key":`...)
	dst = append(dst, key...)
	return append(dst, `,"sum":"`...)
}

// envValue separates an entry's sum from its value.
const envValue = `","value":`

func (s *Store) path(k Key) string { return filepath.Join(s.dir, k.Hash()+".json") }

// Lookup loads the entry for k into v (a JSON-decodable pointer) and
// reports whether a validated entry was found. Anything wrong with the
// stored entry — unreadable, truncated, checksum or key mismatch,
// stale schema, undecodable value — is a miss (counted in Errors as
// well): the caller re-executes and rewrites. Lookup is safe on a nil
// store (always a miss, not counted).
func (s *Store) Lookup(k Key, v any) bool {
	if s == nil {
		return false
	}
	if !k.valid() {
		s.misses.Add(1)
		return false
	}
	data, err := os.ReadFile(s.path(k))
	if err != nil {
		// A missing entry is the ordinary cold-cache miss; any other
		// read failure is an error worth counting.
		if !os.IsNotExist(err) {
			s.errs.Add(1)
		}
		s.misses.Add(1)
		return false
	}
	if err := decodeEntry(data, k, v); err != nil {
		s.errs.Add(1)
		s.misses.Add(1)
		return false
	}
	s.hits.Add(1)
	return true
}

// decodeEntry splits the envelope, checks it against k and decodes the
// value. Every failure mode collapses to an error — the caller treats
// them all as a miss — and the cheapest guards run first. A file that
// is not in the exact layout Put writes (a trailing newline is
// optional) is malformed, even if it is valid JSON; a stale schema or
// another key's fingerprint fails the same header comparison.
func decodeEntry(data []byte, k Key, v any) error {
	rest, ok := bytes.CutPrefix(data, appendEntryHead(nil, k))
	if !ok || len(rest) < 2*sha256.Size {
		return fmt.Errorf("resultcache: entry %s: header does not match schema %d and the key", k.Hash(), SchemaVersion)
	}
	sumHex := rest[:2*sha256.Size]
	rest, ok = bytes.CutPrefix(rest[2*sha256.Size:], []byte(envValue))
	value, closed := bytes.CutSuffix(bytes.TrimSuffix(rest, []byte("\n")), []byte("}"))
	if !ok || !closed {
		return fmt.Errorf("resultcache: entry %s: malformed envelope", k.Hash())
	}
	sum := sha256.Sum256(value)
	var want [2 * sha256.Size]byte
	hex.Encode(want[:], sum[:])
	if !bytes.Equal(want[:], sumHex) {
		return fmt.Errorf("resultcache: entry %s: value checksum mismatch", k.Hash())
	}
	if err := json.Unmarshal(value, v); err != nil {
		return fmt.Errorf("resultcache: entry %s: value: %w", k.Hash(), err)
	}
	return nil
}

// Put stores v under k, atomically replacing any previous entry. A
// failed write is counted and reported but must not fail the unit that
// produced v — the result is correct either way, only its reuse is
// lost. The first write that fails to land on disk demotes the store
// to read-only mode: it is surfaced (and counted in Errors) exactly
// once, and every later write — including the per-lookup heals of
// corrupt entries — becomes a silent no-op counted in HealFailures.
// Safe on a nil store (no-op).
func (s *Store) Put(k Key, v any) error {
	if s == nil {
		return nil
	}
	if !k.valid() {
		s.errs.Add(1)
		return fmt.Errorf("resultcache: refusing to store under incomplete key %+v", k)
	}
	if s.readOnly.Load() {
		s.healFails.Add(1)
		return nil
	}
	value, err := json.Marshal(v)
	if err != nil {
		s.errs.Add(1)
		return fmt.Errorf("resultcache: encode %s: %w", k.Hash(), err)
	}
	sum := sha256.Sum256(value)
	data := appendEntryHead(make([]byte, 0, len(value)+512), k)
	data = hex.AppendEncode(data, sum[:])
	data = append(data, envValue...)
	data = append(data, value...)
	data = append(data, "}\n"...)
	if err := atomicio.WriteFile(s.path(k), data, 0o644); err != nil {
		s.healFails.Add(1)
		if s.readOnly.CompareAndSwap(false, true) {
			// First failure wins the race to report; latecomers that
			// slipped past the gate above are demoted like the rest.
			s.errs.Add(1)
			return fmt.Errorf("resultcache: store %s (cache now read-only): %w", k.Hash(), err)
		}
		return nil
	}
	s.stores.Add(1)
	return nil
}

// Len reports how many entries the store currently holds on disk
// (directory scan; used by tests and the CLI summary).
func (s *Store) Len() (int, error) {
	if s == nil {
		return 0, nil
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("resultcache: %w", err)
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n, nil
}
