package profile

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// avepSnapshot is an unoptimized run's snapshot: blocks only, with
// negative targets and no regions.
func avepSnapshot() *Snapshot {
	s := NewSnapshot("demo", "ref", 0, false)
	s.Blocks[4] = &Block{Addr: 4, End: 9, Use: 1 << 40, Taken: 3, HasBranch: true, TakenTarget: 4, FallTarget: 10}
	s.Blocks[10] = &Block{Addr: 10, End: 10, Use: 7, TakenTarget: -1, FallTarget: -1}
	s.Blocks[300] = &Block{Addr: 300, End: 302, Use: 0, TakenTarget: 4, FallTarget: -1}
	s.ProfilingOps = 99
	s.BlocksExecuted = 1<<40 + 7
	s.Instructions = 5 << 40
	return s
}

// inipSnapshot is an optimized run's snapshot with a loop region, a
// trace region and a continuously collected loop-back probability.
func inipSnapshot() *Snapshot {
	s := sampleSnapshot()
	s.Regions[0].ContinuousLP = 0.9
	s.Regions[0].HasContinuousLP = true
	s.Regions = append(s.Regions, &Region{
		ID:    1,
		Kind:  RegionTrace,
		Entry: 3,
		Blocks: []RegionBlock{
			{ID: 3, Addr: 50, Use: 20, TakenNext: 4, FallNext: -1, TakenTarget: 60, FallTarget: 53},
			{ID: 4, Addr: 60, Use: 20, Taken: 1, HasBranch: true, TakenNext: -1, FallNext: -1, TakenTarget: 10, FallTarget: 62},
		},
	})
	s.Cycles = 123456789
	return s
}

func roundTrip(t testing.TB, s *Snapshot) *Snapshot {
	t.Helper()
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	var got Snapshot
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	return &got
}

func TestSnapshotBinaryRoundTrip(t *testing.T) {
	empty := &Snapshot{Program: "p", Blocks: map[int]*Block{}, Regions: []*Region{}}
	emptyMembers := inipSnapshot()
	emptyMembers.Regions[1].Blocks = []RegionBlock{}
	nilMembers := inipSnapshot()
	nilMembers.Regions[1].Blocks = nil
	for name, s := range map[string]*Snapshot{
		"avep":           avepSnapshot(),
		"inip":           inipSnapshot(),
		"zero":           {},
		"empty":          empty,
		"empty members":  emptyMembers,
		"nil members":    nilMembers,
		"extreme values": extremeSnapshot(),
	} {
		t.Run(name, func(t *testing.T) {
			if got := roundTrip(t, s); !reflect.DeepEqual(got, s) {
				t.Fatalf("round trip changed the snapshot:\ngot  %+v\nwant %+v", got, s)
			}
		})
	}
}

// extremeSnapshot holds the values whose differences overflow int:
// keys at both ends of the range, and fields far from their anchors.
func extremeSnapshot() *Snapshot {
	s := NewSnapshot("x", "y", math.MaxUint64, true)
	s.Blocks[math.MinInt] = &Block{Addr: math.MaxInt, End: math.MinInt, Use: math.MaxUint64, TakenTarget: math.MinInt, FallTarget: math.MaxInt}
	s.Blocks[math.MaxInt] = &Block{Addr: math.MinInt, End: math.MaxInt}
	s.Blocks[0] = &Block{Addr: 1, End: -1}
	s.Regions = []*Region{{ID: math.MinInt, Kind: RegionKind(math.MaxInt), Entry: -1, ContinuousLP: math.Inf(-1)}}
	return s
}

func TestSnapshotBinaryDeterministic(t *testing.T) {
	// Map iteration order varies from run to run; the encoding must not.
	first, err := inipSnapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := inipSnapshot().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatal("two encodings of one snapshot differ")
		}
	}
}

func TestSnapshotBinaryRejects(t *testing.T) {
	good, err := inipSnapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	nanLP := inipSnapshot()
	nanLP.Regions[0].ContinuousLP = math.NaN()
	if _, err := nanLP.MarshalBinary(); err == nil {
		t.Fatal("MarshalBinary encoded a NaN loop-back probability")
	}
	nilBlock := avepSnapshot()
	nilBlock.Blocks[8] = nil
	if _, err := nilBlock.MarshalBinary(); err == nil {
		t.Fatal("MarshalBinary encoded a nil block")
	}

	for name, data := range map[string][]byte{
		"empty":         nil,
		"version":       append([]byte{binaryVersion + 1}, good[1:]...),
		"truncated":     good[:len(good)-1],
		"trailing":      append(append([]byte(nil), good...), 0),
		"huge count":    {binaryVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"bad flag":      {binaryVersion, 0, 0, 0, 2},
		"long string":   {binaryVersion, 5, 'a'},
		"bad varint":    {binaryVersion, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"repeated addr": twoBlocksAt(5, 5),
		"falling addr":  twoBlocksAt(5, 4),
	} {
		var s Snapshot
		if err := s.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: UnmarshalBinary accepted %x as %+v", name, data, s)
		}
	}

	// A rejected input leaves the receiver as it was.
	s := avepSnapshot()
	if err := s.UnmarshalBinary(good[:len(good)/2]); err == nil {
		t.Fatal("UnmarshalBinary accepted half an encoding")
	}
	if !reflect.DeepEqual(s, avepSnapshot()) {
		t.Fatal("failed UnmarshalBinary modified its receiver")
	}
}

// twoBlocksAt encodes an otherwise empty snapshot whose two blocks are
// keyed a and then b, all their fields zero relative to the key.
func twoBlocksAt(a, b int) []byte {
	data := []byte{binaryVersion, 0, 0, 0, 0, 0, 0, 0, 0}
	data = appendCount(data, false, 2)
	for _, delta := range []int{a, b - a} {
		data = binary.AppendVarint(data, int64(delta))
		data = append(data, 0, 0, 0, 0, 0, 0, 0)
	}
	return appendCount(data, true, 0)
}

// TestSnapshotBinaryCoversEveryField pins the shape of the four types
// the codec carries and round-trips a snapshot whose every field is set,
// so a field added to any of them fails here until MarshalBinary and
// UnmarshalBinary carry it.
func TestSnapshotBinaryCoversEveryField(t *testing.T) {
	for _, tc := range []struct {
		v      any
		fields int
	}{
		{Snapshot{}, 10},
		{Block{}, 7},
		{Region{}, 6},
		{RegionBlock{}, 9},
	} {
		typ := reflect.TypeOf(tc.v)
		if n := typ.NumField(); n != tc.fields {
			t.Errorf("%s has %d fields, the binary codec carries %d: extend MarshalBinary, UnmarshalBinary and this count",
				typ.Name(), n, tc.fields)
		}
	}

	next := 0
	s := &Snapshot{}
	fillScalars(reflect.ValueOf(s).Elem(), &next)
	blk := &Block{}
	fillScalars(reflect.ValueOf(blk).Elem(), &next)
	s.Blocks = map[int]*Block{blk.Addr - 3: blk}
	r := &Region{}
	fillScalars(reflect.ValueOf(r).Elem(), &next)
	r.Blocks = make([]RegionBlock, 1)
	fillScalars(reflect.ValueOf(&r.Blocks[0]).Elem(), &next)
	s.Regions = []*Region{r}
	if got := roundTrip(t, s); !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip dropped a field:\ngot  %+v\nwant %+v", got, s)
	}
}

// fillScalars gives every scalar field of the struct v a distinct
// non-zero value; collections are left to the caller.
func fillScalars(v reflect.Value, next *int) {
	for i := 0; i < v.NumField(); i++ {
		*next++
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(int64(-1000 * *next))
		case reflect.Uint64:
			f.SetUint(uint64(1<<33 + *next))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString("field" + string(rune('a'+*next)))
		case reflect.Float64:
			f.SetFloat(float64(*next) / 64)
		case reflect.Map, reflect.Slice:
		default:
			panic("fillScalars: unhandled kind " + f.Kind().String())
		}
	}
}

// FuzzSnapshotBinary: arbitrary bytes never panic the decoder and never
// make it allocate more than a constant factor of their length, and any
// input it accepts re-encodes to bytes that decode to the same snapshot.
func FuzzSnapshotBinary(f *testing.F) {
	for _, s := range []*Snapshot{avepSnapshot(), inipSnapshot()} {
		data, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Snapshot
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := got.UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		// The header read never panics, and agrees with every
		// encoding the full decode accepts.
		ops, opsErr := BinaryProfilingOps(data)
		if err != nil {
			return
		}
		if opsErr != nil || ops != got.ProfilingOps {
			t.Fatalf("BinaryProfilingOps = %d, %v; the decoded snapshot has %d", ops, opsErr, got.ProfilingOps)
		}
		again := roundTrip(t, &got)
		if !reflect.DeepEqual(again, &got) {
			t.Fatalf("re-encoding changed the snapshot:\nfirst  %+v\nsecond %+v", &got, again)
		}
	})
}
