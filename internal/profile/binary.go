package profile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// binaryVersion leads every MarshalBinary encoding, so a future layout
// change is rejected by old decoders instead of misread.
const binaryVersion = 1

// Minimum encoded sizes, in bytes, of one element of each repeated
// field: every varint and flag takes at least one byte and a float
// eight. UnmarshalBinary bounds each count by the bytes left divided by
// these, so a forged count cannot make it allocate more than a constant
// factor of its input.
const (
	minBlockBytes       = 8  // key delta, addr, end, use, taken, has-branch, two targets
	minRegionBytes      = 13 // id, kind, entry, 8-byte LP, has-LP, member count
	minRegionBlockBytes = 9  // nine fields
)

// MarshalBinary encodes the snapshot compactly and deterministically:
// the header fields, then the blocks in address order (the map key as a
// delta from the previous one, each block's Addr relative to its key
// and End relative to Addr), then the regions in order with their
// members. Integers are varints, flags one byte, ContinuousLP its IEEE
// bits. Each collection's count is stored plus one, with zero meaning
// nil, so nil and empty survive the round trip apart.
//
// A nil block or region, or a NaN ContinuousLP, is an error: none is a
// valid profile, and none would survive the round trip unchanged.
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	n := 64 + len(s.Program) + len(s.Input) + 12*len(s.Blocks)
	for _, r := range s.Regions {
		if r != nil {
			n += 24 + 16*len(r.Blocks)
		}
	}
	b := make([]byte, 0, n)
	b = append(b, binaryVersion)
	b = appendString(b, s.Program)
	b = appendString(b, s.Input)
	b = binary.AppendUvarint(b, s.Threshold)
	b = appendBool(b, s.Optimized)
	b = binary.AppendUvarint(b, s.ProfilingOps)
	b = binary.AppendUvarint(b, s.BlocksExecuted)
	b = binary.AppendUvarint(b, s.Instructions)
	b = binary.AppendUvarint(b, s.Cycles)

	b = appendCount(b, s.Blocks == nil, len(s.Blocks))
	prev := 0
	for _, addr := range s.BlockAddrs() {
		blk := s.Blocks[addr]
		if blk == nil {
			return nil, fmt.Errorf("profile: encode snapshot: nil block at %d", addr)
		}
		b = binary.AppendVarint(b, int64(addr-prev))
		b = binary.AppendVarint(b, int64(blk.Addr-addr))
		b = binary.AppendVarint(b, int64(blk.End-blk.Addr))
		b = binary.AppendUvarint(b, blk.Use)
		b = binary.AppendUvarint(b, blk.Taken)
		b = appendBool(b, blk.HasBranch)
		b = binary.AppendVarint(b, int64(blk.TakenTarget))
		b = binary.AppendVarint(b, int64(blk.FallTarget))
		prev = addr
	}

	b = appendCount(b, s.Regions == nil, len(s.Regions))
	for i, r := range s.Regions {
		if r == nil {
			return nil, fmt.Errorf("profile: encode snapshot: nil region %d", i)
		}
		if math.IsNaN(r.ContinuousLP) {
			return nil, fmt.Errorf("profile: encode snapshot: region %d has a NaN loop-back probability", r.ID)
		}
		b = binary.AppendVarint(b, int64(r.ID))
		b = binary.AppendVarint(b, int64(r.Kind))
		b = binary.AppendVarint(b, int64(r.Entry))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.ContinuousLP))
		b = appendBool(b, r.HasContinuousLP)
		b = appendCount(b, r.Blocks == nil, len(r.Blocks))
		for j := range r.Blocks {
			rb := &r.Blocks[j]
			b = binary.AppendVarint(b, int64(rb.ID))
			b = binary.AppendVarint(b, int64(rb.Addr))
			b = binary.AppendUvarint(b, rb.Use)
			b = binary.AppendUvarint(b, rb.Taken)
			b = appendBool(b, rb.HasBranch)
			b = binary.AppendVarint(b, int64(rb.TakenNext))
			b = binary.AppendVarint(b, int64(rb.FallNext))
			b = binary.AppendVarint(b, int64(rb.TakenTarget))
			b = binary.AppendVarint(b, int64(rb.FallTarget))
		}
	}
	return b, nil
}

// BinaryProfilingOps reads ProfilingOps from the header of an encoding
// made by MarshalBinary without decoding its blocks or regions. A prefix
// that holds the whole header is enough.
func BinaryProfilingOps(data []byte) (uint64, error) {
	d := decoder{buf: data}
	if v := d.u8(); d.err == nil && v != binaryVersion {
		return 0, fmt.Errorf("profile: decode snapshot: version %d, want %d", v, binaryVersion)
	}
	d.bytes()   // Program
	d.bytes()   // Input
	d.uvarint() // Threshold
	d.flag()    // Optimized
	ops := d.uvarint()
	if d.err != nil {
		return 0, fmt.Errorf("profile: decode snapshot header: %w", d.err)
	}
	return ops, nil
}

// UnmarshalBinary decodes an encoding made by MarshalBinary, replacing
// the snapshot's contents. Malformed input — a bad version, varint or
// flag byte, a count larger than the bytes left could hold, blocks out
// of address order, a NaN probability or trailing bytes — is an error
// and leaves the snapshot unchanged.
func (s *Snapshot) UnmarshalBinary(data []byte) error {
	d := decoder{buf: data}
	if v := d.u8(); d.err == nil && v != binaryVersion {
		return fmt.Errorf("profile: decode snapshot: version %d, want %d", v, binaryVersion)
	}
	out := Snapshot{
		Program:        d.str(),
		Input:          d.str(),
		Threshold:      d.uvarint(),
		Optimized:      d.flag(),
		ProfilingOps:   d.uvarint(),
		BlocksExecuted: d.uvarint(),
		Instructions:   d.uvarint(),
		Cycles:         d.uvarint(),
	}

	if n, isNil := d.count(minBlockBytes); !isNil {
		// One backing array for every block: a single allocation, and
		// the map's pointers are as distinct as separately allocated
		// blocks would be.
		blocks := make([]Block, n)
		out.Blocks = make(map[int]*Block, n)
		prev := 0
		for i := 0; i < n && d.err == nil; i++ {
			addr := prev + d.varint()
			if i > 0 && addr <= prev {
				d.fail("blocks out of address order")
			}
			blk := &blocks[i]
			blk.Addr = addr + d.varint()
			blk.End = blk.Addr + d.varint()
			blk.Use = d.uvarint()
			blk.Taken = d.uvarint()
			blk.HasBranch = d.flag()
			blk.TakenTarget = d.varint()
			blk.FallTarget = d.varint()
			out.Blocks[addr] = blk
			prev = addr
		}
	}

	if n, isNil := d.count(minRegionBytes); !isNil {
		regions := make([]Region, n)
		out.Regions = make([]*Region, n)
		for i := 0; i < n && d.err == nil; i++ {
			r := &regions[i]
			r.ID = d.varint()
			r.Kind = RegionKind(d.varint())
			r.Entry = d.varint()
			r.ContinuousLP = d.float()
			r.HasContinuousLP = d.flag()
			if m, isNil := d.count(minRegionBlockBytes); !isNil {
				r.Blocks = make([]RegionBlock, m)
				for j := 0; j < m && d.err == nil; j++ {
					rb := &r.Blocks[j]
					rb.ID = d.varint()
					rb.Addr = d.varint()
					rb.Use = d.uvarint()
					rb.Taken = d.uvarint()
					rb.HasBranch = d.flag()
					rb.TakenNext = d.varint()
					rb.FallNext = d.varint()
					rb.TakenTarget = d.varint()
					rb.FallTarget = d.varint()
				}
			}
			out.Regions[i] = r
		}
	}

	if d.err == nil && len(d.buf) > 0 {
		d.fail(fmt.Sprintf("%d trailing bytes", len(d.buf)))
	}
	if d.err != nil {
		return fmt.Errorf("profile: decode snapshot: %w", d.err)
	}
	*s = out
	return nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendCount writes a collection length plus one, or zero for nil.
func appendCount(b []byte, isNil bool, n int) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

var errShort = errors.New("truncated input")

// decoder reads MarshalBinary's fields off the front of buf. The first
// failure sticks: later reads return zero values, so callers check err
// once per loop iteration and once at the end.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = errors.New(msg)
	}
}

func (d *decoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.err = errShort
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) flag() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail("bad flag byte")
	return false
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// varint reads a zigzag varint that must fit the platform's int.
func (d *decoder) varint() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 || int64(int(v)) != v {
		d.fail("bad varint")
		return 0
	}
	d.buf = d.buf[n:]
	return int(v)
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.err = errShort
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	if math.IsNaN(v) {
		d.fail("NaN loop-back probability")
	}
	return v
}

func (d *decoder) str() string { return string(d.bytes()) }

// bytes reads a length-prefixed byte string without copying it.
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.err = errShort
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

// count reads a collection length written by appendCount, rejecting
// one that the remaining bytes could not hold at minBytes per element.
func (d *decoder) count(minBytes int) (n int, isNil bool) {
	v := d.uvarint()
	if d.err != nil {
		return 0, true
	}
	if v == 0 {
		return 0, true
	}
	if v-1 > uint64(len(d.buf)/minBytes) {
		d.fail("count exceeds input")
		return 0, true
	}
	return int(v - 1), false
}
