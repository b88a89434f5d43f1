// Package guest represents SG32 guest program images: the binaries that
// the dynamic binary translator loads, decodes and executes.
//
// An Image is the unit of translation input. It carries the encoded code
// segment, the entry point, optional initial data memory, a symbol table
// (label -> code address) used by tooling and tests, and jump tables that
// enumerate the possible targets of register-indirect jumps. Real
// translators discover indirect targets at run time; the jump tables here
// serve the same role for static CFG recovery in the offline analysis
// tool and do not leak information to the translator's hot path.
package guest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/isa"
)

// Image is a loaded SG32 guest binary.
type Image struct {
	// Name identifies the program (benchmark name for the synthetic
	// suite).
	Name string
	// Code is the encoded instruction stream; addresses are word
	// indices into this slice.
	Code []uint32
	// Entry is the address of the first instruction to execute.
	Entry int
	// DataWords is the number of words of guest data memory the
	// program requires.
	DataWords int
	// InitData holds initial values for the low words of data memory.
	InitData []uint32
	// Symbols maps label names to code addresses.
	Symbols map[string]int
	// JumpTables maps the address of each jr instruction to the set of
	// addresses it may jump to.
	JumpTables map[int][]int
}

// Validate checks structural invariants: entry in range, decodable code,
// jump-table entries in range and attached to jr instructions, and
// control-transfer targets within the code segment.
func (img *Image) Validate() error {
	if len(img.Code) == 0 {
		return errors.New("guest: empty code segment")
	}
	if img.Entry < 0 || img.Entry >= len(img.Code) {
		return fmt.Errorf("guest: entry %d outside code [0,%d)", img.Entry, len(img.Code))
	}
	if len(img.InitData) > img.DataWords {
		return fmt.Errorf("guest: %d init words exceed data size %d", len(img.InitData), img.DataWords)
	}
	for pc, w := range img.Code {
		in, err := isa.Decode(w)
		if err != nil {
			return fmt.Errorf("guest: at %d: %w", pc, err)
		}
		if in.Op.IsCondBranch() || in.Op.IsUncondJump() {
			tgt := pc + int(in.Imm)
			if tgt < 0 || tgt >= len(img.Code) {
				return fmt.Errorf("guest: at %d: %v targets %d outside code", pc, in, tgt)
			}
		}
		if in.Op == isa.OpJr {
			targets := img.JumpTables[pc]
			if len(targets) == 0 {
				return fmt.Errorf("guest: at %d: jr without jump table", pc)
			}
			for _, t := range targets {
				if t < 0 || t >= len(img.Code) {
					return fmt.Errorf("guest: at %d: jump table target %d outside code", pc, t)
				}
			}
		}
	}
	for name, addr := range img.Symbols {
		if addr < 0 || addr >= len(img.Code) {
			return fmt.Errorf("guest: symbol %q at %d outside code", name, addr)
		}
	}
	return nil
}

// Decode returns the decoded instruction at address pc.
func (img *Image) Decode(pc int) (isa.Inst, error) {
	if pc < 0 || pc >= len(img.Code) {
		return isa.Inst{}, fmt.Errorf("guest: pc %d outside code [0,%d)", pc, len(img.Code))
	}
	return isa.Decode(img.Code[pc])
}

// SymbolAt returns the name of a symbol bound exactly at addr, if any.
func (img *Image) SymbolAt(addr int) (string, bool) {
	for name, a := range img.Symbols {
		if a == addr {
			return name, true
		}
	}
	return "", false
}

// Disassemble renders the whole code segment with symbol annotations.
func (img *Image) Disassemble() string {
	type sym struct {
		addr int
		name string
	}
	syms := make([]sym, 0, len(img.Symbols))
	for name, addr := range img.Symbols {
		syms = append(syms, sym{addr, name})
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].addr < syms[j].addr })
	out := ""
	next := 0
	for pc := range img.Code {
		for next < len(syms) && syms[next].addr == pc {
			out += syms[next].name + ":\n"
			next++
		}
		out += isa.Disassemble(img.Code[pc:pc+1], pc)
	}
	return out
}

// Binary image format:
//
//	magic "SG32" | version u32 | entry u32 | dataWords u32 |
//	codeLen u32 | code words |
//	initLen u32 | init words |
//	symCount u32 | { nameLen u32 | name | addr u32 } |
//	jtCount u32 | { pc u32 | n u32 | targets } |
//	nameLen u32 | name
const (
	imageMagic   = "SG32"
	imageVersion = 1
)

var errBadMagic = errors.New("guest: not an SG32 image")

func readU32(r io.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

func readString(r io.Reader, maxLen uint32) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > maxLen {
		return "", fmt.Errorf("guest: string length %d exceeds limit %d", n, maxLen)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// encoder writes the SG32 byte stream through a fixed chunk buffer, so
// a whole image costs one Write per chunk instead of one per word. The
// first write error is kept and every later write skipped.
type encoder struct {
	w   io.Writer
	err error
	n   int
	buf [4096]byte
}

func (e *encoder) flush() {
	if e.err == nil && e.n > 0 {
		_, e.err = e.w.Write(e.buf[:e.n])
	}
	e.n = 0
}

func (e *encoder) u32(v uint32) {
	if e.n+4 > len(e.buf) {
		e.flush()
	}
	binary.LittleEndian.PutUint32(e.buf[e.n:], v)
	e.n += 4
}

func (e *encoder) words(ws []uint32) {
	e.u32(uint32(len(ws)))
	for _, w := range ws {
		e.u32(w)
	}
}

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	for len(s) > 0 {
		if e.n == len(e.buf) {
			e.flush()
		}
		c := copy(e.buf[e.n:], s)
		e.n += c
		s = s[c:]
	}
}

// Save writes the image in the SG32 binary format. Symbols and jump
// tables go in sorted order, so the stream depends only on the image's
// content.
func (img *Image) Save(w io.Writer) error {
	e := &encoder{w: w}
	e.n = copy(e.buf[:], imageMagic)
	e.u32(imageVersion)
	e.u32(uint32(img.Entry))
	e.u32(uint32(img.DataWords))
	e.words(img.Code)
	e.words(img.InitData)
	e.u32(uint32(len(img.Symbols)))
	names := make([]string, 0, len(img.Symbols))
	for name := range img.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e.str(name)
		e.u32(uint32(img.Symbols[name]))
	}
	e.u32(uint32(len(img.JumpTables)))
	pcs := make([]int, 0, len(img.JumpTables))
	for pc := range img.JumpTables {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	for _, pc := range pcs {
		targets := img.JumpTables[pc]
		e.u32(uint32(pc))
		e.u32(uint32(len(targets)))
		for _, t := range targets {
			e.u32(uint32(t))
		}
	}
	e.str(img.Name)
	e.flush()
	return e.err
}

// ContentHash returns the hex SHA-256 of the image's deterministic SG32
// serialization: the bytes Save writes, streamed into one digest. Save
// sorts symbols and jump tables, so two images with the same semantic
// content hash identically regardless of construction order; the
// result-cache key derivation depends on that.
func (img *Image) ContentHash() string {
	h := sha256.New()
	// Save only fails on writer errors and a hash never errors.
	_ = img.Save(h)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// Load reads an image previously written by Save and validates it.
func Load(r io.Reader) (*Image, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, err
	}
	if string(magic) != imageMagic {
		return nil, errBadMagic
	}
	version, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if version != imageVersion {
		return nil, fmt.Errorf("guest: unsupported image version %d", version)
	}
	img := &Image{}
	entry, err := readU32(r)
	if err != nil {
		return nil, err
	}
	img.Entry = int(entry)
	dataWords, err := readU32(r)
	if err != nil {
		return nil, err
	}
	img.DataWords = int(dataWords)
	const maxWords = 1 << 24 // 64 Mi words is far beyond any synthetic program
	// Lengths come from untrusted input: grow incrementally instead of
	// trusting the header with one huge allocation, so a corrupted
	// length costs a fast read-to-EOF, not gigabytes.
	readWords := func(kind string) ([]uint32, error) {
		n, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if n > maxWords {
			return nil, fmt.Errorf("guest: %s length %d exceeds limit", kind, n)
		}
		initialCap := n
		if initialCap > 4096 {
			initialCap = 4096
		}
		words := make([]uint32, 0, initialCap)
		for i := uint32(0); i < n; i++ {
			w, err := readU32(r)
			if err != nil {
				return nil, err
			}
			words = append(words, w)
		}
		return words, nil
	}
	if img.Code, err = readWords("code"); err != nil {
		return nil, err
	}
	if img.InitData, err = readWords("init"); err != nil {
		return nil, err
	}
	symCount, err := readU32(r)
	if err != nil {
		return nil, err
	}
	symCap := symCount
	if symCap > 4096 {
		symCap = 4096 // capacity hint only; the count is untrusted
	}
	img.Symbols = make(map[string]int, symCap)
	for i := uint32(0); i < symCount; i++ {
		name, err := readString(r, 1<<16)
		if err != nil {
			return nil, err
		}
		addr, err := readU32(r)
		if err != nil {
			return nil, err
		}
		img.Symbols[name] = int(addr)
	}
	jtCount, err := readU32(r)
	if err != nil {
		return nil, err
	}
	jtCap := jtCount
	if jtCap > 4096 {
		jtCap = 4096 // capacity hint only; the count is untrusted
	}
	img.JumpTables = make(map[int][]int, jtCap)
	for i := uint32(0); i < jtCount; i++ {
		pc, err := readU32(r)
		if err != nil {
			return nil, err
		}
		n, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if n > maxWords {
			return nil, fmt.Errorf("guest: jump table size %d exceeds limit", n)
		}
		cap0 := n
		if cap0 > 4096 {
			cap0 = 4096
		}
		targets := make([]int, 0, cap0)
		for j := uint32(0); j < n; j++ {
			t, err := readU32(r)
			if err != nil {
				return nil, err
			}
			targets = append(targets, int(t))
		}
		img.JumpTables[int(pc)] = targets
	}
	if img.Name, err = readString(r, 1<<16); err != nil {
		return nil, err
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	return img, nil
}
