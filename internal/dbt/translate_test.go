package dbt

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/guest"
	"repro/internal/interp"
)

// TestTblockLayout pins the layout the tblock comment promises: every
// field the replay loop reads for a frozen steady-state block sits in
// the first 64 bytes, the write-hot counters start past them, and the
// struct fits the 128-byte size class every follower block costs.
func TestTblockLayout(t *testing.T) {
	var tb tblock
	hot := []struct {
		name      string
		off, size uintptr
	}{
		{"addr", unsafe.Offsetof(tb.addr), unsafe.Sizeof(tb.addr)},
		{"takenTarget", unsafe.Offsetof(tb.takenTarget), unsafe.Sizeof(tb.takenTarget)},
		{"takenBlk", unsafe.Offsetof(tb.takenBlk), unsafe.Sizeof(tb.takenBlk)},
		{"fallBlk", unsafe.Offsetof(tb.fallBlk), unsafe.Sizeof(tb.fallBlk)},
		{"itab", unsafe.Offsetof(tb.itab), unsafe.Sizeof(tb.itab)},
		{"regionEntry", unsafe.Offsetof(tb.regionEntry), unsafe.Sizeof(tb.regionEntry)},
		{"costSum", unsafe.Offsetof(tb.costSum), unsafe.Sizeof(tb.costSum)},
		{"ninsts", unsafe.Offsetof(tb.ninsts), unsafe.Sizeof(tb.ninsts)},
		{"id", unsafe.Offsetof(tb.id), unsafe.Sizeof(tb.id)},
		{"hasBranch", unsafe.Offsetof(tb.hasBranch), unsafe.Sizeof(tb.hasBranch)},
		{"frozen", unsafe.Offsetof(tb.frozen), unsafe.Sizeof(tb.frozen)},
		{"indirect", unsafe.Offsetof(tb.indirect), unsafe.Sizeof(tb.indirect)},
	}
	for _, f := range hot {
		if f.off+f.size > 64 {
			t.Errorf("tblock.%s spans bytes [%d,%d), past the first 64", f.name, f.off, f.off+f.size)
		}
	}
	if off := unsafe.Offsetof(tb.use); off < 64 {
		t.Errorf("tblock.use at byte %d shares the read-mostly first 64 bytes", off)
	}
	if size := unsafe.Sizeof(tb); size > 128 {
		t.Errorf("tblock is %d bytes, want at most 128", size)
	}
}

// untranslatableGuests run a few replay batches of a loop and then
// reach a block that does not translate. guest.Image.Validate rejects
// undecodable words, so the failures a validated image can reach are a
// block running off the end of the code segment and one longer than
// maxBlockLen.
func untranslatableGuests(t *testing.T) map[string]*guest.Image {
	t.Helper()
	const loop = `
.entry main
main:
	loadi r14, 0
	loadi r10, 6000
loop:
	addi r14, r14, 1
	blt r14, r10, loop
	jmp tail
tail:
`
	imgs := make(map[string]*guest.Image)
	for name, tail := range map[string]string{
		"off the code segment": "\taddi r1, r1, 1\n",
		"over-long block":      strings.Repeat("\tnop\n", maxBlockLen) + "\thalt\n",
	} {
		img, err := guest.Assemble(loop + tail)
		if err != nil {
			t.Fatalf("%s: Assemble: %v", name, err)
		}
		imgs[name] = img
	}
	return imgs
}

// TestFollowersReproduceTranslateErrors: where the driver's translation
// fails, the driver holds no block to adopt, and every follower (full,
// sampled and adaptive) decodes the block itself. Each must stop where
// its serial run stops with its serial run's error, and its own
// translation there must fail with that text too.
func TestFollowersReproduceTranslateErrors(t *testing.T) {
	for name, img := range untranslatableGuests(t) {
		cfgs := []Config{
			{Input: "ref"},
			{Input: "ref", Optimize: true, Threshold: 10, RegisterTwice: true},
			{Input: "ref", Optimize: true, Threshold: 40, RegisterTwice: true, SamplePeriod: 4, SampleSeed: 1},
			{Input: "ref", Optimize: true, Threshold: 10, RegisterTwice: true, Adaptive: true, AdaptiveMinEntries: 4},
		}
		engines, err := runEngines(img, interp.NewUniformTape("follow-bad"), withPerf(cfgs), nil)
		tail, ok := img.Symbols["tail"]
		if len(engines) != len(cfgs) || !ok {
			t.Fatalf("%s: %d engines, tail symbol %v (err %v)", name, len(engines), ok, err)
		}
		for i, e := range engines {
			serial, nerr := New(img, interp.NewUniformTape("follow-bad"), withPerf(cfgs[i : i+1])[0])
			if nerr != nil {
				t.Fatal(nerr)
			}
			_, _, serr := serial.Run()
			if serr == nil {
				t.Fatalf("%s: serial run %d succeeded", name, i)
			}
			if err == nil || err.Error() != serr.Error() {
				t.Fatalf("%s: shared run error %v, serial run %d: %v", name, err, i, serr)
			}
			if got, want := e.stats.BlocksExecuted, serial.stats.BlocksExecuted; got != want || got <= replayBatch {
				t.Errorf("%s: engine %d stopped after %d blocks, serial after %d (want more than one batch)", name, i, got, want)
			}
			if e.cache[tail] != nil {
				t.Fatalf("%s: engine %d holds a block at the untranslatable %d", name, i, tail)
			}
			if _, terr := e.translate(tail); terr == nil || terr.Error() != serr.Error() {
				t.Errorf("%s: engine %d translates %d with %v, want %q", name, i, tail, terr, serr)
			}
		}
	}
}
