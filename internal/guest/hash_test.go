package guest_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/spec"
)

// saveHash is the content hash by definition: the hex SHA-256 of the
// bytes Save writes.
func saveHash(t *testing.T, img *guest.Image) string {
	t.Helper()
	var buf bytes.Buffer
	if err := img.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// hashFixtures are assembler programs: a jump table, a symbol name
// longer than the encoder's chunk, and a data segment.
func hashFixtures(t *testing.T) []*guest.Image {
	t.Helper()
	long := "l" + strings.Repeat("o", 5000) + "ng"
	var imgs []*guest.Image
	for _, src := range []string{
		".entry m\nm:\nloadi r1, 3\nloop:\naddi r1, r1, -1\nbne r1, r0, loop\nhalt\n",
		".name demo\n.data 16\n.entry main\nmain:\nloadi r1, 2\nloop:\naddi r1, r1, -1\nbne r1, r0, loop\nloadi r7, 5\njr r7, [end, loop]\nend:\nhalt\n",
		".entry " + long + "\n" + long + ":\nhalt\n",
	} {
		img, err := guest.Assemble(src)
		if err != nil {
			t.Fatalf("Assemble: %v", err)
		}
		imgs = append(imgs, img)
	}
	imgs[0].InitData, imgs[0].DataWords = []uint32{1, 2, 3}, 8
	return imgs
}

// TestContentHashIsSaveHash: ContentHash streams exactly the bytes Save
// writes, for every spec image (both inputs) and the assembler
// fixtures.
func TestContentHashIsSaveHash(t *testing.T) {
	imgs := hashFixtures(t)
	for _, b := range spec.Suite() {
		for _, input := range []string{"ref", "train"} {
			img, _, err := b.Build(input, 0.005)
			if err != nil {
				t.Fatal(err)
			}
			imgs = append(imgs, img)
		}
	}
	for _, img := range imgs {
		if got, want := img.ContentHash(), saveHash(t, img); got != want {
			t.Errorf("%s: ContentHash %s, hash of the Save bytes %s", img.Name, got, want)
		}
	}
}

// TestContentHashAllocs: hashing costs a few allocations per image (the
// chunk encoder, the digest, the sorted key lists and the hex string),
// not one per code word.
func TestContentHashAllocs(t *testing.T) {
	img, _, err := spec.ByName("perlbmk").Build("ref", 0.005)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { img.ContentHash() }); n > 8 {
		t.Fatalf("ContentHash of a %d-word image made %.0f allocations, want at most 8", len(img.Code), n)
	}
}

// chunkWriter records the size of every write and fails the one
// numbered failAt (1-based; 0 never fails).
type chunkWriter struct {
	sizes  []int
	failAt int
	buf    bytes.Buffer
}

var errWrite = errors.New("write refused")

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	if len(w.sizes) == w.failAt {
		return 0, errWrite
	}
	return w.buf.Write(p)
}

// TestSaveWritesChunks: Save hands the writer whole chunks, and the
// first failed write is its error.
func TestSaveWritesChunks(t *testing.T) {
	img, _, err := spec.ByName("perlbmk").Build("ref", 0.005)
	if err != nil {
		t.Fatal(err)
	}
	var w chunkWriter
	if err := img.Save(&w); err != nil {
		t.Fatal(err)
	}
	// Every write but the last is a full chunk, short of at most the 3
	// bytes of a word that did not fit.
	if len(w.sizes) < 2 {
		t.Fatalf("Save made %d writes for %d bytes", len(w.sizes), w.buf.Len())
	}
	for i, n := range w.sizes[:len(w.sizes)-1] {
		if n < 4093 || n > 4096 {
			t.Fatalf("write %d of %d was %d bytes, want a 4096-byte chunk", i, len(w.sizes), n)
		}
	}
	fail := chunkWriter{failAt: 2}
	if err := img.Save(&fail); !errors.Is(err, errWrite) || len(fail.sizes) != 2 {
		t.Fatalf("Save over a writer that refuses write 2 returned %v after %d writes", err, len(fail.sizes))
	}
}
