package study

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzCheckpointDecode checks the checkpoint reader over arbitrary byte
// streams against a fixed run fingerprint: readCheckpoint never panics,
// and any stream it accepts survives a render/re-read round trip with
// deeply equal series (the resume path is a fixed point, so a resumed
// run re-commits exactly what it read).
func FuzzCheckpointDecode(f *testing.F) {
	want := checkpointHeader{
		Version:    checkpointVersion,
		Scale:      0.001,
		PaperT:     []float64{100, 200},
		Benchmarks: []string{"gzip", "swim"},
	}
	order := map[string]int{"gzip": 0, "swim": 1}

	hdr := `{"version":2,"scale":0.001,"paper_t":[100,200],"benchmarks":["gzip","swim"]}`
	f.Add([]byte(nil))
	f.Add([]byte(hdr))
	f.Add([]byte(hdr + "\n"))
	oneSeries := hdr + "\n" + `{"Name":"gzip","PerT":[{"T":100},{"T":200}]}` + "\n"
	f.Add([]byte(oneSeries))
	f.Add([]byte(`{"version":1,"scale":0.001,"paper_t":[100,200],"independent_runs":false,"benchmarks":["gzip","swim"]}`))
	f.Add([]byte("not json at all"))
	// The corpus must keep reaching the accept path under the current
	// schema, or the round-trip property below is never exercised.
	if got, err := readCheckpoint(strings.NewReader(oneSeries), want); err != nil || len(got) != 1 {
		f.Fatalf("one-series seed does not decode: %v", err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := readCheckpoint(bytes.NewReader(data), want)
		if err != nil {
			return
		}
		c := &checkpointer{header: want, order: order, done: got}
		rendered, err := c.renderLocked()
		if err != nil {
			t.Fatalf("accepted checkpoint does not re-render: %v", err)
		}
		again, err := readCheckpoint(bytes.NewReader(rendered), want)
		if err != nil {
			t.Fatalf("re-rendered checkpoint does not re-read: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("checkpoint round trip changed series:\nfirst  %+v\nsecond %+v", got, again)
		}
	})
}
