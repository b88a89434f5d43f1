package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/resultcache"
	"repro/internal/spec"
	"repro/internal/study"
)

// TestCompareAgreesWithStudy: the CLI and the daemon report the same
// numbers. For every benchmark at scale 0.001 and three rungs, a
// /v1/compare summary equals the study's PerT summary bit for bit
// (equal JSON encodings, which are shortest round-trip, mean equal
// bits). It also pins a deliberate trade: the `ref` key joins the whole
// ladder, so a compare over a cache the study filled is cold — it
// executes the guest again.
func TestCompareAgreesWithStudy(t *testing.T) {
	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := study.Run(study.Config{Scale: 0.001, Thresholds: []float64{100, 2000, 1e6}, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != len(spec.Suite()) || len(res.PaperT) != 3 {
		t.Fatalf("study ran %d benchmarks and %d rungs", len(res.Series), len(res.PaperT))
	}
	s := newTestServer(t, Config{Scale: 0.001, Cache: store}, nil, nil)
	encode := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, series := range res.Series {
		for i, paperT := range res.PaperT {
			w := postCompare(s, fmt.Sprintf(`{"bench":%q,"t":%g}`, series.Name, paperT))
			if w.Code != http.StatusOK {
				t.Fatalf("%s@%g: %d %s", series.Name, paperT, w.Code, w.Body)
			}
			if w.Header().Get("X-Inipd-Cache") != "miss" || w.Header().Get("X-Inipd-Guest-Blocks") == "0" {
				t.Errorf("%s@%g over the study's cache: cache=%q blocks=%q, want a cold compare",
					series.Name, paperT, w.Header().Get("X-Inipd-Cache"), w.Header().Get("X-Inipd-Guest-Blocks"))
			}
			var resp compareResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if got, want := encode(resp.Summary), encode(toWire(series.PerT[i].Summary)); !bytes.Equal(got, want) {
				t.Errorf("%s@%g: compare summary %s, study %s", series.Name, paperT, got, want)
			}
			if got, want := encode(resp.Train), encode(toWire(series.Train)); !bytes.Equal(got, want) {
				t.Errorf("%s@%g: compare train %s, study %s", series.Name, paperT, got, want)
			}
		}
	}
}
