package serve

import (
	"net/http"
	"testing"

	"repro/internal/resultcache"
)

// BenchmarkWarmCompare times one warm /v1/compare on a filled store:
// admission, the two image builds and hashes, three cache reads and the
// response, with no guest block. ci.sh gates its allocs/op against
// warm_compare_allocs_per_op in BENCH_floor.json.
func BenchmarkWarmCompare(b *testing.B) {
	cache, err := resultcache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	s := newTestServer(b, Config{Scale: 0.005, Workers: 1, Cache: cache}, nil, nil)
	const body = `{"bench":"gzip","t":2000}`
	if w := postCompare(s, body); w.Code != http.StatusOK {
		b.Fatalf("cold compare: %d %s", w.Code, w.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := postCompare(s, body)
		if w.Code != http.StatusOK || w.Header().Get("X-Inipd-Guest-Blocks") != "0" {
			b.Fatalf("warm compare: %d, %s guest blocks", w.Code, w.Header().Get("X-Inipd-Guest-Blocks"))
		}
	}
}
