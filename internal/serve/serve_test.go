package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resultcache"
	"repro/internal/spec"
	"repro/internal/study"
)

// newTestServer builds a Server with small admission limits and, when
// gate is non-nil, a fake exec that blocks on it and counts calls.
func newTestServer(t testing.TB, cfg Config, gate chan struct{}, calls *atomic.Int64) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Drain waits out every flight the test left running, an abandoned
	// one included, so none still writes to a cache directory the test
	// is about to remove.
	t.Cleanup(func() { s.Drain(10 * time.Second) })
	if gate != nil {
		s.exec = func(key string, _ study.Config) *compareOut {
			calls.Add(1)
			<-gate
			return &compareOut{
				status: http.StatusOK,
				body:   []byte(fmt.Sprintf("{\"key\":%q}\n", key)),
				blocks: 7,
			}
		}
	}
	return s
}

func postCompare(s *Server, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/compare", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// oversizeBody is a request body one byte past the daemon's limit; its
// JSON stays open so the decoder must read past the limit.
var oversizeBody = `{"bench":"` + strings.Repeat("a", maxRequestBody)

// compareValidationRows are malformed compare requests and the status
// each must get, before admission and with a JSON error.
var compareValidationRows = []struct {
	name string
	body string
	want int
}{
	{"bad json", "{", http.StatusBadRequest},
	{"unknown bench", `{"bench":"nope","t":2000}`, http.StatusBadRequest},
	{"bad threshold", `{"bench":"gzip","t":-1}`, http.StatusBadRequest},
	{"negative scale", `{"bench":"gzip","t":2000,"scale":-0.5}`, http.StatusBadRequest},
	{"scale above the paper's", `{"bench":"gzip","t":2000,"scale":1e9}`, http.StatusBadRequest},
	{"negative timeout", `{"bench":"gzip","t":2000,"timeout_ms":-1}`, http.StatusBadRequest},
	{"overflowing timeout", `{"bench":"gzip","t":2000,"timeout_ms":9223372036854775807}`, http.StatusBadRequest},
	{"duplicate predictor", `{"bench":"gzip","t":2000,"predictors":["2bit","2bit"]}`, http.StatusBadRequest},
	{"unknown predictor", `{"bench":"gzip","t":2000,"predictors":["oracle"]}`, http.StatusBadRequest},
	{"unknown learned model", `{"bench":"gzip","t":2000,"learned":"nn"}`, http.StatusBadRequest},
	{"oversize body", oversizeBody, http.StatusRequestEntityTooLarge},
}

// TestCompareValidation: malformed requests are rejected up front with
// a JSON error, before admission.
func TestCompareValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1}, nil, nil)
	for _, tc := range compareValidationRows {
		w := postCompare(s, tc.body)
		if w.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, w.Code, tc.want)
		}
		var e struct{ Error string }
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: body %q is not a JSON error", tc.name, w.Body.String())
		}
	}
}

// FuzzCompareRequest: any POST /v1/compare body gets either a 200 —
// and then exec ran on a config the study's Validate accepts — or a
// 4xx with a JSON error. It never gets a 5xx, panics or hangs. exec is
// a stub behind a closed gate, so no request runs the pipeline. The one
// 5xx a well-behaved server may give is the 504 of a deadline the
// request itself set so short that it can expire before even the stub
// answers; it is accepted only for timeout_ms of at most 100.
func FuzzCompareRequest(f *testing.F) {
	for _, row := range compareValidationRows {
		if len(row.body) < 4096 {
			f.Add(row.body)
		}
	}
	f.Add(`{"bench":"gzip","t":2000}`)
	f.Add(`{"bench":" swim ","t":0.5,"scale":0.01,"predictors":["2bit","gshare"],"sample_period":4,"learned":"tree","timeout_ms":60000}`)

	s, err := New(Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	var invalid atomic.Pointer[string]
	s.exec = func(key string, cfg study.Config) *compareOut {
		if err := cfg.Validate(); err != nil {
			msg := fmt.Sprintf("exec reached with an invalid config (key %s): %v", key, err)
			invalid.Store(&msg)
		}
		return &compareOut{status: http.StatusOK, body: []byte("{}\n")}
	}
	f.Fuzz(func(t *testing.T, body string) {
		w := postCompare(s, body)
		if msg := invalid.Swap(nil); msg != nil {
			t.Fatal(*msg)
		}
		switch {
		case w.Code == http.StatusOK:
		case w.Code >= 400 && w.Code < 500:
			var e struct{ Error string }
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("status %d with body %q, not a JSON error", w.Code, w.Body.String())
			}
		case w.Code == http.StatusGatewayTimeout:
			var req compareRequest
			if json.Unmarshal([]byte(body), &req) != nil || req.TimeoutMS <= 0 || req.TimeoutMS > 100 {
				t.Fatalf("504 for a request without a short deadline of its own: %q", body)
			}
		default:
			t.Fatalf("status %d for %q: %s", w.Code, body, w.Body.String())
		}
	})
}

// metricsText scrapes the server's Prometheus exposition.
func metricsText(s *Server) string {
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v1/metrics", nil))
	return w.Body.String()
}

// TestAdmissionOverload: with one inflight slot and no wait queue, a
// second concurrent request is rejected immediately with 429 and a
// Retry-After hint, and the first still completes. The inflight gauge
// reads 1 while the first holds the slot and 0 once it is released.
func TestAdmissionOverload(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int64
	s := newTestServer(t, Config{Workers: 1, MaxInflight: 1, MaxQueue: -1}, gate, &calls)

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- postCompare(s, `{"bench":"gzip","t":2000}`) }()
	waitFor(t, "leader to start executing", func() bool { return calls.Load() == 1 })
	if m := metricsText(s); !strings.Contains(m, "\ninipd_compare_inflight 1\n") {
		t.Fatalf("inflight gauge does not read 1 while the leader holds the slot:\n%s", m)
	}

	// A different benchmark, so coalescing cannot absorb it: it must
	// fall to admission, which has no free slot and no queue.
	w := postCompare(s, `{"bench":"mcf","t":2000}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429\n%s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(gate)
	if w := <-first; w.Code != http.StatusOK {
		t.Fatalf("admitted request failed: %d %s", w.Code, w.Body.String())
	}
	if got := s.m.compareOverload.Load(); got != 1 {
		t.Fatalf("overload counter = %d, want 1", got)
	}
	if m := metricsText(s); !strings.Contains(m, "\ninipd_compare_inflight 0\n") {
		t.Fatalf("inflight gauge does not read 0 after the slot is released:\n%s", m)
	}
}

// TestAdmissionDeadline: a queued request whose deadline expires before
// a slot frees gets 504, not an indefinite wait.
func TestAdmissionDeadline(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	var calls atomic.Int64
	s := newTestServer(t, Config{Workers: 1, MaxInflight: 1, MaxQueue: 4}, gate, &calls)

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- postCompare(s, `{"bench":"gzip","t":2000}`) }()
	waitFor(t, "leader to start executing", func() bool { return calls.Load() == 1 })

	w := postCompare(s, `{"bench":"mcf","t":2000,"timeout_ms":30}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("queued-past-deadline status %d, want 504\n%s", w.Code, w.Body.String())
	}
	if got := s.m.compareDeadline.Load(); got != 1 {
		t.Fatalf("deadline counter = %d, want 1", got)
	}
}

// TestExecutionDeadline: an admitted request whose work outlives its
// deadline gets 504 while the flight keeps running to completion (its
// result must still land for followers and the cache), and Drain waits
// for that abandoned flight.
func TestExecutionDeadline(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int64
	s := newTestServer(t, Config{Workers: 1, MaxInflight: 2, MaxQueue: 4}, gate, &calls)

	w := postCompare(s, `{"bench":"gzip","t":2000,"timeout_ms":30}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504\n%s", w.Code, w.Body.String())
	}
	if err := s.Drain(50 * time.Millisecond); err == nil {
		t.Fatal("Drain returned while the abandoned flight was still running")
	}
	close(gate)
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatalf("Drain after the flight finished: %v", err)
	}
	// The abandoned flight completed and unregistered.
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if len(s.flights) != 0 {
		t.Fatalf("%d flight(s) still registered after Drain", len(s.flights))
	}
}

// TestCoalesceIdenticalRequests: concurrent identical compares execute
// once; every caller gets the same 200 body, and the extras are counted
// and labelled as followers.
func TestCoalesceIdenticalRequests(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int64
	s := newTestServer(t, Config{Workers: 1, MaxInflight: 8, MaxQueue: 8}, gate, &calls)

	const n = 3
	results := make(chan *httptest.ResponseRecorder, n)
	body := `{"bench":"gzip","t":2000}`
	go func() { results <- postCompare(s, body) }()
	waitFor(t, "leader to start executing", func() bool { return calls.Load() == 1 })
	for i := 1; i < n; i++ {
		go func() { results <- postCompare(s, body) }()
	}
	waitFor(t, "followers to join the flight", func() bool { return s.m.compareCoalesced.Load() == n-1 })
	close(gate)

	var bodies []string
	roles := map[string]int{}
	for i := 0; i < n; i++ {
		w := <-results
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		bodies = append(bodies, w.Body.String())
		roles[w.Header().Get("X-Inipd-Coalesced")]++
	}
	if calls.Load() != 1 {
		t.Fatalf("executed %d scheduler units for %d identical requests, want 1", calls.Load(), n)
	}
	for _, b := range bodies[1:] {
		if b != bodies[0] {
			t.Fatalf("coalesced bodies differ:\n%s\n%s", bodies[0], b)
		}
	}
	if roles["leader"] != 1 || roles["follower"] != n-1 {
		t.Fatalf("roles = %v, want 1 leader / %d followers", roles, n-1)
	}
}

// TestCompareWarmColdE2E drives the real pipeline through a real HTTP
// server twice with a result cache: the warm response must be
// byte-identical to the cold one and report zero guest blocks executed.
func TestCompareWarmColdE2E(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Scale: 0.001, Workers: 1, Cache: cache}, nil, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func() (*http.Response, []byte) {
		resp, err := http.Post(ts.URL+"/v1/compare", "application/json",
			strings.NewReader(`{"bench":"gzip","t":2000}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	cold, coldBody := post()
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold compare: %d %s", cold.StatusCode, coldBody)
	}
	if cold.Header.Get("X-Inipd-Cache") != "miss" || cold.Header.Get("X-Inipd-Guest-Blocks") == "0" {
		t.Fatalf("cold headers wrong: cache=%q blocks=%q",
			cold.Header.Get("X-Inipd-Cache"), cold.Header.Get("X-Inipd-Guest-Blocks"))
	}
	var resp compareResponse
	if err := json.Unmarshal(coldBody, &resp); err != nil {
		t.Fatalf("cold body: %v", err)
	}
	if resp.Bench != "gzip" || resp.TEffective != 2 || resp.Summary.Blocks == 0 {
		t.Fatalf("cold response wrong: %+v", resp)
	}

	warm, warmBody := post()
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm compare: %d %s", warm.StatusCode, warmBody)
	}
	if got := warm.Header.Get("X-Inipd-Guest-Blocks"); got != "0" {
		t.Fatalf("warm compare executed %s guest blocks, want 0", got)
	}
	if warm.Header.Get("X-Inipd-Cache") != "hit" {
		t.Fatalf("warm cache header = %q", warm.Header.Get("X-Inipd-Cache"))
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatalf("warm body differs from cold:\n%s\n%s", coldBody, warmBody)
	}
	if s.m.compareWarm.Load() != 1 {
		t.Fatalf("warm counter = %d, want 1", s.m.compareWarm.Load())
	}
}

// TestDrainRejectsNewWork: a ready server answers 200 on readyz and
// reports inipd_ready 1; once draining it answers 503 on readyz and
// compare and reports inipd_ready 0, while health stays 200.
func TestDrainRejectsNewWork(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1}, nil, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before draining: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	if m := metricsText(s); !strings.Contains(m, "\ninipd_ready 1\n") {
		t.Fatalf("ready gauge does not read 1 before draining:\n%s", m)
	}

	if err := s.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	if w := postCompare(s, `{"bench":"gzip","t":2000}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("compare while draining: %d", w.Code)
	}
	if m := metricsText(s); !strings.Contains(m, "\ninipd_ready 0\n") {
		t.Fatalf("ready gauge does not read 0 while draining:\n%s", m)
	}
	if resp, err = http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	if resp, err = http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %v %v", err, resp.Status)
	}
	resp.Body.Close()
}

// TestConcurrentMixedLoad exercises admission, coalescing and the
// shared scheduler together under -race: a burst of identical and
// distinct compares with a tight admission window must neither race nor
// deadlock, and every response must be a well-formed 200/429/504.
func TestConcurrentMixedLoad(t *testing.T) {
	s := newTestServer(t, Config{Scale: 0.001, Workers: 1, MaxInflight: 2, MaxQueue: 2}, nil, nil)
	benches := []string{"gzip", "mcf", "gzip", "swim", "gzip", "mcf"}
	var wg sync.WaitGroup
	codes := make([]int, len(benches))
	for i, b := range benches {
		i, b := i, b
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := postCompare(s, fmt.Sprintf(`{"bench":%q,"t":2000}`, b))
			codes[i] = w.Code
		}()
	}
	wg.Wait()
	ok := 0
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests, http.StatusGatewayTimeout:
		default:
			t.Fatalf("request %d (%s): unexpected status %d", i, benches[i], c)
		}
	}
	if ok == 0 {
		t.Fatal("no request in the burst succeeded")
	}
}

// TestRetryAfterScalesWithBacklog pins the satellite-2 estimator: the
// Retry-After hint is backlog times mean compare duration over the
// parallel slots, ceiling-rounded and clamped to [1, 60]. The duration
// totals are seeded directly, so every row is deterministic.
func TestRetryAfterScalesWithBacklog(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxInflight: 2, MaxQueue: -1}, nil, nil)

	// No history, no backlog: the estimator reproduces the old fixed 1s.
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("idle hint = %d, want 1", got)
	}

	// Mean compare duration: 4 compares totalling 24s → 6s each.
	s.compareDurNS.Store(int64(24 * time.Second))
	s.compareDurCount.Store(4)

	// One occupied slot of two: 1 * 6s / 2 = 3s.
	s.inflight <- struct{}{}
	if got := s.retryAfterSeconds(); got != 3 {
		t.Fatalf("1-slot hint = %d, want 3", got)
	}
	// Second slot plus four queued waiters: 6 * 6s / 2 = 18s — the hint
	// grows with the backlog.
	s.inflight <- struct{}{}
	s.queued.Add(4)
	if got := s.retryAfterSeconds(); got != 18 {
		t.Fatalf("backlogged hint = %d, want 18", got)
	}
	// A huge backlog clamps at the 60s ceiling.
	s.queued.Add(100)
	if got := s.retryAfterSeconds(); got != 60 {
		t.Fatalf("clamped hint = %d, want 60", got)
	}
	// Sub-second estimates round up to the 1s floor.
	s.queued.Store(0)
	<-s.inflight
	<-s.inflight
	s.compareDurNS.Store(int64(10 * time.Millisecond))
	s.compareDurCount.Store(1)
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("floor hint = %d, want 1", got)
	}
}

// TestRetryAfterHeaderReflectsEstimate: the 429 path serves the live
// estimate, not a constant — with a seeded 30s mean and one busy slot
// the rejected caller is told to come back in 30 seconds.
func TestRetryAfterHeaderReflectsEstimate(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int64
	s := newTestServer(t, Config{Workers: 1, MaxInflight: 1, MaxQueue: -1}, gate, &calls)
	s.compareDurNS.Store(int64(30 * time.Second))
	s.compareDurCount.Store(1)

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- postCompare(s, `{"bench":"gzip","t":2000}`) }()
	waitFor(t, "leader to start executing", func() bool { return calls.Load() == 1 })

	w := postCompare(s, `{"bench":"mcf","t":2000}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "30" {
		t.Fatalf("Retry-After = %q, want \"30\" (1 busy slot x 30s mean)", got)
	}

	close(gate)
	if w := <-first; w.Code != http.StatusOK {
		t.Fatalf("admitted request failed: %d", w.Code)
	}
}

// TestRetryAfterColdStart pins the cold-start regression: a fresh
// server that has never completed a compare must still emit a
// Retry-After inside the documented [1, 60] interval on its very first
// 429 — not 0, and never a divide-by-zero even if the config reached
// the estimator with zero inflight slots.
func TestRetryAfterColdStart(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int64
	s := newTestServer(t, Config{Workers: 1, MaxInflight: 1, MaxQueue: -1}, gate, &calls)

	// First-ever request occupies the only slot; no duration history
	// exists yet.
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- postCompare(s, `{"bench":"gzip","t":2000}`) }()
	waitFor(t, "leader to start executing", func() bool { return calls.Load() == 1 })

	w := postCompare(s, `{"bench":"mcf","t":2000}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429", w.Code)
	}
	secs, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", w.Header().Get("Retry-After"), err)
	}
	if secs < 1 || secs > 60 {
		t.Fatalf("cold-start Retry-After = %d, want within [1, 60]", secs)
	}

	close(gate)
	if w := <-first; w.Code != http.StatusOK {
		t.Fatalf("admitted request failed: %d", w.Code)
	}

	// Degenerate config: an estimator reached with zero slots (defaults
	// bypassed) must clamp the divisor, not divide by zero.
	s.cfg.MaxInflight = 0
	if got := s.retryAfterSeconds(); got < 1 || got > 60 {
		t.Fatalf("zero-slot hint = %d, want within [1, 60]", got)
	}
}

// TestComparePredictorsE2E drives the real pipeline with a predictor
// selection: the response carries per-predictor tallies, the warm
// rerun is byte-identical at zero guest blocks, the mispredict
// counters reach /v1/metrics, and requests without predictors keep the
// legacy wire format.
func TestComparePredictorsE2E(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Scale: 0.001, Workers: 1, Cache: cache}, nil, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, []byte) {
		resp, err := http.Post(ts.URL+"/v1/compare", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, raw
	}

	if resp, raw := post(`{"bench":"gzip","t":2000,"predictors":["oracle"]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown predictor: %d %s, want 400", resp.StatusCode, raw)
	}

	const reqBody = `{"bench":"gzip","t":2000,"predictors":["2bit","gshare"]}`
	cold, coldBody := post(reqBody)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold compare: %d %s", cold.StatusCode, coldBody)
	}
	var resp compareResponse
	if err := json.Unmarshal(coldBody, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Predictors) != 2 || resp.Predictors[0].Predictor != "2bit" || resp.Predictors[1].Predictor != "gshare" {
		t.Fatalf("predictor tallies wrong: %+v", resp.Predictors)
	}
	for _, p := range resp.Predictors {
		if p.Branches == 0 {
			t.Fatalf("%s observed no branches: %+v", p.Predictor, p)
		}
		if want := float64(p.Mispredicts) / float64(p.Branches); p.MispredictRate != want {
			t.Fatalf("%s rate %v, want %v", p.Predictor, p.MispredictRate, want)
		}
	}

	warm, warmBody := post(reqBody)
	if got := warm.Header.Get("X-Inipd-Guest-Blocks"); got != "0" {
		t.Fatalf("warm predictor compare executed %s guest blocks, want 0", got)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatalf("warm predictor body differs from cold:\n%s\n%s", coldBody, warmBody)
	}

	// Warm compares still fold tallies into the exported totals: two
	// runs, so each predictor's branch counter is twice one run's.
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mraw)
	wantLine := fmt.Sprintf("inipd_predictor_branches_total{predictor=\"2bit\"} %d\n", 2*resp.Predictors[0].Branches)
	if !strings.Contains(metrics, wantLine) {
		t.Fatalf("metrics missing %q:\n%s", wantLine, metrics)
	}
	if !strings.Contains(metrics, `inipd_predictor_mispredict_rate{predictor="gshare"}`) {
		t.Fatalf("gshare rate gauge missing:\n%s", metrics)
	}

	// A request without predictors keeps the legacy wire format: no
	// predictors key at all, so existing clients see identical bytes.
	_, legacyBody := post(`{"bench":"gzip","t":2000}`)
	if bytes.Contains(legacyBody, []byte("predictors")) {
		t.Fatalf("legacy response leaked a predictors field:\n%s", legacyBody)
	}
}

// TestCompareSampledE2E drives the sampled-profiling wiring end to end:
// a compare with sample_period reports the sampled rerun and its cost
// ratio, replays byte-identically warm with zero guest blocks, feeds
// the sampled metrics — and a request without the field keeps the
// legacy wire format and the legacy metrics exposition untouched.
func TestCompareSampledE2E(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Scale: 0.001, Workers: 1, Cache: cache}, nil, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, []byte) {
		resp, err := http.Post(ts.URL+"/v1/compare", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, raw
	}

	const reqBody = `{"bench":"gzip","t":2000,"sample_period":16}`
	cold, coldBody := post(reqBody)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold compare: %d %s", cold.StatusCode, coldBody)
	}
	var resp compareResponse
	if err := json.Unmarshal(coldBody, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.SamplePeriod != 16 || resp.Sampled == nil {
		t.Fatalf("sampled fields missing: %+v", resp)
	}
	sw := resp.Sampled
	if sw.FullProfilingOps == 0 || sw.ProfilingOps >= sw.FullProfilingOps {
		t.Fatalf("sampled ops %d not below full ops %d", sw.ProfilingOps, sw.FullProfilingOps)
	}
	if want := float64(sw.ProfilingOps) / float64(sw.FullProfilingOps); sw.CostRatio != want {
		t.Fatalf("cost ratio %v, want %v", sw.CostRatio, want)
	}
	if sw.Summary.Blocks == 0 {
		t.Fatalf("sampled summary empty: %+v", sw)
	}

	warm, warmBody := post(reqBody)
	if got := warm.Header.Get("X-Inipd-Guest-Blocks"); got != "0" {
		t.Fatalf("warm sampled compare executed %s guest blocks, want 0", got)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatalf("warm sampled body differs from cold:\n%s\n%s", coldBody, warmBody)
	}

	// Warm compares still fold into the exported totals: two runs.
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mraw)
	if !strings.Contains(metrics, "inipd_compare_sampled_total 2\n") {
		t.Fatalf("metrics missing sampled compare counter:\n%s", metrics)
	}
	wantOps := fmt.Sprintf("inipd_sampled_profiling_ops_total %d\n", 2*sw.ProfilingOps)
	if !strings.Contains(metrics, wantOps) {
		t.Fatalf("metrics missing %q:\n%s", wantOps, metrics)
	}
	if !strings.Contains(metrics, "inipd_sampled_cost_ratio ") {
		t.Fatalf("cost ratio gauge missing:\n%s", metrics)
	}

	// A request without sample_period keeps the legacy wire format.
	_, legacyBody := post(`{"bench":"gzip","t":2000}`)
	if bytes.Contains(legacyBody, []byte("sample")) {
		t.Fatalf("legacy response leaked a sampled field:\n%s", legacyBody)
	}

	// A process that never ran sampled work keeps the legacy metrics
	// exposition byte-for-byte free of sampled families.
	plain := newTestServer(t, Config{Scale: 0.001, Workers: 1}, nil, nil)
	pts := httptest.NewServer(plain.Handler())
	defer pts.Close()
	presp, err := http.Get(pts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	praw, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if strings.Contains(string(praw), "sampled") {
		t.Fatalf("sampling-less exposition mentions sampled families:\n%s", praw)
	}
}

// TestCompareLearnedE2E drives the learned-model selection end to end:
// a compare with learned reports the strictly held-out evaluation
// (trained on every other suite benchmark), replays byte-identically
// warm with zero guest blocks, feeds the learned metrics — and a
// request without the field keeps the legacy wire format and the legacy
// metrics exposition untouched.
func TestCompareLearnedE2E(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Scale: 0.001, Workers: 1, Cache: cache}, nil, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, []byte) {
		resp, err := http.Post(ts.URL+"/v1/compare", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, raw
	}

	if resp, raw := post(`{"bench":"gzip","t":2000,"learned":"oracle"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown learned model: %d %s, want 400", resp.StatusCode, raw)
	}

	const reqBody = `{"bench":"gzip","t":2000,"learned":"logreg"}`
	cold, coldBody := post(reqBody)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold compare: %d %s", cold.StatusCode, coldBody)
	}
	var resp compareResponse
	if err := json.Unmarshal(coldBody, &resp); err != nil {
		t.Fatal(err)
	}
	lw := resp.Learned
	if lw == nil {
		t.Fatalf("learned field missing: %s", coldBody)
	}
	if lw.Branches == 0 {
		t.Fatalf("learned eval saw no branches: %+v", lw)
	}
	if want := float64(lw.Mispredicts) / float64(lw.Branches); lw.MispredictRate != want {
		t.Fatalf("learned rate %v, want %v", lw.MispredictRate, want)
	}
	if want := len(spec.Suite()) - 1; lw.TrainBenchmarks != want {
		t.Fatalf("trained on %d benchmarks, want %d (held-out fold)", lw.TrainBenchmarks, want)
	}
	if !strings.HasPrefix(lw.Fingerprint, "learned-") {
		t.Fatalf("fingerprint %q", lw.Fingerprint)
	}

	warm, warmBody := post(reqBody)
	if got := warm.Header.Get("X-Inipd-Guest-Blocks"); got != "0" {
		t.Fatalf("warm learned compare executed %s guest blocks, want 0", got)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatalf("warm learned body differs from cold:\n%s\n%s", coldBody, warmBody)
	}

	// Warm compares still fold into the exported totals: two runs.
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mraw)
	if !strings.Contains(metrics, "inipd_learned_compares_total 2\n") {
		t.Fatalf("metrics missing learned compare counter:\n%s", metrics)
	}
	wantBranches := fmt.Sprintf("inipd_learned_branches_total %d\n", 2*lw.Branches)
	if !strings.Contains(metrics, wantBranches) {
		t.Fatalf("metrics missing %q:\n%s", wantBranches, metrics)
	}
	if !strings.Contains(metrics, "inipd_learned_mispredict_rate ") {
		t.Fatalf("learned rate gauge missing:\n%s", metrics)
	}

	// A request without learned keeps the legacy wire format.
	_, legacyBody := post(`{"bench":"gzip","t":2000}`)
	if bytes.Contains(legacyBody, []byte("learned")) {
		t.Fatalf("legacy response leaked a learned field:\n%s", legacyBody)
	}

	// A process that never ran learned work keeps the legacy metrics
	// exposition byte-for-byte free of learned families.
	plain := newTestServer(t, Config{Scale: 0.001, Workers: 1}, nil, nil)
	pts := httptest.NewServer(plain.Handler())
	defer pts.Close()
	presp, err := http.Get(pts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	praw, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if strings.Contains(string(praw), "learned") {
		t.Fatalf("learned-less exposition mentions learned families:\n%s", praw)
	}
}
