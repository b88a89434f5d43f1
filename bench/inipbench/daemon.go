package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/serve"
	"repro/internal/spec"
)

// compareKey is one point of the compare key space.
type compareKey struct {
	bench string
	t     float64
}

// compareThresholds are the paper-unit thresholds the compare workloads
// request: the part of the paper's ladder where INIP(T) accuracy moves
// most, plus one high threshold.
var compareThresholds = []float64{500, 2000, 1e4, 1e5}

// keySpace is every benchmark at every compare threshold, in suite
// order: 104 keys.
func keySpace() []compareKey {
	var keys []compareKey
	for _, b := range spec.Suite() {
		for _, t := range compareThresholds {
			keys = append(keys, compareKey{b.Name, t})
		}
	}
	return keys
}

// rngFor derives the random stream of one purpose of a run from its
// seed, so each generated sequence depends on the seed alone.
func rngFor(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// coldOrders returns the seeded orders in which a run requests the
// whole key space, a fresh shuffle on each call. Every set-up step takes
// the first; every compare_cold pass takes the next. The two clients
// take keys from one queue, so an order fixes which cold compares run
// side by side; over a run's many orders that mix, and with it the
// workload's cost, evens out whatever the seed.
func coldOrders(seed int64) func() []compareKey {
	rng := rngFor(seed, 1000)
	return func() []compareKey {
		keys := keySpace()
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		return keys
	}
}

// warmMix is how many of n requests go to each of ranks popularity
// ranks under a Zipf(1.1) law, rank r in proportion to (1+r)^-1.1, the
// shares rounded by largest remainder so that they sum to n. Every
// compare_warm segment sends exactly this mix. Warm compares differ in
// cost from key to key, so when each request was drawn at random, each
// segment's mix decided which key's cost sat at its median latency, and
// run medians spread by an eighth.
func warmMix(n, ranks int) []int {
	shares := make([]float64, ranks)
	total := 0.0
	for r := range shares {
		shares[r] = math.Pow(1+float64(r), -1.1)
		total += shares[r]
	}
	counts := make([]int, ranks)
	byRemainder := make([]int, ranks)
	left := n
	for r := range shares {
		shares[r] *= float64(n) / total
		counts[r] = int(shares[r])
		left -= counts[r]
		byRemainder[r] = r
	}
	sort.SliceStable(byRemainder, func(i, j int) bool {
		a, b := byRemainder[i], byRemainder[j]
		return shares[a]-float64(counts[a]) > shares[b]-float64(counts[b])
	})
	for _, r := range byRemainder[:left] {
		counts[r]++
	}
	return counts
}

// warmRequests returns compare_warm's segments, one per call: the
// warmMix of warmSegmentRequests over the popularity-ranked keys, in an
// order the seed shuffles afresh for every segment.
func warmRequests(seed int64, keys []compareKey) func() []compareKey {
	var mix []compareKey
	for r, n := range warmMix(warmSegmentRequests, len(keys)) {
		for i := 0; i < n; i++ {
			mix = append(mix, keys[r])
		}
	}
	rng := rngFor(seed, 1)
	return func() []compareKey {
		out := slices.Clone(mix)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
}

// popularity maps ranks to keys, the same for every seed: rank r is
// benchmark r mod 26 at the (r div 26)-th threshold, so the hottest 26
// keys cover every benchmark once. Warm compares of perlbmk cost twenty
// times those of any other benchmark; a seeded map would let the seed
// decide how hot they run, and with it the workload's cost.
func popularity() []compareKey {
	keys := keySpace()
	n := len(compareThresholds)
	benches := len(keys) / n
	out := make([]compareKey, len(keys))
	for r := range out {
		out[r] = keys[(r%benches)*n+r/benches]
	}
	return out
}

// daemon is one in-process serve.Server behind a loopback listener,
// with one HTTP client whose connections the load clients share.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
	rec    *obs.Recorder
	events bytes.Buffer
}

// startDaemon serves a fresh server over store until it is ready.
// traced attaches an obs recorder to it.
func startDaemon(store *resultcache.Store, scale float64, traced bool) (*daemon, error) {
	d := &daemon{served: make(chan error, 1)}
	cfg := serve.Config{Scale: scale, Workers: parallelism, Cache: store}
	if traced {
		d.rec = obs.NewRecorder(&d.events)
		cfg.Trace = d.rec
	}
	srv, err := serve.New(cfg)
	if err != nil {
		d.rec.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.rec.Close()
		return nil, err
	}
	d.srv = srv
	d.hs = &http.Server{Handler: srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.url = "http://" + ln.Addr().String()
	d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	resp, err := d.client.Get(d.url + "/readyz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("daemon not ready: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the daemon down and returns its recorder's events.
func (d *daemon) stop() ([]obs.Event, error) {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := d.srv.Drain(30 * time.Second); err == nil {
		err = derr
	}
	if _, cerr := d.rec.Close(); err == nil {
		err = cerr
	}
	if err != nil || d.rec == nil {
		return nil, err
	}
	return obs.ReadEvents(&d.events)
}

// reply is one answered compare request.
type reply struct {
	key    compareKey
	status int // 0 when the request failed in transport
	cache  string
	body   []byte
	start  time.Time
	dur    time.Duration
}

// verify returns what is wrong with an answer: its status, its cache
// temperature, or, against a non-nil reference, its body. It returns ""
// for a right answer.
func verify(rep reply, wantCache string, ref []byte) string {
	switch {
	case rep.status != http.StatusOK:
		return fmt.Sprintf("status %d", rep.status)
	case rep.cache != wantCache:
		return fmt.Sprintf("X-Inipd-Cache %q, want %q", rep.cache, wantCache)
	case ref != nil && !bytes.Equal(rep.body, ref):
		return "body differs from its first cold answer"
	}
	return ""
}

func (d *daemon) compare(k compareKey) reply {
	req, _ := json.Marshal(map[string]any{"bench": k.bench, "t": k.t})
	rep := reply{key: k, start: time.Now()}
	resp, err := d.client.Post(d.url+"/v1/compare", "application/json", bytes.NewReader(req))
	if err == nil {
		rep.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			rep.status = resp.StatusCode
			rep.cache = resp.Header.Get("X-Inipd-Cache")
		}
	}
	rep.dur = time.Since(rep.start)
	return rep
}

// counters scrapes the unlabelled samples of /v1/metrics.
func (d *daemon) counters() (map[string]float64, error) {
	resp, err := d.client.Get(d.url + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// requestAll requests every key of keys in turn, both clients in a
// closed loop taking the next key from one queue: the set-up step of
// both compare workloads and every segment of their windows.
func (d *daemon) requestAll(keys []compareKey) []reply {
	queue := make(chan compareKey, len(keys))
	for _, k := range keys {
		queue <- k
	}
	close(queue)
	out := make([][]reply, clients)
	var wg sync.WaitGroup
	for c := range out {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := range queue {
				out[c] = append(out[c], d.compare(k))
			}
		}(c)
	}
	wg.Wait()
	return merge(out)
}

// merge concatenates the clients' replies.
func merge(out [][]reply) []reply {
	var all []reply
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// checkCold gates one cold answer: a 200 whose X-Inipd-Cache header is
// wantCache ("miss" from a server with a result cache, "off" from one
// without) and, when the key was answered before, the same body. The
// first right answer for a key becomes its reference body.
func (r *run) checkCold(rep reply, bodies map[compareKey][]byte, wantCache string) bool {
	ref, seen := bodies[rep.key]
	wrong := verify(rep, wantCache, ref)
	if wrong == "" && !seen {
		bodies[rep.key] = rep.body
	}
	return r.gate(wrong == "", "%v: %s", rep.key, wrong)
}

// serveTally accumulates the daemon's own accounting across servers.
type serveTally struct {
	requests, coalesced, overload float64
}

func (t *serveTally) add(d *daemon) error {
	c, err := d.counters()
	if err != nil {
		return err
	}
	t.requests += c["inipd_compare_requests_total"]
	t.coalesced += c["inipd_compare_coalesced_total"]
	t.overload += c["inipd_compare_overload_total"]
	return nil
}

// traceServer records a traced server's interval, its requests and its
// recorder events as spans.
func (r *run) traceServer(name string, start, end time.Time, reps []reply, evs []obs.Event, recStart time.Time) {
	id := r.spans.add(0, name, "", start, end)
	for _, rep := range reps {
		r.spans.add(id, "serve.compare", rep.key.bench, rep.start, rep.start.Add(rep.dur))
	}
	r.spans.addEvents(id, recStart, evs)
}

// warmSegmentRequests sizes compare_warm's segments: about a second's
// work on the host the benchmark was defined on, so that a run holds a
// dozen or more segments.
const warmSegmentRequests = 400

// onServer runs load on a fresh server over store as the next segment
// of the measured window, adding the server's counters to tally. It
// returns the segment and the server's recorder events, if traced.
func (r *run) onServer(store *resultcache.Store, name string, tally *serveTally, load func(*daemon) []reply) (*segment, []obs.Event, error) {
	tr := r.nextTraced()
	d, err := startDaemon(store, r.scale, tr)
	if err != nil {
		return nil, nil, err
	}
	var reps []reply
	start := time.Now()
	seg := r.measure(tr, func() { reps = load(d) })
	terr := tally.add(d)
	evs, err := d.stop()
	if err == nil {
		err = terr
	}
	if err != nil {
		return nil, nil, err
	}
	if tr {
		r.traceServer(name, start, start.Add(seg.wall), reps, evs, d.rec.Start())
	}
	return seg, evs, nil
}

// compareSetup is the set-up step of both compare workloads, run
// setupReps times: a fresh server answers the whole key space, both
// clients taking keys from one queue. For compare_warm (cached) each
// server fills a fresh result cache, the workload's write side; for
// compare_cold it runs without one, as that workload's servers do. Every
// answer must be cold, and the first answer for each key becomes the
// reference body every later answer must equal. It returns the last
// cache, if any, and the recorder events of a traced set-up.
func (r *run) compareSetup(bodies map[compareKey][]byte, cached bool) (*resultcache.Store, []obs.Event, error) {
	var store *resultcache.Store
	var events []obs.Event
	order := coldOrders(r.seed)()
	for i := 0; i < setupReps; i++ {
		var s *resultcache.Store
		var err error
		if cached {
			if s, err = r.freshStore(); err != nil {
				return nil, nil, err
			}
		}
		var d *daemon
		var reps []reply
		r.setupTimed(func() {
			if d, err = startDaemon(s, r.scale, r.traced); err == nil {
				reps = d.requestAll(order)
			}
		})
		if err != nil {
			return nil, nil, err
		}
		evs, err := d.stop()
		if err != nil {
			return nil, nil, err
		}
		events = append(events, evs...)
		ok := true
		for _, rep := range reps {
			ok = r.checkCold(rep, bodies, coldHeader(cached)) && ok
		}
		r.check(ok, "set-up %d failed its gates", i)
		if store != nil {
			if err := os.RemoveAll(store.Dir()); err != nil {
				return nil, nil, err
			}
		}
		store = s
	}
	return store, events, nil
}

// coldHeader is the X-Inipd-Cache header of a cold answer from a server
// with or without a result cache.
func coldHeader(cached bool) string {
	if cached {
		return "miss"
	}
	return "off"
}

// runCompareCold is compare_cold: passes over the key space, each in a
// fresh order on a fresh server without a result cache, as the daemon
// runs by default, so every op is a cold compare that runs the guest.
// Both clients take keys from one queue, so two compares are in flight
// at once and share the daemon's one worker. Without a cache no answer
// waits on a synced disk write, whose latency on a shared host drifts
// with no relation to the code; cache writes are timed in compare_warm's
// and suite_warm's set-up.
func runCompareCold(r *run) error {
	bodies := map[compareKey][]byte{}
	if _, _, err := r.compareSetup(bodies, false); err != nil {
		return err
	}
	orders := coldOrders(r.seed)
	var evs []obs.Event
	var wall time.Duration
	var tally serveTally
	tracedPasses := 0
	for !r.windowDone() {
		var reps []reply
		seg, passEvents, err := r.onServer(nil, "pass", &tally, func(d *daemon) []reply {
			reps = d.requestAll(orders())
			return reps
		})
		if err != nil {
			return err
		}
		for _, rep := range reps {
			r.opDone(seg, rep.dur, r.checkCold(rep, bodies, coldHeader(false)))
		}
		if seg.traced {
			evs = append(evs, passEvents...)
			wall += seg.wall
			tracedPasses++
		}
	}
	if !r.traced {
		return nil
	}
	r.eventLayers(evs, nil, float64(tracedPasses), wall)
	r.serveLayers(tally)
	r.layers["serve.cold_p90_ms"] = percentile(r.allOps(), 90)
	return r.probe(r.comparePlan(true))
}

// runCompareWarm is compare_warm: after the set-up has filled the
// result cache, both clients request popularity-ranked keys from it, so
// every op is a warm compare. Each segment of the window is the next
// batch of warmRequests, on a fresh server over the same cache.
func runCompareWarm(r *run) error {
	bodies := map[compareKey][]byte{}
	store, setupEvents, err := r.compareSetup(bodies, true)
	if err != nil {
		return err
	}
	keys := popularity()
	requests := warmRequests(r.seed, keys)
	var evs []obs.Event
	var wall time.Duration
	var tally serveTally
	tracedOps := 0
	for !r.windowDone() {
		var reps []reply
		seg, segEvents, err := r.onServer(store, "segment", &tally, func(d *daemon) []reply {
			reps = d.requestAll(requests())
			return reps
		})
		if err != nil {
			return err
		}
		for _, rep := range reps {
			wrong := verify(rep, "hit", bodies[rep.key])
			r.opDone(seg, rep.dur, r.gate(wrong == "", "%v: %s", rep.key, wrong))
		}
		if seg.traced {
			evs = append(evs, segEvents...)
			wall += seg.wall
			tracedOps += len(reps)
		}
	}
	if !r.traced {
		return nil
	}
	r.eventLayers(evs, setupEvents, float64(tracedOps)/float64(len(keys)), wall)
	if err := r.storeLayers(store); err != nil {
		return err
	}
	r.serveLayers(tally)
	r.layers["serve.warm_p99_idle_ms"] = percentile(r.allOps(), 99)
	return r.probe(r.comparePlan(false))
}

// serveLayers records the daemon's coalescing and overload shares.
func (r *run) serveLayers(t serveTally) {
	if t.requests > 0 {
		r.layers["serve.coalesced_frac"] = t.coalesced / t.requests
		r.layers["serve.overload_frac"] = t.overload / t.requests
	}
}
