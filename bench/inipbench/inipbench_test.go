package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileMedianQuartiles(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := median(ten); !near(got, 5.5) {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(ten, 90); !near(got, 9.1) {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	// Reference values from Python's statistics.quantiles(values, n=4).
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{ten, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := relSpread(ten); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("relSpread = %v", got)
	}
	if ten[0] != 10 {
		t.Error("helpers reordered the caller's slice")
	}
}

// A tail percentile is trustworthy with ten samples beyond it: p90 of
// 100 samples has exactly ten, p99 only one.
func TestTailSupport(t *testing.T) {
	var vs []float64
	for i := 1; i <= 100; i++ {
		vs = append(vs, float64(i))
	}
	if n := beyond(vs, percentile(vs, 90)); n != 10 {
		t.Errorf("p90 of 100 samples has %d beyond, want 10", n)
	}
	if n := beyond(vs, percentile(vs, 99)); n != 1 {
		t.Errorf("p99 of 100 samples has %d beyond, want 1", n)
	}
}

func TestRequestStreamsAreSeeded(t *testing.T) {
	keys := keySpace()
	seen := map[compareKey]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	if len(keys) != 104 || len(seen) != 104 {
		t.Fatalf("key space has %d keys (%d distinct), want 104", len(keys), len(seen))
	}
	a, b, c := coldOrders(1), coldOrders(1), coldOrders(2)
	first := a()
	if !reflect.DeepEqual(first, b()) || reflect.DeepEqual(first, c()) {
		t.Error("cold orders are not a function of the seed")
	}
	if second := a(); !reflect.DeepEqual(second, b()) || reflect.DeepEqual(second, first) {
		t.Error("successive cold orders do not differ, or differ between equal seeds")
	}
	pop := popularity()
	wa, wb, wc := warmRequests(1, pop), warmRequests(1, pop), warmRequests(2, pop)
	seg := wa()
	if !reflect.DeepEqual(seg, wb()) || reflect.DeepEqual(seg, wc()) {
		t.Error("warm requests are not a function of the seed")
	}
	next := wa()
	if !reflect.DeepEqual(next, wb()) || reflect.DeepEqual(next, seg) {
		t.Error("successive warm segments do not differ, or differ between equal seeds")
	}
	// Every segment sends the same mix, in its own order.
	count := func(ks []compareKey) map[compareKey]int {
		m := map[compareKey]int{}
		for _, k := range ks {
			m[k]++
		}
		return m
	}
	if len(seg) != warmSegmentRequests || !reflect.DeepEqual(count(seg), count(next)) || !reflect.DeepEqual(count(seg), count(wc())) {
		t.Error("warm segments differ in their mix of keys")
	}
	// The mix follows the Zipf law: counts fall with rank, and rank 0
	// gets (1+r)^1.1 times the share of rank r, to within rounding.
	mix := warmMix(warmSegmentRequests, len(pop))
	if mix[0] != count(seg)[pop[0]] {
		t.Errorf("rank 0 sent %d times, mix says %d", count(seg)[pop[0]], mix[0])
	}
	for r := 1; r < len(mix); r++ {
		if mix[r] > mix[r-1] {
			t.Errorf("rank %d gets %d requests, more than rank %d's %d", r, mix[r], r-1, mix[r-1])
		}
	}
	if got, want := float64(mix[0])/float64(mix[9]), math.Pow(10, 1.1); math.Abs(got-want) > 0.15*want {
		t.Errorf("rank 0 gets %.2f times rank 9's requests, want %.2f", got, want)
	}
	hot := map[string]bool{}
	for _, k := range pop[:26] {
		hot[k.bench] = true
	}
	if len(pop) != 104 || len(hot) != 26 {
		t.Errorf("the 26 hottest keys cover %d benchmarks, want every one", len(hot))
	}
}

// benchmarkJSON mirrors BENCHMARK.json, field for field.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
	}

	if len(b.Command) == 0 || len(b.Command) > 32 || b.Command[0] != "bash" {
		t.Errorf("command %q", b.Command)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths %q", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", n, len(workloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (%q)", i, w.Name, w.Why)
		}
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", n, len(endToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %d: %q %q, code has %q %q", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: better %q bound %v", m.Name, m.Better, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range b.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%q has %v)", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	if n := len(b.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", n, len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d: %q %q, code has %q %q", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer metric %q: better %q", m.Name, m.Better)
		}
	}
}

// TestSmoke runs every workload once at a tiny scale and checks the
// result line its callers parse. A traced run alternates untraced and
// traced segments, so it runs every op path; one suite and one compare
// workload also run untraced, for the end-to-end result.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if !traced && w.name != "suite_cold" && w.name != "compare_warm" {
				continue
			}
			w, traced := w, traced
			t.Run(fmt.Sprintf("%s/traced=%t", w.name, traced), func(t *testing.T) {
				t.Parallel()
				smoke(t, w, traced)
			})
		}
	}
}

func smoke(t *testing.T, w *workload, traced bool) {
	var out, errs bytes.Buffer
	r := &run{workload: w, seed: 3, seconds: time.Millisecond, traced: traced, scale: 0.001,
		work: t.TempDir(), stdout: &out, stderr: &errs}
	res, err := execute(r)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%+v\n%s", res, errs.String())
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, def := range want {
		m, ok := res.Metrics[def.name]
		if !ok || m.Unit != def.unit || math.IsNaN(m.Value) {
			t.Errorf("metric %s = %+v", def.name, m)
		}
		if !traced && m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", def.name, m.Value)
		}
	}
	// Every metric line names the workload, the metric, its value, its
	// unit and its sample count.
	sc := bufio.NewScanner(&out)
	lines := 0
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 5 && strings.HasPrefix(f[4], "n=") {
			lines++
		}
	}
	if lines != len(want)+1 { // the metrics plus error_frac
		t.Errorf("%d metric lines, want %d\n%s", lines, len(want)+1, out.String())
	}
	if traced && len(r.spans.spans) == 0 {
		t.Error("traced run recorded no spans")
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	// The host drifts by up to a third across runs, but each pair runs on
	// one host state: a paired change shows through the drift.
	drifting := []float64{100, 130, 90, 120, 105, 95, 133, 110, 100, 125}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"faster", base, scaled(base, 0.8), true, "better"},
		{"slower", base, scaled(base, 1.2), true, "worse"},
		{"within bound", base, scaled(base, 1.05), true, "same"},
		{"identical", base, base, true, "same"},
		{"more throughput", base, scaled(base, 1.2), false, "better"},
		{"noisy change", base, noisy, true, "unresolved"},
		{"noisy but every run better", noisy, scaled(base, 0.5), true, "better"},
		{"same code on a drifting host", drifting, scaled(drifting, 1.01), true, "same"},
		{"slower on a drifting host", drifting, scaled(drifting, 1.15), true, "worse"},
		// A gain must also exceed the parent's own spread, drift and all.
		{"faster on a drifting host", drifting, scaled(drifting, 0.85), true, "same"},
	} {
		if got := verdict(c.a, c.b, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// A paired set pairs runs by seed across sides, whatever order they ran
// in, and its drift is that of the pair probe ratios.
func TestPairs(t *testing.T) {
	res := &result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"op_norm_ms": {Value: 1, Unit: "ms"}}}
	s := set{Binaries: []string{"a", "b"}}
	for i, side := range []int{0, 1, 1, 0, 0} {
		s.Runs = append(s.Runs, setRun{Workload: "suite_cold", Seed: int64(1 + i/2), Side: side,
			HostProbeMS: 40.0 + float64(i), Result: res})
	}
	ps := s.pairs("suite_cold")
	if len(ps) != 2 || ps[0][0].Seed != 1 || ps[1][0].Seed != 2 || ps[0][0].Side != 0 || ps[1][1].Side != 1 {
		t.Fatalf("pairs = %+v", ps)
	}
	// Pair 1 reads 41/40, pair 2 reads 42/43: one above 1 and one below.
	if d := s.drift(); d <= 0 || d > 0.1 {
		t.Errorf("drift = %v", d)
	}
}

// A set reads each child's result line, figure hash and median host
// probe reading from its output.
func TestParseChild(t *testing.T) {
	out := []byte("suite_cold legacy_figures_sha256 abc\n" +
		"suite_cold host_probe_ms n=3 min=10 q1=11 median=12.5 q3=13 max=14\n" +
		`{"correct":true,"attempted":2,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}` + "\n")
	res, hash, probe := parseChild(out)
	if res == nil || !res.Correct || res.Attempted != 2 || hash != "abc" || probe != 12.5 {
		t.Errorf("parseChild = %+v, %q, %v", res, hash, probe)
	}
	if res, _, _ := parseChild([]byte("no result\n")); res != nil {
		t.Errorf("parseChild of a failed run = %+v", res)
	}
}

// Normalized times scale with the host probe to the power hostExponent:
// a segment the host ran slower by that much, its probe reading doubled,
// reads the same as one at the reference reading, which reads as
// measured. A segment's op time is the mean of its ops.
func TestNormalize(t *testing.T) {
	f := math.Pow(2, hostExponent)
	fast := &segment{wall: 100 * time.Millisecond, ops: []float64{10, 20, 60}, host: refProbeMS}
	slow := &segment{wall: time.Duration(f * float64(100*time.Millisecond)), ops: []float64{10 * f, 20 * f, 60 * f}, host: 2 * refProbeMS}
	// The slow wall time is rounded to the nanosecond.
	if !near(fast.normOp(), 30) || !near(slow.normOp(), 30) || math.Abs(slow.normPerOp()/fast.normPerOp()-1) > 1e-6 {
		t.Errorf("normOp %v, %v; normPerOp %v, %v", fast.normOp(), slow.normOp(), fast.normPerOp(), slow.normPerOp())
	}
}

// The sampler reads the probe while a step runs; a step too short to
// hold a reading gets one right after it; stop is idempotent.
func TestHostSampler(t *testing.T) {
	s := startHostSampler()
	t0 := time.Now()
	time.Sleep(5 * hostSampleEvery)
	t1 := time.Now()
	s.stop()
	s.stop()
	n := len(s.all())
	if n < 2 {
		t.Fatalf("%d readings over %v", n, t1.Sub(t0))
	}
	if v := s.over(t0, t1); !(v > 0) || math.IsInf(v, 0) {
		t.Errorf("mean reading %v", v)
	}
	if v := s.over(t1, t1); !(v > 0) || len(s.all()) != n+1 {
		t.Errorf("a step with no reading got %v and %d readings", v, len(s.all())-n)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-workload", "nope"},
		{"-workload", "suite_cold", "-trace", "2"},
		{"-workload", "suite_cold", "-seconds", "0"},
		{"-compare", "a.json", "b.json"},
		{"-workload", "suite_cold", "extra"},
		{"-out", "s.json", "a", "b", "c"},
	} {
		var out, errs bytes.Buffer
		if code := cli(args, &out, &errs); code != 2 || out.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q", args, code, out.String())
		}
	}
}
