package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// setRun is one child run of a set.
type setRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Side indexes the set's binaries: 0 is a, the parent; 1 is b, the
	// change.
	Side int `json:"side"`
	// HostProbeMS is the median of the run's host probe readings.
	HostProbeMS  float64 `json:"host_probe_ms"`
	Exit         int     `json:"exit"`
	LegacySHA256 string  `json:"legacy_figures_sha256,omitempty"`
	Result       *result `json:"result"`
}

// set is the -out file: every run of a set plus the host it ran on.
type set struct {
	Host       string   `json:"host"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Go         string   `json:"go"`
	Seconds    float64  `json:"seconds"`
	Trace      int      `json:"trace"`
	Binaries   []string `json:"binaries"`
	// HostDrift is how much the host-speed probe moved where it matters:
	// across a one-binary set, the spread (interquartile distance over
	// median) of the runs' median readings; across a paired set, the
	// spread of the ratio of the two runs' median readings in each pair.
	// HostUnstable flags a drift above a tenth: the host then changed
	// speed so much that the normalized times lean hard on the probe. It
	// is a warning, not a gate: a paired set of one binary against itself
	// drifted by 0.117, and still every op time's pair ratios spread by
	// at most 0.038.
	HostDrift    float64  `json:"host_drift"`
	HostUnstable bool     `json:"host_unstable"`
	Correct      bool     `json:"correct"`
	Runs         []setRun `json:"runs"`
}

// maxHostDrift is the probe drift beyond which a set is host_unstable.
const maxHostDrift = 0.10

// runSet runs every workload runs times per binary, each run in a child
// process, and writes the set to path. Workloads go round-robin, so
// that slow phases of the host spread over all of them. Two binaries
// run in pairs on the same seed, back to back, in alternating order (a
// b, b a, a b, ...), so that what drift the host-normalization leaves
// falls within pairs as little as it can and evenly on both sides.
func runSet(path string, bins []string, seed int64, runs int, seconds float64, traced bool, stdout, stderr io.Writer) int {
	if len(bins) == 0 {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(stderr, "inipbench: %v\n", err)
			return 1
		}
		bins = []string{exe}
	}
	host, _ := os.Hostname()
	s := set{Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Seconds: seconds, Binaries: bins, Correct: true}
	if traced {
		s.Trace = 1
	}
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			for k := range bins {
				side := k
				if i%2 == 1 {
					side = len(bins) - 1 - k
				}
				sr := setRun{Workload: w.name, Seed: seed + int64(i), Side: side}
				cmd := exec.Command(bins[side], "-workload", w.name, "-seed", strconv.FormatInt(sr.Seed, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(s.Trace))
				cmd.Stderr = stderr
				out, err := cmd.Output()
				stdout.Write(out)
				var exit *exec.ExitError
				switch {
				case errors.As(err, &exit):
					sr.Exit = exit.ExitCode()
				case err != nil:
					fmt.Fprintf(stderr, "inipbench: %v\n", err)
					return 1
				}
				sr.Result, sr.LegacySHA256, sr.HostProbeMS = parseChild(out)
				if sr.Exit != 0 || sr.Result == nil || !sr.Result.Correct {
					s.Correct = false
				}
				s.Runs = append(s.Runs, sr)
			}
		}
	}
	s.HostDrift = s.drift()
	s.HostUnstable = s.HostDrift > maxHostDrift
	// Every suite workload draws the paper's figures; they must agree
	// byte for byte across workloads, seeds and binaries.
	hashes := map[string]bool{}
	for _, sr := range s.Runs {
		if sr.LegacySHA256 != "" {
			hashes[sr.LegacySHA256] = true
		}
	}
	if len(hashes) > 1 {
		fmt.Fprintf(stderr, "inipbench: gate failed: the suite workloads drew %d different versions of the paper's figures\n", len(hashes))
		s.Correct = false
	}
	data, err := json.MarshalIndent(s, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "inipbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "set %s: host=%s nproc=%d gomaxprocs=%d binaries=%d host_drift=%.3f host_unstable=%t correct=%t\n",
		path, s.Host, s.NProc, s.GOMAXPROCS, len(bins), s.HostDrift, s.HostUnstable, s.Correct)
	s.summarize(stdout)
	if !s.Correct {
		return 1
	}
	return 0
}

// drift is the set's HostDrift.
func (s *set) drift() float64 {
	if len(s.Binaries) == 1 {
		var probes []float64
		for _, sr := range s.Runs {
			probes = append(probes, sr.HostProbeMS)
		}
		return relSpread(probes)
	}
	var ratios []float64
	for _, w := range workloads {
		for _, p := range s.pairs(w.name) {
			ratios = append(ratios, p[1].HostProbeMS/p[0].HostProbeMS)
		}
	}
	return relSpread(ratios)
}

// parseChild extracts from a child's output its result (the last line),
// the hash of the paper's figures it reported, if any, and the median
// of its host probe readings.
func parseChild(out []byte) (res *result, hash string, probe float64) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		switch {
		case len(f) == 3 && f[1] == "legacy_figures_sha256":
			hash = f[2]
		case len(f) > 2 && f[1] == "host_probe_ms":
			for _, kv := range f[2:] {
				if v, ok := strings.CutPrefix(kv, "median="); ok {
					probe, _ = strconv.ParseFloat(v, 64)
				}
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	res = &result{}
	if json.Unmarshal([]byte(last), res) != nil {
		res = nil
	}
	return res, hash, probe
}

// values collects one metric of one workload from one side's runs, in
// seed order.
func (s *set) values(side int, workload, metric string) []float64 {
	var rs []setRun
	for _, sr := range s.Runs {
		if sr.Side == side && sr.Workload == workload && sr.Result != nil {
			if _, ok := sr.Result.Metrics[metric]; ok {
				rs = append(rs, sr)
			}
		}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	out := make([]float64, len(rs))
	for i, sr := range rs {
		out[i] = sr.Result.Metrics[metric].Value
	}
	return out
}

// pairs returns the runs of a workload that pair up across the two
// sides: one run of each on the same seed, both with a result. A seed
// that lacks either is dropped.
func (s *set) pairs(workload string) [][2]setRun {
	bySeed := map[int64]*[2]*setRun{}
	var seeds []int64
	for i := range s.Runs {
		sr := &s.Runs[i]
		if sr.Workload != workload || sr.Result == nil || sr.Side < 0 || sr.Side > 1 {
			continue
		}
		p := bySeed[sr.Seed]
		if p == nil {
			p = &[2]*setRun{}
			bySeed[sr.Seed] = p
			seeds = append(seeds, sr.Seed)
		}
		p[sr.Side] = sr
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	var out [][2]setRun
	for _, seed := range seeds {
		if p := bySeed[seed]; p[0] != nil && p[1] != nil {
			out = append(out, [2]setRun{*p[0], *p[1]})
		}
	}
	return out
}

// summarize prints each side × workload × metric of a set: median,
// quartiles, spread and run count.
func (s *set) summarize(w io.Writer) {
	defs := endToEnd
	if s.Trace == 1 {
		defs = perLayer
	}
	for side := range s.Binaries {
		for _, wl := range workloads {
			for _, def := range defs {
				vs := s.values(side, wl.name, def.name)
				if len(vs) == 0 {
					continue
				}
				q1, q3 := quartiles(vs)
				fmt.Fprintf(w, "summary %s %s %s median=%s q1=%s q3=%s spread=%.3f %s n=%d\n",
					string(rune('a'+side)), wl.name, def.name, formatValue(median(vs)), formatValue(q1), formatValue(q3), relSpread(vs), def.unit, len(vs))
			}
		}
	}
}

// benchDef is the part of BENCHMARK.json -compare reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareSides prints the verdict for every workload × end-to-end
// metric of a paired set: side a is the parent, side b the change. It
// exits 1 when a metric got worse or the set failed a correctness gate.
// A host_unstable set is reported but still judged: its times are
// host-normalized, and what drift the normalization leaves shows as
// spread in the pair ratios, which makes a verdict unresolved.
func compareSides(path, benchPath string, stdout, stderr io.Writer) int {
	var s set
	var def benchDef
	for _, l := range []struct {
		path string
		v    any
	}{{path, &s}, {benchPath, &def}} {
		if err := loadJSON(l.path, l.v); err != nil {
			fmt.Fprintf(stderr, "inipbench: %v\n", err)
			return 2
		}
	}
	if len(s.Binaries) != 2 || s.Trace != 0 {
		fmt.Fprintf(stderr, "inipbench: %s is not an untraced set of two binaries\n", path)
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "a=%s\nb=%s\nhost=%s gomaxprocs=%d host_drift=%.3f\n", s.Binaries[0], s.Binaries[1], s.Host, s.GOMAXPROCS, s.HostDrift)
	if s.HostUnstable {
		fmt.Fprintf(stdout, "%s is host_unstable: the host probe drifted by more than %.2f within pairs\n", path, maxHostDrift)
	}
	if !s.Correct {
		fmt.Fprintf(stdout, "%s failed its correctness gates\n", path)
		code = 1
	}
	fmt.Fprintf(stdout, "%-13s %-14s %10s %21s %10s %21s %7s %7s  %s\n",
		"workload", "metric", "a_median", "a_q1..q3", "b_median", "b_q1..q3", "b/a", "spread", "verdict")
	for _, wl := range workloads {
		ps := s.pairs(wl.name)
		for _, m := range def.EndToEnd {
			var a, b []float64
			for _, p := range ps {
				va, oka := p[0].Result.Metrics[m.Name]
				vb, okb := p[1].Result.Metrics[m.Name]
				if oka && okb {
					a, b = append(a, va.Value), append(b, vb.Value)
				}
			}
			if len(a) == 0 {
				continue
			}
			v := verdict(a, b, m.Better == "lower", m.Bound)
			if v == "worse" {
				code = 1
			}
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			rs := ratios(a, b)
			fmt.Fprintf(stdout, "%-13s %-14s %10.4g %10.4g..%-10.4g %10.4g %10.4g..%-10.4g %7.3f %7.3f  %s\n",
				wl.name, m.Name, median(a), a1, a3, median(b), b1, b3, median(rs), relSpread(rs), v)
		}
	}
	return code
}

// ratios divides each run of b by its pair in a.
func ratios(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = b[i] / a[i]
	}
	return out
}

// verdict judges the change's runs b against the parent's runs a under
// the metric's bound. a[i] and b[i] are a pair: one seed, run back to
// back, so that their ratio b[i]/a[i] holds what the change did and
// little of what the host did. Following the choosing-metrics rules:
//
//   - better: every run of b beats every run of a; or b wins at least
//     nine tenths of the pairs, ties counting for neither, and the two
//     medians differ by more than a's interquartile distance;
//   - unresolved: the pair ratios spread (interquartile distance over
//     median) wider than the bound, so no change cannot be told from
//     noise;
//   - worse: the median pair ratio is worse than 1 by more than the
//     bound;
//   - same: otherwise.
func verdict(a, b []float64, lowerBetter bool, bound float64) string {
	// gain is how much better x is than base, as a share of base.
	gain := func(base, x float64) float64 {
		if lowerBetter {
			return (base - x) / math.Abs(base)
		}
		return (x - base) / math.Abs(base)
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	if lowerBetter && sb[len(sb)-1] < sa[0] || !lowerBetter && sb[0] > sa[len(sa)-1] {
		return "better"
	}
	wins := 0
	for i := range a {
		if gain(a[i], b[i]) > 0 {
			wins++
		}
	}
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	if 10*wins >= 9*len(a) && gain(ma, mb) > 0 && math.Abs(mb-ma) > q3-q1 {
		return "better"
	}
	rs := ratios(a, b)
	if relSpread(rs) > bound {
		return "unresolved"
	}
	if -gain(1, median(rs)) > bound {
		return "worse"
	}
	return "same"
}
