// Package predict implements classic dynamic branch predictors over the
// DBT's replayed block trace. The paper ranks the initial profile
// INIP(T) only against AVEP and the training profile; this package adds
// the axis the branch-predictability literature uses: what would a
// hardware-style dynamic predictor achieve on the very same branch
// stream?
//
// Every predictor is a pure, deterministic state machine behind one
// method, Observe, that folds a batch of resolved conditional branches
// in architectural order: for each branch it predicts, counts a
// mispredict and trains, in one loop of its own with its history in
// locals. The Suite is itself the trace observer of the shared
// reference trace (dbt.RunMultiObserved), so the guest still executes
// exactly once and the predictor pass perturbs no profiling counter:
// mispredict counts are a pure function of the branch stream, identical
// across worker counts, follower counts and batch boundaries.
package predict

import (
	"fmt"
	"strings"

	"repro/internal/dbt"
)

// Predictor is one dynamic branch predictor. Observe predicts each
// branch of evs in order, counts it when the prediction misses, and
// trains on its actual direction before the next; the event's PC is the
// branch block's entry address. Implementations must be deterministic,
// and a stream split into batches anywhere must give the same count and
// state as the whole stream in one call.
type Predictor interface {
	// Name returns the registry name the predictor was created under.
	Name() string
	// Observe folds evs into the predictor and returns how many of them
	// it mispredicted.
	Observe(evs []dbt.BranchEvent) (mispredicts uint64)
}

// Names lists every registered predictor in canonical order; figure
// columns and cache keys follow it when the caller asks for "all".
func Names() []string {
	return []string{"taken", "nottaken", "1bit", "2bit", "gshare", "perceptron"}
}

// New returns a fresh predictor of the named kind.
func New(name string) (Predictor, error) {
	switch name {
	case "taken":
		return staticPredictor{name: "taken", dir: true}, nil
	case "nottaken":
		return staticPredictor{name: "nottaken", dir: false}, nil
	case "1bit":
		return &oneBit{}, nil
	case "2bit":
		return newTwoBit(), nil
	case "gshare":
		return newGShare(), nil
	case "perceptron":
		return newPerceptron(), nil
	}
	return nil, fmt.Errorf("predict: unknown predictor %q (have %s)", name, strings.Join(Names(), ", "))
}

// ParseList parses a comma-separated predictor selection. "all" (or
// "*") expands to every registered predictor in canonical order.
// Order is preserved, duplicates are rejected: the list is part of
// figure-column identity and cache keys.
func ParseList(s string) ([]string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	if s == "all" || s == "*" {
		return Names(), nil
	}
	var out []string
	seen := make(map[string]bool)
	for _, f := range strings.Split(s, ",") {
		name := strings.TrimSpace(f)
		if name == "" {
			return nil, fmt.Errorf("predict: empty predictor name in %q", s)
		}
		if _, err := New(name); err != nil {
			return nil, err
		}
		if seen[name] {
			return nil, fmt.Errorf("predict: predictor %q selected twice", name)
		}
		seen[name] = true
		out = append(out, name)
	}
	return out, nil
}

// Result is one predictor's accuracy over a branch stream.
type Result struct {
	Predictor   string `json:"predictor"`
	Branches    uint64 `json:"branches"`
	Mispredicts uint64 `json:"mispredicts"`
}

// MispredictRate is Mispredicts/Branches (0 on an empty stream).
func (r Result) MispredictRate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.Mispredicts) / float64(r.Branches)
}

// Suite drives a set of predictors over one branch stream and counts
// each one's mispredictions. It is a dbt.TraceObserver: each batch goes
// to every predictor in turn. Not safe for concurrent use: the stream
// is architectural order, which is inherently serial.
type Suite struct {
	preds []Predictor
	res   []Result
	one   [1]dbt.BranchEvent // Record's batch, kept here so it does not escape per call
}

// NewSuite builds one fresh predictor per name.
func NewSuite(names []string) (*Suite, error) {
	s := &Suite{
		preds: make([]Predictor, len(names)),
		res:   make([]Result, len(names)),
	}
	for i, name := range names {
		p, err := New(name)
		if err != nil {
			return nil, err
		}
		s.preds[i] = p
		s.res[i] = Result{Predictor: name}
	}
	return s, nil
}

// ObserveBranches implements dbt.TraceObserver: every predictor folds
// the whole batch before the next one starts. Predictors share no
// state, so the order across predictors does not matter.
func (s *Suite) ObserveBranches(evs []dbt.BranchEvent) {
	for i, p := range s.preds {
		s.res[i].Mispredicts += p.Observe(evs)
		s.res[i].Branches += uint64(len(evs))
	}
}

// Record feeds one resolved branch to every predictor: a one-event
// batch through ObserveBranches.
func (s *Suite) Record(pc int32, taken bool) {
	s.one[0] = dbt.BranchEvent{PC: pc, Taken: taken}
	s.ObserveBranches(s.one[:])
}

// Results returns a copy of the per-predictor tallies, in suite order.
func (s *Suite) Results() []Result {
	return append([]Result(nil), s.res...)
}

// bhtBits sizes the per-address tables: 4096 entries, indexed by the
// low bits of the block address. Aliasing between far-apart branches
// is part of the model, exactly as in hardware.
const (
	bhtBits = 12
	bhtSize = 1 << bhtBits
	bhtMask = bhtSize - 1
)

func bhtIndex(pc int32) int { return int(uint32(pc)) & bhtMask }

// b2u is 1 for true and 0 for false; the compiler turns it into a flag
// move, so the loops below count and step without a data-dependent
// branch.
func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// staticPredictor always predicts one direction (always-taken /
// always-not-taken). Its mispredict rate is the branch stream's
// direction bias, the baseline every dynamic scheme is measured
// against.
type staticPredictor struct {
	name string
	dir  bool
}

func (p staticPredictor) Name() string { return p.name }

// Observe counts the branches that went the other way.
func (p staticPredictor) Observe(evs []dbt.BranchEvent) uint64 {
	var mis uint64
	for _, ev := range evs {
		mis += uint64(b2u(ev.Taken != p.dir))
	}
	return mis
}

// oneBit is the 1-bit last-direction scheme: each table entry predicts
// whatever its branch last did. Entries start not-taken.
type oneBit struct {
	table [bhtSize]bool
}

func (p *oneBit) Name() string { return "1bit" }

func (p *oneBit) Observe(evs []dbt.BranchEvent) uint64 {
	var mis uint64
	t := &p.table
	for _, ev := range evs {
		i := bhtIndex(ev.PC)
		mis += uint64(b2u(t[i] != ev.Taken))
		t[i] = ev.Taken
	}
	return mis
}

// step2 moves a 2-bit saturating counter one step toward the branch's
// direction, clamped to 0..3 with min/max instead of a branch.
func step2(c uint8, taken bool) uint8 {
	return uint8(min(max(int32(c)+2*int32(b2u(taken))-1, 0), 3))
}

// twoBit is the 2-bit saturating-counter scheme: counters 0..3 predict
// taken at 2 and 3, and a single off-direction outcome cannot flip a
// saturated counter. Counters start weakly not-taken (1).
type twoBit struct {
	table [bhtSize]uint8
}

func newTwoBit() *twoBit {
	p := &twoBit{}
	for i := range p.table {
		p.table[i] = 1
	}
	return p
}

func (p *twoBit) Name() string { return "2bit" }

func (p *twoBit) Observe(evs []dbt.BranchEvent) uint64 {
	var mis uint64
	t := &p.table
	for _, ev := range evs {
		i := bhtIndex(ev.PC)
		c := t[i]
		mis += uint64(b2u((c >= 2) != ev.Taken))
		t[i] = step2(c, ev.Taken)
	}
	return mis
}

// gshare is the two-level global scheme: a global history register
// XORed with the branch address indexes a table of 2-bit saturating
// counters, so the same static branch trains separate counters per
// path context. History length equals the index width.
type gshare struct {
	hist  uint32
	table [bhtSize]uint8
}

func newGShare() *gshare {
	p := &gshare{}
	for i := range p.table {
		p.table[i] = 1
	}
	return p
}

func (p *gshare) Name() string { return "gshare" }

func (p *gshare) Observe(evs []dbt.BranchEvent) uint64 {
	var mis uint64
	t := &p.table
	hist := p.hist
	for _, ev := range evs {
		i := (uint32(ev.PC) ^ hist) & bhtMask
		c := t[i]
		mis += uint64(b2u((c >= 2) != ev.Taken))
		t[i] = step2(c, ev.Taken)
		hist = (hist<<1 | b2u(ev.Taken)) & bhtMask
	}
	p.hist = hist
	return mis
}

// Perceptron geometry: each of percRows rows holds a bias weight plus
// one weight per global-history bit. Weights are int8-saturated and
// training stops once the dot product clears percTheta, the usual
// floor(1.93*h + 14) threshold for h history bits.
const (
	percHistBits = 16
	percHistMask = 1<<percHistBits - 1
	percRows     = 512
	percRowMask  = percRows - 1
	percTheta    = 44
	percWMax     = 127
	percWMin     = -128
)

// percRow is one perceptron row: the bias weight, then one weight per
// history bit, oldest last.
type percRow = [percHistBits + 1]int16

// perceptron is the perceptron predictor: predicted direction is the
// sign of bias + Σ weight[i]·history[i], with history bits as ±1.
type perceptron struct {
	hist    uint32 // low percHistBits bits, newest outcome in bit 0
	weights [percRows]percRow
}

func newPerceptron() *perceptron { return &perceptron{} }

func (p *perceptron) Name() string { return "perceptron" }

// dot computes a row's dot product under history h. Each ±w term is
// (w ^ m) - m with m = 0 for a set history bit and -1 for a clear one,
// which is w or -w without a data-dependent branch. The terms are
// written out because Go does not unroll loops: unrolled, no term waits
// on a shifted copy of h, and the sum is exact in any order.
func dot(w *percRow, h uint32) int32 {
	t := func(i int) int32 {
		m := int32(h>>(i-1)&1) - 1
		return (int32(w[i]) ^ m) - m
	}
	return int32(w[0]) + (t(1) + t(2) + t(3) + t(4)) + (t(5) + t(6) + t(7) + t(8)) +
		(t(9) + t(10) + t(11) + t(12)) + (t(13) + t(14) + t(15) + t(16))
}

// train moves every weight of a row one step toward agreement with the
// branch's direction, saturating at the int8 range with min/max: the
// bias toward the direction, each history weight up when its bit
// agrees with the direction and down when it does not.
func train(w *percRow, h uint32, taken bool) {
	t := int32(b2u(taken))
	w[0] = int16(min(max(int32(w[0])+2*t-1, percWMin), percWMax))
	for i := 1; i <= percHistBits; i++ {
		d := 1 - 2*(int32(h>>(i-1)&1)^t)
		w[i] = int16(min(max(int32(w[i])+d, percWMin), percWMax))
	}
}

// Observe computes each branch's dot product once: the sign is the
// prediction, and the same sum decides training. It trains on a
// mispredict or while |output| has not cleared theta. The comparison is
// inclusive — |output| == theta still trains — matching the published
// training rule (|y_out| <= theta); the strict form quietly stopped one
// update early at the boundary.
func (p *perceptron) Observe(evs []dbt.BranchEvent) uint64 {
	var mis uint64
	hist := p.hist
	for _, ev := range evs {
		w := &p.weights[int(uint32(ev.PC))&percRowMask]
		sum := dot(w, hist)
		miss := (sum >= 0) != ev.Taken
		mis += uint64(b2u(miss))
		if miss || sum <= percTheta && sum >= -percTheta {
			train(w, hist, ev.Taken)
		}
		hist = (hist<<1 | b2u(ev.Taken)) & percHistMask
	}
	p.hist = hist
	return mis
}
