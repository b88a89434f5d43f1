// Package predict implements classic dynamic branch predictors over the
// DBT's replayed block trace. The paper ranks the initial profile
// INIP(T) only against AVEP and the training profile; this package adds
// the axis the branch-predictability literature uses: what would a
// hardware-style dynamic predictor achieve on the very same branch
// stream?
//
// Every predictor is a pure, deterministic state machine behind one
// interface — Predict(pc) then Update(pc, taken), called once per
// resolved conditional branch in architectural order. Predictors are
// driven from the shared reference trace (dbt.RunMultiObserved), so the
// guest still executes exactly once and the predictor pass perturbs no
// profiling counter: mispredict counts are a pure function of the
// branch stream, identical across worker counts and dispatch paths.
package predict

import (
	"fmt"
	"strings"
)

// Predictor is one dynamic branch predictor. For each resolved
// conditional branch the driver calls Predict then Update, in
// architectural order; pc is the branch block's entry address.
// Implementations must be deterministic: equal call sequences must
// yield equal predictions.
type Predictor interface {
	// Name returns the registry name the predictor was created under.
	Name() string
	// Predict returns the predicted direction of the branch at pc.
	Predict(pc int32) bool
	// Update trains the predictor with the branch's actual direction.
	Update(pc int32, taken bool)
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
// each one's mispredictions. Not safe for concurrent use: the stream
// is architectural order, which is inherently serial.
type Suite struct {
	preds []Predictor
	res   []Result
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

// Record feeds one resolved branch to every predictor.
func (s *Suite) Record(pc int32, taken bool) {
	for i, p := range s.preds {
		if p.Predict(pc) != taken {
			s.res[i].Mispredicts++
		}
		s.res[i].Branches++
		p.Update(pc, taken)
	}
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

// staticPredictor always predicts one direction (always-taken /
// always-not-taken). Its mispredict rate is the branch stream's
// direction bias, the baseline every dynamic scheme is measured
// against.
type staticPredictor struct {
	name string
	dir  bool
}

func (p staticPredictor) Name() string       { return p.name }
func (p staticPredictor) Predict(int32) bool { return p.dir }
func (p staticPredictor) Update(int32, bool) {}

// oneBit is the 1-bit last-direction scheme: each table entry predicts
// whatever its branch last did. Entries start not-taken.
type oneBit struct {
	table [bhtSize]bool
}

func (p *oneBit) Name() string { return "1bit" }
func (p *oneBit) Predict(pc int32) bool {
	return p.table[bhtIndex(pc)]
}
func (p *oneBit) Update(pc int32, taken bool) {
	p.table[bhtIndex(pc)] = taken
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
func (p *twoBit) Predict(pc int32) bool {
	return p.table[bhtIndex(pc)] >= 2
}
func (p *twoBit) Update(pc int32, taken bool) {
	i := bhtIndex(pc)
	if taken {
		if p.table[i] < 3 {
			p.table[i]++
		}
	} else if p.table[i] > 0 {
		p.table[i]--
	}
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

func (p *gshare) index(pc int32) int {
	return int((uint32(pc) ^ p.hist) & bhtMask)
}

func (p *gshare) Predict(pc int32) bool {
	return p.table[p.index(pc)] >= 2
}

func (p *gshare) Update(pc int32, taken bool) {
	i := p.index(pc)
	if taken {
		if p.table[i] < 3 {
			p.table[i]++
		}
	} else if p.table[i] > 0 {
		p.table[i]--
	}
	p.hist = (p.hist << 1) & bhtMask
	if taken {
		p.hist |= 1
	}
}

// Perceptron geometry: each of percRows rows holds a bias weight plus
// one weight per global-history bit. Weights are int8-saturated and
// training stops once the dot product clears percTheta, the usual
// floor(1.93*h + 14) threshold for h history bits.
const (
	percHistBits = 16
	percRows     = 512
	percRowMask  = percRows - 1
	percTheta    = 44
	percWMax     = 127
	percWMin     = -128
)

// perceptron is the perceptron predictor: predicted direction is the
// sign of bias + Σ weight[i]·history[i], with history bits as ±1.
type perceptron struct {
	hist    uint32 // low percHistBits bits, newest outcome in bit 0
	weights [percRows][percHistBits + 1]int16
	// Predict caches its dot product for the Update of the same branch,
	// so each branch computes it once. sumOK is cleared by every Update,
	// which changes weights or history; an Update of another pc, or with
	// no Predict before it, recomputes.
	sumPC int32
	sum   int32
	sumOK bool
}

func newPerceptron() *perceptron { return &perceptron{} }

func (p *perceptron) Name() string { return "perceptron" }

// output computes the dot product for pc under the current history.
// Each ±w term is (w ^ m) - m with m = 0 for a set history bit and -1
// for a clear one, which is w or -w without a data-dependent branch.
func (p *perceptron) output(pc int32) int32 {
	w := &p.weights[int(uint32(pc))&percRowMask]
	sum := int32(w[0])
	h := p.hist
	for i := 1; i <= percHistBits; i++ {
		m := int32(h&1) - 1
		sum += (int32(w[i]) ^ m) - m
		h >>= 1
	}
	return sum
}

func (p *perceptron) Predict(pc int32) bool {
	p.sumPC, p.sum, p.sumOK = pc, p.output(pc), true
	return p.sum >= 0
}

func (p *perceptron) Update(pc int32, taken bool) {
	sum := p.sum
	if !p.sumOK || p.sumPC != pc {
		sum = p.output(pc)
	}
	p.sumOK = false
	pred := sum >= 0
	// Train on a mispredict or while |output| has not cleared theta.
	// The comparison is inclusive — |output| == theta still trains —
	// matching the published training rule (|y_out| <= theta); the
	// strict form quietly stopped one update early at the boundary.
	if pred != taken || sum <= percTheta && sum >= -percTheta {
		w := &p.weights[int(uint32(pc))&percRowMask]
		bump := func(i int, agree bool) {
			if agree {
				if w[i] < percWMax {
					w[i]++
				}
			} else if w[i] > percWMin {
				w[i]--
			}
		}
		bump(0, taken)
		h := p.hist
		for i := 1; i <= percHistBits; i++ {
			bump(i, (h&1 != 0) == taken)
			h >>= 1
		}
	}
	p.hist <<= 1
	if taken {
		p.hist |= 1
	}
	p.hist &= 1<<percHistBits - 1
}
