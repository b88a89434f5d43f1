// Models: logistic regression trained by batch gradient descent, and a
// depth-bounded CART decision tree baseline. Both are trained on
// weighted soft-labeled examples — one example per executed branch
// site, label = observed taken fraction, weighted so every training
// benchmark contributes total weight 1 regardless of its dynamic
// branch volume.
//
// Determinism: examples are assembled in caller benchmark order and
// ascending site-PC order, gradient sums and split sweeps run in that
// fixed order, and all arithmetic is plain float64 — no randomness, no
// map iteration. Equal (config, data) pairs produce bit-equal models.
package learned

import (
	"math"
	"slices"
)

// Model predicts a branch direction from a static feature vector.
type Model interface {
	// PredictTaken returns the predicted direction for the site.
	PredictTaken(x []float64) bool
	// Importances returns a per-feature importance score in
	// FeatureNames order (non-negative; scale is model-specific).
	Importances() []float64
}

// example is one weighted soft-labeled training point.
type example struct {
	x []float64
	w float64 // benchmark-normalized weight, > 0
	y float64 // observed taken fraction in [0,1]
}

// assemble flattens BenchData into the deterministic example list.
// Sites that never executed carry no evidence and are skipped.
func assemble(data []BenchData) []example {
	var out []example
	for bi := range data {
		b := &data[bi]
		total := b.Branches()
		if total == 0 {
			continue
		}
		for si := range b.Sites {
			s := &b.Sites[si]
			if s.Count == 0 {
				continue
			}
			out = append(out, example{
				x: s.X,
				w: float64(s.Count) / float64(total),
				y: float64(s.Taken) / float64(s.Count),
			})
		}
	}
	return out
}

// Train fits the configured model on the given benchmarks' data.
func Train(cfg Config, data []BenchData) (Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := cfg.withDefaults()
	ex := assemble(data)
	switch d.Model {
	case ModelTree:
		return trainTree(d, ex), nil
	default:
		return trainLogReg(d, ex), nil
	}
}

// LogReg is a logistic-regression model: predict taken iff
// sigmoid(W·x) >= 1/2, i.e. W·x >= 0.
type LogReg struct {
	W []float64 `json:"w"` // FeatureNames order; W[0] is the bias
}

func sigmoid(z float64) float64 {
	if z > 30 {
		return 1
	}
	if z < -30 {
		return 0
	}
	return 1 / (1 + math.Exp(-z))
}

func dot(w, x []float64) float64 {
	var z float64
	for j := range w {
		z += float64(w[j] * x[j])
	}
	return z
}

// PredictTaken implements Model.
func (m *LogReg) PredictTaken(x []float64) bool { return dot(m.W, x) >= 0 }

// Importances implements Model: |weight| per feature. Features share
// the [0,1] scale, so magnitudes are comparable.
func (m *LogReg) Importances() []float64 {
	out := make([]float64, len(m.W))
	for j, w := range m.W {
		out[j] = math.Abs(w)
	}
	return out
}

func trainLogReg(cfg Config, ex []example) *LogReg {
	nf := len(featureNames)
	w := make([]float64, nf)
	grad := make([]float64, nf)
	var totalW float64
	for i := range ex {
		totalW += ex[i].w
	}
	if totalW == 0 {
		return &LogReg{W: w}
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for j := range grad {
			grad[j] = 0
		}
		for i := range ex {
			e := &ex[i]
			g := (sigmoid(dot(w, e.x)) - e.y) * e.w
			for j := range grad {
				grad[j] += float64(g * e.x[j])
			}
		}
		inv := cfg.LearnRate / totalW
		for j := range w {
			p := float64(grad[j] * inv)
			if j > 0 { // no ridge on the bias
				p += float64(cfg.LearnRate * cfg.L2 * w[j])
			}
			w[j] -= p
		}
	}
	return &LogReg{W: w}
}

// Tree is a depth-bounded CART decision tree over the feature vector.
type Tree struct {
	Root *TreeNode `json:"root"`
	gain []float64
}

// TreeNode is one tree node. Internal nodes route x[Feature] < Thresh
// to Left, else Right; leaves predict Taken with confidence P (the
// leaf's weighted taken fraction).
type TreeNode struct {
	Feature int       `json:"feature,omitempty"`
	Thresh  float64   `json:"thresh,omitempty"`
	Left    *TreeNode `json:"left,omitempty"`
	Right   *TreeNode `json:"right,omitempty"`
	Leaf    bool      `json:"leaf,omitempty"`
	Taken   bool      `json:"taken,omitempty"`
	P       float64   `json:"p,omitempty"`
}

// PredictTaken implements Model.
func (t *Tree) PredictTaken(x []float64) bool {
	n := t.Root
	for !n.Leaf {
		if x[n.Feature] < n.Thresh {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Taken
}

// Importances implements Model: total weighted impurity decrease
// contributed by splits on each feature.
func (t *Tree) Importances() []float64 {
	return append([]float64(nil), t.gain...)
}

// split accumulators: wT/wN are the weighted taken / not-taken masses.
type mass struct{ wT, wN float64 }

func (m mass) total() float64 { return m.wT + m.wN }

// score is the weighted Gini impurity times the node mass (up to the
// constant factor 2): minimizing the sum over children maximizes the
// split's purity gain.
func (m mass) score() float64 {
	t := m.total()
	if t == 0 {
		return 0
	}
	return m.wT * m.wN / t
}

func leaf(m mass) *TreeNode {
	n := &TreeNode{Leaf: true, Taken: m.wT >= m.wN}
	if t := m.total(); t > 0 {
		n.P = m.wT / t
	}
	return n
}

// treeFit is one tree fit's working set. Each example's taken and
// not-taken masses are computed once, and each feature's example
// indices are stable-sorted by value once per fit. A node owns one
// range [lo, hi) of idx, which lists its members in example order, and
// the same range of every order[f], which lists them by feature value.
// A split partitions every list of its range stably into left and
// right, so each child's order[f] is again exactly the stable sort of
// its members in example order. Every sum therefore runs in the order
// a fit that sorts at each node would use, and trees and gains are
// bit-identical to such a fit (the tests' oracle).
type treeFit struct {
	ex      []example
	wT, wN  []float64 // per example: float64(w*y), float64(w*(1-y))
	idx     []int32
	order   [][]int32 // per feature; order[0], the bias, is unused
	goLeft  []bool    // per example: the current split's side
	scratch []int32
	gain    []float64
}

func trainTree(cfg Config, ex []example) *Tree {
	nf, n := len(featureNames), len(ex)
	f := &treeFit{
		ex:      ex,
		wT:      make([]float64, n),
		wN:      make([]float64, n),
		idx:     make([]int32, n),
		order:   make([][]int32, nf),
		goLeft:  make([]bool, n),
		scratch: make([]int32, n),
		gain:    make([]float64, nf),
	}
	for i := range ex {
		f.wT[i] = float64(ex[i].w * ex[i].y)
		f.wN[i] = float64(ex[i].w * (1 - ex[i].y))
		f.idx[i] = int32(i)
	}
	// Features are finite, so < is a strict weak order and the stable
	// sort of a subset is the subset of the stable sort.
	orders := make([]int32, (nf-1)*n)
	for j := 1; j < nf; j++ {
		ord := orders[(j-1)*n : j*n]
		copy(ord, f.idx)
		slices.SortStableFunc(ord, func(a, b int32) int {
			switch xa, xb := ex[a].x[j], ex[b].x[j]; {
			case xa < xb:
				return -1
			case xb < xa:
				return 1
			}
			return 0
		})
		f.order[j] = ord
	}
	return &Tree{Root: f.build(0, n, cfg.TreeDepth), gain: f.gain}
}

// build fits the node over range [lo, hi) of the fit's lists.
func (f *treeFit) build(lo, hi, depth int) *TreeNode {
	var m mass
	for _, i := range f.idx[lo:hi] {
		m.wT += f.wT[i]
		m.wN += f.wN[i]
	}
	if depth == 0 || hi-lo < 2 || m.score() == 0 {
		return leaf(m)
	}
	// Best split: lowest child-score sum; ties break on the lowest
	// feature index, then the lowest threshold, for determinism.
	best := m.score()
	bestFeat, bestThresh := -1, 0.0
	for j := 1; j < len(f.order); j++ { // 0 is the constant bias
		ord := f.order[j][lo:hi]
		var left mass
		right := m
		for k := 0; k+1 < len(ord); k++ {
			i := ord[k]
			left.wT += f.wT[i]
			left.wN += f.wN[i]
			right.wT -= f.wT[i]
			right.wN -= f.wN[i]
			v, next := f.ex[i].x[j], f.ex[ord[k+1]].x[j]
			if v == next {
				continue
			}
			if s := left.score() + right.score(); s < best {
				best = s
				bestFeat = j
				bestThresh = (v + next) / 2
			}
		}
	}
	if bestFeat < 0 {
		return leaf(m)
	}
	f.gain[bestFeat] += m.score() - best
	nl := 0
	for _, i := range f.idx[lo:hi] {
		l := f.ex[i].x[bestFeat] < bestThresh
		f.goLeft[i] = l
		if l {
			nl++
		}
	}
	f.partition(f.idx[lo:hi])
	for _, ord := range f.order[1:] {
		f.partition(ord[lo:hi])
	}
	return &TreeNode{
		Feature: bestFeat,
		Thresh:  bestThresh,
		Left:    f.build(lo, lo+nl, depth-1),
		Right:   f.build(lo+nl, hi, depth-1),
	}
}

// partition reorders seg stably in place: the members that go left,
// then those that go right, each in their order in seg.
func (f *treeFit) partition(seg []int32) {
	l, r := 0, f.scratch[:0]
	for _, i := range seg {
		if f.goLeft[i] {
			seg[l] = i
			l++
		} else {
			r = append(r, i)
		}
	}
	copy(seg[l:], r)
}
