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
	"sort"
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
		z += w[j] * x[j]
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
				grad[j] += g * e.x[j]
			}
		}
		inv := cfg.LearnRate / totalW
		for j := range w {
			p := grad[j] * inv
			if j > 0 { // no ridge on the bias
				p += cfg.LearnRate * cfg.L2 * w[j]
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

func nodeMass(ex []example) mass {
	var m mass
	for i := range ex {
		m.wT += ex[i].w * ex[i].y
		m.wN += ex[i].w * (1 - ex[i].y)
	}
	return m
}

func leaf(m mass) *TreeNode {
	n := &TreeNode{Leaf: true, Taken: m.wT >= m.wN}
	if t := m.total(); t > 0 {
		n.P = m.wT / t
	}
	return n
}

func trainTree(cfg Config, ex []example) *Tree {
	t := &Tree{gain: make([]float64, len(featureNames))}
	t.Root = t.build(ex, cfg.TreeDepth)
	return t
}

func (t *Tree) build(ex []example, depth int) *TreeNode {
	m := nodeMass(ex)
	if depth == 0 || len(ex) < 2 || m.score() == 0 {
		return leaf(m)
	}
	// Best split: lowest child-score sum; ties break on the lowest
	// feature index, then the lowest threshold, for determinism.
	best := m.score()
	bestFeat, bestThresh := -1, 0.0
	order := make([]int, len(ex))
	for f := 1; f < len(featureNames); f++ { // 0 is the constant bias
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return ex[order[a]].x[f] < ex[order[b]].x[f]
		})
		var left mass
		right := m
		for k := 0; k+1 < len(order); k++ {
			e := &ex[order[k]]
			left.wT += e.w * e.y
			left.wN += e.w * (1 - e.y)
			right.wT -= e.w * e.y
			right.wN -= e.w * (1 - e.y)
			v, next := e.x[f], ex[order[k+1]].x[f]
			if v == next {
				continue
			}
			if s := left.score() + right.score(); s < best {
				best = s
				bestFeat = f
				bestThresh = (v + next) / 2
			}
		}
	}
	if bestFeat < 0 {
		return leaf(m)
	}
	t.gain[bestFeat] += m.score() - best
	var lo, hi []example
	for i := range ex {
		if ex[i].x[bestFeat] < bestThresh {
			lo = append(lo, ex[i])
		} else {
			hi = append(hi, ex[i])
		}
	}
	return &TreeNode{
		Feature: bestFeat,
		Thresh:  bestThresh,
		Left:    t.build(lo, depth-1),
		Right:   t.build(hi, depth-1),
	}
}
