package learned

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// oracleTree is the tree fit that sorts at every node: for each
// feature it stable-sorts the node's examples, and a split copies them
// into left and right slices in example order. The presorted fit must
// build the same trees and gains bit for bit.
type oracleTree struct{ gain []float64 }

func oracleNodeMass(ex []example) mass {
	var m mass
	for i := range ex {
		m.wT += float64(ex[i].w * ex[i].y)
		m.wN += float64(ex[i].w * (1 - ex[i].y))
	}
	return m
}

func (t *oracleTree) build(ex []example, depth int) *TreeNode {
	m := oracleNodeMass(ex)
	if depth == 0 || len(ex) < 2 || m.score() == 0 {
		return leaf(m)
	}
	best := m.score()
	bestFeat, bestThresh := -1, 0.0
	order := make([]int, len(ex))
	for f := 1; f < len(featureNames); f++ {
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
			left.wT += float64(e.w * e.y)
			left.wN += float64(e.w * (1 - e.y))
			right.wT -= float64(e.w * e.y)
			right.wN -= float64(e.w * (1 - e.y))
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

// randomExamples draws n examples whose features come from a few
// values each, so equal keys, and with them the sort's stability, meet
// at every node. Some labels are pure and some features constant.
func randomExamples(rng *rand.Rand, n int) []example {
	levels := []float64{0, 0.125, 0.25, 0.5, 0.5, 1}
	ex := make([]example, n)
	for i := range ex {
		x := make([]float64, len(featureNames))
		x[0] = 1
		for j := 1; j < len(x); j++ {
			switch j % 4 {
			case 0:
				x[j] = levels[rng.Intn(len(levels))]
			case 1:
				x[j] = float64(rng.Intn(2))
			case 2:
				x[j] = rng.Float64()
			}
		}
		y := rng.Float64()
		if rng.Intn(3) == 0 {
			y = float64(rng.Intn(2))
		}
		ex[i] = example{x: x, w: rng.Float64() + 1e-3, y: y}
	}
	return ex
}

// TestTreeFitMatchesPerNodeSort compares the presorted fit with the
// per-node-sort oracle on random, tie-heavy example sets at several
// depths, trees and gains with reflect.DeepEqual.
func TestTreeFitMatchesPerNodeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		ex := randomExamples(rng, rng.Intn(400))
		depth := 1 + rng.Intn(7)
		got := trainTree(Config{TreeDepth: depth}, ex)
		o := &oracleTree{gain: make([]float64, len(featureNames))}
		want := o.build(ex, depth)
		if !reflect.DeepEqual(got.Root, want) {
			t.Fatalf("trial %d (%d examples, depth %d): tree differs from the per-node-sort fit", trial, len(ex), depth)
		}
		if !reflect.DeepEqual(got.gain, o.gain) {
			t.Fatalf("trial %d: gains %v, per-node-sort fit %v", trial, got.gain, o.gain)
		}
	}
}
