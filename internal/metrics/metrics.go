// Package metrics implements the paper's profile-comparison measures:
// frequency-weighted standard deviations of branch, completion and
// loop-back probabilities (sections 2.1-2.3), the range-based mismatch
// rates of sections 4.1 and 4.3, and — for contrast — the classical
// profile comparators (Wall's weight/key match, overlap percentage) that
// the paper argues cannot be applied to initial profiles because all
// INIP(T) blocks have use counts in [T, 2T] and therefore carry no
// meaningful relative order.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Item is one weighted prediction/average pair: a block's branch
// probability, a region's completion probability, or a loop's loop-back
// probability, in the initial profile (Pred) and the average profile
// (Avg), weighted by the AVEP-derived frequency W.
type Item struct {
	Pred float64
	Avg  float64
	W    float64
}

// WeightedSD computes sqrt(sum((Pred-Avg)^2 * W) / sum(W)), the paper's
// Sd.BP / Sd.CP / Sd.LP depending on what the items hold. It returns 0
// for an empty or zero-weight item set.
func WeightedSD(items []Item) float64 {
	var num, den float64
	for _, it := range items {
		d := it.Pred - it.Avg
		num += float64(d * d * it.W)
		den += it.W
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}

// BPBucket classifies a branch probability into the paper's three
// optimizer-relevant ranges: [0, .3) -> 0, [.3, .7] -> 1, (.7, 1] -> 2.
func BPBucket(p float64) int {
	switch {
	case p < 0.3:
		return 0
	case p <= 0.7:
		return 1
	default:
		return 2
	}
}

// Trip-count classes of section 4.3, expressed over loop-back
// probability via LP = (T-1)/T.
const (
	// TripLow marks loops with trip count < 10 (LP in [0, 0.9)):
	// peeling candidates, no software pipelining or prefetching.
	TripLow = iota
	// TripMedian marks trip counts in [10, 50] (LP in [0.9, 0.98]):
	// software pipelining but not prefetching.
	TripMedian
	// TripHigh marks trip counts > 50 (LP in (0.98, 1]): both
	// software pipelining and data prefetching apply.
	TripHigh
)

// LPBucket classifies a loop-back probability into the trip-count
// classes above.
func LPBucket(p float64) int {
	switch {
	case p < 0.9:
		return TripLow
	case p <= 0.98:
		return TripMedian
	default:
		return TripHigh
	}
}

// MismatchRate returns the weighted fraction of items whose Pred and Avg
// fall into different buckets. It returns 0 for an empty set.
func MismatchRate(items []Item, bucket func(float64) int) float64 {
	var bad, den float64
	for _, it := range items {
		den += it.W
		if bucket(it.Pred) != bucket(it.Avg) {
			bad += it.W
		}
	}
	if den == 0 {
		return 0
	}
	return bad / den
}

// TripCount converts a loop-back probability to the implied average trip
// count T = 1/(1-LP), capped to avoid infinities for LP ~ 1.
func TripCount(lp float64) float64 {
	if lp >= 1 {
		return math.Inf(1)
	}
	if lp < 0 {
		lp = 0
	}
	return 1 / (1 - lp)
}

// --- Classical comparators (for contrast; see package comment) ---

// topN returns the n keys with the largest weights, ties broken by key
// for determinism.
func topN(w map[int]float64, n int) []int {
	keys := make([]int, 0, len(w))
	for k := range w {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if w[keys[i]] != w[keys[j]] {
			return w[keys[i]] > w[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if n > len(keys) {
		n = len(keys)
	}
	return keys[:n]
}

// KeyMatch implements Wall's "key match": the fraction of the actual
// top-n blocks that also appear in the predicted top-n.
func KeyMatch(predicted, actual map[int]float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	pt := topN(predicted, n)
	at := topN(actual, n)
	if len(at) == 0 {
		return 0
	}
	inPred := make(map[int]bool, len(pt))
	for _, k := range pt {
		inPred[k] = true
	}
	hit := 0
	for _, k := range at {
		if inPred[k] {
			hit++
		}
	}
	return float64(hit) / float64(len(at))
}

// WeightMatch implements Wall's "weight match": the actual weight
// covered by the predicted top-n, relative to the weight of the actual
// top-n. 1.0 means the prediction picked blocks exactly as heavy as the
// true hottest set.
func WeightMatch(predicted, actual map[int]float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	var denom float64
	for _, k := range topN(actual, n) {
		denom += actual[k]
	}
	if denom == 0 {
		return 0
	}
	var num float64
	for _, k := range topN(predicted, n) {
		num += actual[k]
	}
	return num / denom
}

// OverlapPercentage implements the overlapping percentage of Feller: the
// mass shared by the two weight distributions after normalization,
// sum_i min(a_i/sum(a), b_i/sum(b)). 1.0 means identical distributions.
func OverlapPercentage(a, b map[int]float64) float64 {
	var sa, sb float64
	for _, v := range a {
		sa += v
	}
	for _, v := range b {
		sb += v
	}
	if sa == 0 || sb == 0 {
		return 0
	}
	var overlap float64
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			continue
		}
		overlap += math.Min(va/sa, vb/sb)
	}
	return overlap
}

// Summary bundles the paper's per-benchmark measurements for one
// INIP/AVEP (or train/AVEP) comparison.
type Summary struct {
	SdBP       float64
	BPMismatch float64
	// Region measures; valid only when HasRegions.
	HasRegions bool
	SdCP       float64
	SdLP       float64
	LPMismatch float64
	// Population sizes, for reporting.
	Blocks int
	Traces int
	Loops  int
}

func (s Summary) String() string {
	if !s.HasRegions {
		return fmt.Sprintf("Sd.BP=%.4f mismatch=%.1f%% (%d blocks)", s.SdBP, s.BPMismatch*100, s.Blocks)
	}
	return fmt.Sprintf("Sd.BP=%.4f mismatch=%.1f%% Sd.CP=%.4f Sd.LP=%.4f lpMismatch=%.1f%% (%d blocks, %d traces, %d loops)",
		s.SdBP, s.BPMismatch*100, s.SdCP, s.SdLP, s.LPMismatch*100, s.Blocks, s.Traces, s.Loops)
}
