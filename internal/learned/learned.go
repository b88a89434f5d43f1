// Package learned implements a profile-free static branch predictor:
// a small model trained on static per-branch-site features (opcode mix,
// loop structure from internal/cfg, displacement shape, operand
// provenance) that predicts a conditional branch's likely direction
// with zero profiling runs.
//
// The paper compares INIP(T) initial profiles against a training-input
// profile; both need at least one prior execution. This package adds
// the third point the 2004 study could not explore: what accuracy is
// available from the binary alone? Following Rotem & Cummins
// ("Profile Guided Optimization without Profiles"), the model is fit
// across the benchmark suite with leave-one-benchmark-out cross
// validation, so every reported number is held out — the model never
// sees any profile of the benchmark it is scored on.
//
// Everything here is deterministic by construction: the feature order
// is fixed, training iterates benchmarks in caller order and sites in
// ascending PC order, model arithmetic is plain float64 in a fixed
// evaluation order, and no code path iterates a Go map. Equal inputs
// produce bit-equal models, predictions and serialized results.
//
// The work per event, per edge and per node is kept flat: the trace
// collector finds a branch's site through a dense index over code
// addresses, the loop finder tests only retreating edges for
// dominance, and the tree fit sorts each feature once per fit and
// partitions those orders stably at every split instead of sorting
// again at each node.
package learned

import (
	"fmt"
	"math"
)

// Model kinds accepted by Config.Model.
const (
	ModelLogReg = "logreg"
	ModelTree   = "tree"
)

// Config selects the model family and its hyperparameters. The zero
// value is not usable directly; withDefaults fills the canonical
// settings, and Fingerprint identifies the fully defaulted config.
type Config struct {
	// Model is the model family: "logreg" (logistic regression trained
	// by batch gradient descent) or "tree" (depth-bounded CART decision
	// tree).
	Model string `json:"model"`
	// Epochs is the number of full gradient-descent passes (logreg).
	Epochs int `json:"epochs,omitempty"`
	// LearnRate is the gradient-descent step size (logreg).
	LearnRate float64 `json:"learn_rate,omitempty"`
	// L2 is the ridge penalty applied to non-bias weights (logreg).
	L2 float64 `json:"l2,omitempty"`
	// TreeDepth bounds the decision tree's depth (tree).
	TreeDepth int `json:"tree_depth,omitempty"`
}

// Default hyperparameters. They are part of the model fingerprint:
// changing them invalidates cached learned results.
const (
	defaultEpochs    = 200
	defaultLearnRate = 2.0
	defaultL2        = 1e-3
	defaultTreeDepth = 8
)

// DefaultConfig returns the canonical learned-model configuration.
func DefaultConfig() Config {
	return Config{}.withDefaults()
}

func (c Config) withDefaults() Config {
	if c.Model == "" {
		c.Model = ModelLogReg
	}
	if c.Epochs == 0 {
		c.Epochs = defaultEpochs
	}
	if c.LearnRate == 0 {
		c.LearnRate = defaultLearnRate
	}
	if c.L2 == 0 {
		c.L2 = defaultL2
	}
	if c.TreeDepth == 0 {
		c.TreeDepth = defaultTreeDepth
	}
	return c
}

// Validate rejects configurations the trainer cannot honor.
func (c Config) Validate() error {
	d := c.withDefaults()
	switch d.Model {
	case ModelLogReg, ModelTree:
	default:
		return fmt.Errorf("learned: unknown model %q (have %s, %s)", d.Model, ModelLogReg, ModelTree)
	}
	if d.Epochs < 1 {
		return fmt.Errorf("learned: epochs %d < 1", d.Epochs)
	}
	if d.LearnRate <= 0 || math.IsNaN(d.LearnRate) || math.IsInf(d.LearnRate, 0) {
		return fmt.Errorf("learned: learn rate %v not positive and finite", d.LearnRate)
	}
	if d.L2 < 0 || math.IsNaN(d.L2) || math.IsInf(d.L2, 0) {
		return fmt.Errorf("learned: l2 %v negative or not finite", d.L2)
	}
	if d.TreeDepth < 1 || d.TreeDepth > 16 {
		return fmt.Errorf("learned: tree depth %d outside [1,16]", d.TreeDepth)
	}
	return nil
}

// featureVersion names the feature extractor's schema. Bump it whenever
// the feature set, order or scaling changes: the version is part of
// Fingerprint, which keys cache entries.
const featureVersion = 1

// Fingerprint identifies the model configuration plus the feature
// schema. Equal fingerprints guarantee bit-equal training results on
// equal data; it joins the key of the `ref` result-cache entries that
// carry a collection, and the daemon's request-coalescing flight keys.
func (c Config) Fingerprint() string {
	d := c.withDefaults()
	switch d.Model {
	case ModelTree:
		return fmt.Sprintf("learned-f%d:tree:d%d", featureVersion, d.TreeDepth)
	default:
		return fmt.Sprintf("learned-f%d:%s:e%d:lr%g:l2%g", featureVersion, d.Model, d.Epochs, d.LearnRate, d.L2)
	}
}

// featureNames is the fixed feature order. Index 0 is the bias term.
// All features are scaled into [0,1]; see features.go for definitions.
var featureNames = []string{
	"bias",
	"backward",        // taken target at or before the branch pc
	"disp_mag",        // log-scaled |displacement|
	"taken_loop_head", // taken target heads a natural loop
	"loop_depth",      // loop-nesting depth of the branch block
	"taken_exits_loop",
	"fall_exits_loop",
	"op_beq", "op_bne", "op_blt", "op_bge",
	"frac_mem", "frac_float", "frac_in",
	"block_len",
	"taken_ret", "fall_ret", // successor path ends in ret/halt
	"taken_join", "fall_join", // successor is a static join point
	"cmp_def_loadi", "cmp_def_in",
	"cmp_off_0", "cmp_off_1", "cmp_off_2", "cmp_off_3", "cmp_off_4",
	"cmp_off_5", "cmp_off_6", "cmp_off_7", "cmp_off_8", "cmp_off_9",
	"cmp_off_other",
	"cmp_def_none",
}

// NumFeatures is the length of every feature vector.
func NumFeatures() int { return len(featureNames) }

// FeatureNames returns the feature order as a fresh slice.
func FeatureNames() []string {
	return append([]string(nil), featureNames...)
}

// Site is one conditional-branch site of a benchmark: the dynamic-block
// entry address the observer rail reports branches under, its static
// feature vector, and the execution tallies collected off the shared
// reference trace.
type Site struct {
	// PC is the entry address of the dynamic block ending in the branch.
	PC int32 `json:"pc"`
	// X is the feature vector in FeatureNames order.
	X []float64 `json:"x"`
	// Count and Taken tally the site's resolved branches and taken
	// outcomes on the reference input.
	Count uint64 `json:"count,omitempty"`
	Taken uint64 `json:"taken,omitempty"`
}

// BenchData is one benchmark's training/evaluation data: every static
// branch site (ascending PC) with its reference-trace tallies. It is
// part of the payload of a `ref` result-cache entry, so it must marshal
// deterministically — it does: fixed slice orders, no maps.
type BenchData struct {
	Bench string `json:"bench"`
	Sites []Site `json:"sites"`
	// Unknown counts observed branch events at addresses the static
	// extractor did not enumerate. Always zero for well-formed images;
	// kept as a tripwire.
	Unknown uint64 `json:"unknown,omitempty"`
}

// Branches is the total resolved conditional branches of the trace.
func (b *BenchData) Branches() uint64 {
	var n uint64
	for i := range b.Sites {
		n += b.Sites[i].Count
	}
	return n
}
