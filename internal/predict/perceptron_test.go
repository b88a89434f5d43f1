package predict

import (
	"math/rand"
	"testing"
)

// twoPassPerceptron is the perceptron as first written: Predict and
// Update each compute the dot product, with a branch per history bit
// and per saturating weight step. It is the oracle the batch
// perceptron must match exactly.
type twoPassPerceptron struct {
	hist    uint32
	weights [percRows][percHistBits + 1]int16
}

func (p *twoPassPerceptron) output(pc int32) int32 {
	w := &p.weights[int(uint32(pc))&percRowMask]
	sum := int32(w[0])
	h := p.hist
	for i := 1; i <= percHistBits; i++ {
		if h&1 != 0 {
			sum += int32(w[i])
		} else {
			sum -= int32(w[i])
		}
		h >>= 1
	}
	return sum
}

func (p *twoPassPerceptron) Predict(pc int32) bool { return p.output(pc) >= 0 }

func (p *twoPassPerceptron) Update(pc int32, taken bool) {
	sum := p.output(pc)
	if (sum >= 0) != taken || sum <= percTheta && sum >= -percTheta {
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

// TestPerceptronMatchesTwoPassOracle drives the batch perceptron and
// the two-pass oracle through seeded streams in random-size batches,
// empty ones included, and requires equal mispredict counts, weights
// and history after every batch. The pcs alias: pc and pc+percRows
// share a weight row. Both start from the same random weights, a
// quarter of them at or next to the int8 limits, so the saturating
// steps meet their clamps.
func TestPerceptronMatchesTwoPassOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		evs := seededStream(seed, 40000)
		got, want := newPerceptron(), &twoPassPerceptron{}
		edges := []int16{percWMin, percWMin + 1, percWMax - 1, percWMax}
		for r := range got.weights {
			for i := range got.weights[r] {
				w := int16(rng.Intn(2*percTheta+1) - percTheta)
				if rng.Intn(4) == 0 {
					w = edges[rng.Intn(len(edges))]
				}
				got.weights[r][i], want.weights[r][i] = w, w
			}
		}
		for rest := evs; len(rest) > 0; {
			batch := rest[:min(rng.Intn(64), len(rest))]
			rest = rest[len(batch):]
			var wantMis uint64
			for _, ev := range batch {
				if want.Predict(ev.PC) != ev.Taken {
					wantMis++
				}
				want.Update(ev.PC, ev.Taken)
			}
			if mis := got.Observe(batch); mis != wantMis {
				t.Fatalf("seed %d at %d: %d mispredicts, oracle %d", seed, len(evs)-len(rest), mis, wantMis)
			}
			if got.hist != want.hist {
				t.Fatalf("seed %d at %d: history %#x, oracle %#x", seed, len(evs)-len(rest), got.hist, want.hist)
			}
			if got.weights != want.weights {
				t.Fatalf("seed %d at %d: weights differ from the oracle", seed, len(evs)-len(rest))
			}
		}
	}
}
