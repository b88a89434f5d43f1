package predict

import (
	"math/rand"
	"testing"
)

// twoPassPerceptron is the perceptron as first written: Predict and
// Update each compute the dot product, with a branch per history bit.
// It is the oracle the single-pass perceptron must match exactly.
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

// TestPerceptronMatchesTwoPassOracle drives the single-pass perceptron
// and the two-pass oracle through seeded random call sequences and
// requires identical predictions, weights and history after every call.
// The pcs alias: pc and pc+percRows share a weight row. Besides the
// usual Predict(a), Update(a) pairs the sequences include an Update with
// no Predict before it, a second Update after a pair, and Predict(a)
// followed by Update(b) — each of which a stale cached sum would get
// wrong.
func TestPerceptronMatchesTwoPassOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pcs := make([]int32, 12)
		bias := make([]int, len(pcs))
		for i := range pcs {
			pcs[i] = int32(rng.Intn(percRows))
			if i%3 == 2 {
				pcs[i] = pcs[i-1] + percRows // same row as its neighbour
			}
			bias[i] = rng.Intn(101)
		}
		got, want := newPerceptron(), &twoPassPerceptron{}
		var shapes [4]int
		for step := 0; step < 20000; step++ {
			i := rng.Intn(len(pcs))
			pc := pcs[i]
			taken := rng.Intn(100) < bias[i]
			predict := func(pc int32) {
				if g, w := got.Predict(pc), want.Predict(pc); g != w {
					t.Fatalf("seed %d step %d: Predict(%d) = %v, oracle %v", seed, step, pc, g, w)
				}
			}
			var shape int
			switch k := rng.Intn(10); {
			case k < 6: // the Suite's Predict, Update pair
				predict(pc)
				got.Update(pc, taken)
				want.Update(pc, taken)
			case k < 7: // Update with no Predict before it
				shape = 1
				got.Update(pc, taken)
				want.Update(pc, taken)
			case k < 8: // a pair, then a second Update of the same pc
				shape = 2
				predict(pc)
				got.Update(pc, taken)
				want.Update(pc, taken)
				got.Update(pc, !taken)
				want.Update(pc, !taken)
			default: // Predict(a), then Update(b) of another row
				shape = 3
				other := pcs[(i+1+rng.Intn(len(pcs)-1))%len(pcs)]
				for other&percRowMask == pc&percRowMask {
					other++
				}
				predict(pc)
				got.Update(other, taken)
				want.Update(other, taken)
			}
			shapes[shape]++
			if got.hist != want.hist {
				t.Fatalf("seed %d step %d: history %#x, oracle %#x", seed, step, got.hist, want.hist)
			}
			if got.weights != want.weights {
				t.Fatalf("seed %d step %d: weights differ from the oracle", seed, step)
			}
		}
		for k, n := range shapes {
			if n == 0 {
				t.Fatalf("seed %d: call shape %d never drawn", seed, k)
			}
		}
	}
}

// BenchmarkSuiteRecord measures Suite.Record with every registered
// predictor over a seeded stream of 64 branch sites with mixed biases,
// reporting branches/s (one branch is one Record call, i.e. one
// Predict/Update pair per predictor):
//
//	go test ./internal/predict -run '^$' -bench SuiteRecord -benchtime 2s
func BenchmarkSuiteRecord(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const sites = 64
	var pcs [sites]int32
	var bias [sites]int
	for i := range pcs {
		pcs[i] = int32(16 + 7*i)
		bias[i] = rng.Intn(101)
	}
	type branch struct {
		pc    int32
		taken bool
	}
	stream := make([]branch, 1<<16)
	for i := range stream {
		s := rng.Intn(sites)
		stream[i] = branch{pcs[s], rng.Intn(100) < bias[s]}
	}
	s, err := NewSuite(Names())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, br := range stream {
			s.Record(br.pc, br.taken)
		}
	}
	b.ReportMetric(float64(b.N)*float64(len(stream))/b.Elapsed().Seconds(), "branches/s")
}
