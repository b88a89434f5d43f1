package predict

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dbt"
)

// stepper is the step-wise protocol the predictors had before they
// folded batches: Predict, then Update, once per branch. The oracles
// below are those step-wise predictors, written with plain branches,
// and Observe must match them over any batch split.
type stepper interface {
	Predict(pc int32) bool
	Update(pc int32, taken bool)
}

type refStatic struct{ dir bool }

func (p *refStatic) Predict(int32) bool { return p.dir }
func (p *refStatic) Update(int32, bool) {}

type refOneBit struct{ table [bhtSize]bool }

func (p *refOneBit) Predict(pc int32) bool       { return p.table[bhtIndex(pc)] }
func (p *refOneBit) Update(pc int32, taken bool) { p.table[bhtIndex(pc)] = taken }

// bump2 is the 2-bit saturating counter step with branches.
func bump2(c *uint8, taken bool) {
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

type refTwoBit struct{ table [bhtSize]uint8 }

func newRefTwoBit() *refTwoBit {
	p := &refTwoBit{}
	for i := range p.table {
		p.table[i] = 1
	}
	return p
}

func (p *refTwoBit) Predict(pc int32) bool       { return p.table[bhtIndex(pc)] >= 2 }
func (p *refTwoBit) Update(pc int32, taken bool) { bump2(&p.table[bhtIndex(pc)], taken) }

type refGShare struct {
	hist  uint32
	table [bhtSize]uint8
}

func newRefGShare() *refGShare {
	p := &refGShare{}
	for i := range p.table {
		p.table[i] = 1
	}
	return p
}

func (p *refGShare) index(pc int32) int { return int((uint32(pc) ^ p.hist) & bhtMask) }

func (p *refGShare) Predict(pc int32) bool { return p.table[p.index(pc)] >= 2 }

func (p *refGShare) Update(pc int32, taken bool) {
	bump2(&p.table[p.index(pc)], taken)
	p.hist = (p.hist << 1) & bhtMask
	if taken {
		p.hist |= 1
	}
}

// oracleFor returns the step-wise oracle of a registered predictor.
func oracleFor(t *testing.T, name string) stepper {
	switch name {
	case "taken":
		return &refStatic{dir: true}
	case "nottaken":
		return &refStatic{dir: false}
	case "1bit":
		return &refOneBit{}
	case "2bit":
		return newRefTwoBit()
	case "gshare":
		return newRefGShare()
	case "perceptron":
		return &twoPassPerceptron{}
	}
	t.Fatalf("no oracle for predictor %q", name)
	return nil
}

// predState is a predictor's trained state in one comparable shape, so
// a batch predictor and its oracle compare with ==.
type predState struct {
	hist    uint32
	bits    [bhtSize]bool
	ctrs    [bhtSize]uint8
	weights [percRows]percRow
}

func stateOf(t *testing.T, p any) *predState {
	s := &predState{}
	switch p := p.(type) {
	case staticPredictor, *refStatic:
	case *oneBit:
		s.bits = p.table
	case *refOneBit:
		s.bits = p.table
	case *twoBit:
		s.ctrs = p.table
	case *refTwoBit:
		s.ctrs = p.table
	case *gshare:
		s.hist, s.ctrs = p.hist, p.table
	case *refGShare:
		s.hist, s.ctrs = p.hist, p.table
	case *perceptron:
		s.hist, s.weights = p.hist, p.weights
	case *twoPassPerceptron:
		s.hist, s.weights = p.hist, p.weights
	default:
		t.Fatalf("no state for %T", p)
	}
	return s
}

// seededStream draws n branches over a few dozen sites with mixed
// biases and periodic patterns. Sites alias on purpose: pc and
// pc+bhtSize share a table entry, pc and pc+percRows a perceptron row.
func seededStream(seed int64, n int) []dbt.BranchEvent {
	rng := rand.New(rand.NewSource(seed))
	const sites = 40
	pcs := make([]int32, sites)
	bias := make([]int, sites)
	period := make([]int, sites)
	for i := range pcs {
		pcs[i] = int32(rng.Intn(1 << 14))
		switch i % 4 {
		case 1:
			pcs[i] = pcs[i-1] + bhtSize
		case 2:
			pcs[i] = pcs[i-1] + percRows
		}
		bias[i] = rng.Intn(101)
		if i%5 == 0 {
			period[i] = 2 + rng.Intn(9)
		}
	}
	seen := make([]int, sites)
	evs := make([]dbt.BranchEvent, n)
	for k := range evs {
		i := rng.Intn(sites)
		taken := rng.Intn(100) < bias[i]
		if period[i] > 0 {
			taken = seen[i]%period[i] < period[i]/2
		}
		seen[i]++
		evs[k] = dbt.BranchEvent{PC: pcs[i], Taken: taken}
	}
	return evs
}

// splits returns the batch sizes to cut a stream of n events into: the
// fixed sizes 1, 7, 4096 and the whole stream, then random sizes that
// include empty batches.
func splits(rng *rand.Rand, n int) map[string][]int {
	fixed := func(size int) []int {
		var out []int
		for left := n; left > 0; left -= min(size, left) {
			out = append(out, min(size, left))
		}
		return out
	}
	var random []int
	for left := n; left > 0; {
		k := min(rng.Intn(300), left)
		random = append(random, k)
		left -= k
	}
	return map[string][]int{"1": fixed(1), "7": fixed(7), "4096": fixed(4096), "whole": {n}, "random": random}
}

// TestObserveMatchesStepwiseOracles drives every predictor's Observe
// over seeded streams cut into batches of 1, 7, 4096, the whole stream
// and random sizes, and requires the step-wise oracle's mispredict
// count and final tables, weights and history.
func TestObserveMatchesStepwiseOracles(t *testing.T) {
	for _, name := range Names() {
		for seed := int64(1); seed <= 3; seed++ {
			evs := seededStream(seed, 20000)
			o := oracleFor(t, name)
			var want uint64
			for _, ev := range evs {
				if o.Predict(ev.PC) != ev.Taken {
					want++
				}
				o.Update(ev.PC, ev.Taken)
			}
			wantState := stateOf(t, o)
			for label, sizes := range splits(rand.New(rand.NewSource(seed)), len(evs)) {
				p, err := New(name)
				if err != nil {
					t.Fatal(err)
				}
				var got uint64
				rest := evs
				for _, k := range sizes {
					got += p.Observe(rest[:k])
					rest = rest[k:]
				}
				if got != want {
					t.Errorf("%s seed %d split %s: %d mispredicts, oracle %d", name, seed, label, got, want)
				}
				if *stateOf(t, p) != *wantState {
					t.Errorf("%s seed %d split %s: trained state differs from the oracle", name, seed, label)
				}
			}
		}
	}
}

// TestSuiteRecordMatchesBatches pins that Record, the one-event path,
// and ObserveBranches over batches give the same tallies.
func TestSuiteRecordMatchesBatches(t *testing.T) {
	evs := seededStream(7, 10000)
	byEvent, _ := NewSuite(Names())
	byBatch, _ := NewSuite(Names())
	for _, ev := range evs {
		byEvent.Record(ev.PC, ev.Taken)
	}
	for rest := evs; len(rest) > 0; rest = rest[min(333, len(rest)):] {
		byBatch.ObserveBranches(rest[:min(333, len(rest))])
	}
	if got, want := byBatch.Results(), byEvent.Results(); !reflect.DeepEqual(got, want) {
		t.Fatalf("batched tallies %+v, one-event tallies %+v", got, want)
	}
}
