package region

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/markov"
	"repro/internal/profile"
)

// Differential testing of the region probabilities: CompletionProb and
// LoopBackProb propagate mass through a region in formation order. The
// oracle solves the same region independently, as an absorbing Markov
// chain (section 3.3): the entry is pinned to frequency 1, every other
// member's frequency is the inflow along its in-region edges, and the
// back edges into the entry are redirected to a dummy sink, whose
// frequency is then the loop-back probability. The completion
// probability is the frequency of the region's last block.

// oracleEdgeProbs is the model's split of a block's mass over its two
// edges: a conditional branch sends its taken probability along the
// taken edge; any other block sends everything along its one control
// edge, the taken edge for an unconditional jump and the fall-through
// otherwise.
func oracleEdgeProbs(rb *profile.RegionBlock, prob ProbFunc) (taken, fall float64) {
	switch {
	case rb.HasBranch:
		p := prob(rb)
		return p, 1 - p
	case rb.TakenNext != -1 || (rb.TakenTarget >= 0 && rb.FallTarget < 0):
		return 1, 0
	default:
		return 0, 1
	}
}

// oracleRegion solves the region with markov.System and returns the
// last block's frequency and the dummy sink's.
func oracleRegion(r *profile.Region, prob ProbFunc) (last, back float64, err error) {
	s := markov.NewSystem(len(r.Blocks)+1, func(id int) string {
		if id == len(r.Blocks) {
			return "dummy"
		}
		return fmt.Sprintf("b%d", r.Blocks[id].ID)
	})
	node := make(map[int]int, len(r.Blocks))
	for i := range r.Blocks {
		node[r.Blocks[i].ID] = s.AddNode()
	}
	sink := s.AddNode()
	for i := range r.Blocks {
		rb := &r.Blocks[i]
		if rb.ID == r.Entry {
			err = s.Pin(node[rb.ID], 1)
		} else {
			err = s.Inflow(node[rb.ID])
		}
		if err != nil {
			return 0, 0, err
		}
		taken, fall := oracleEdgeProbs(rb, prob)
		for _, e := range []struct {
			next int
			p    float64
		}{{rb.TakenNext, taken}, {rb.FallNext, fall}} {
			if e.next == -1 {
				continue // the mass leaves the region
			}
			dst := node[e.next]
			if e.next == r.Entry {
				dst = sink
			}
			if err := s.AddEdge(dst, node[rb.ID], e.p); err != nil {
				return 0, 0, err
			}
		}
	}
	if err := s.Inflow(sink); err != nil {
		return 0, 0, err
	}
	x, err := s.Solve()
	if err != nil {
		return 0, 0, err
	}
	return x[node[r.Blocks[len(r.Blocks)-1].ID]], x[sink], nil
}

// regionGen derives region-construction decisions from a byte stream,
// yielding zeros once the stream is exhausted.
type regionGen struct {
	data []byte
	i    int
}

func (g *regionGen) next() byte {
	if g.i >= len(g.data) {
		return 0
	}
	b := g.data[g.i]
	g.i++
	return b
}

// buildFuzzRegion turns a byte stream into a trace or loop region of
// 1-12 blocks in formation order: every in-region edge points to a
// later member or leaves the region, and a loop region's edges may also
// go back to the entry. Blocks are conditional branches with counters
// in [1, 256], jumps, or fall-through blocks.
func buildFuzzRegion(data []byte) *profile.Region {
	g := &regionGen{data: data}
	head := g.next()
	r := &profile.Region{ID: 7, Kind: profile.RegionTrace}
	if head&1 != 0 {
		r.Kind = profile.RegionLoop
	}
	n := 1 + int(head>>1)%12
	id := func(i int) int { return 3*i + 5 }
	r.Entry = id(0)
	for i := 0; i < n; i++ {
		// Successor candidates: a region exit, the entry (loops only)
		// and every later member.
		succ := []int{-1}
		if r.Kind == profile.RegionLoop {
			succ = append(succ, r.Entry)
		}
		for j := i + 1; j < n; j++ {
			succ = append(succ, id(j))
		}
		pick := func() int { return succ[int(g.next())%len(succ)] }
		rb := profile.RegionBlock{ID: id(i), Addr: 100 + i, TakenNext: -1, FallNext: -1, TakenTarget: 200, FallTarget: 300}
		switch g.next() % 3 {
		case 0:
			rb.HasBranch = true
			rb.Use = 1 + uint64(g.next())
			rb.Taken = uint64(g.next()) % (rb.Use + 1)
			rb.TakenNext, rb.FallNext = pick(), pick()
		case 1:
			rb.TakenNext, rb.FallTarget = pick(), -1
		default:
			rb.FallNext, rb.TakenTarget = pick(), -1
		}
		r.Blocks = append(r.Blocks, rb)
	}
	return r
}

// checkRegionProb compares the region's propagated probability with the
// oracle's.
func checkRegionProb(t *testing.T, r *profile.Region) {
	last, back, err := oracleRegion(r, FrozenProb)
	if err != nil {
		t.Fatalf("oracle: %v\nregion: %+v", err, r)
	}
	got, want := 0.0, last
	if r.Kind == profile.RegionLoop {
		got, err = LoopBackProb(r, FrozenProb)
		want = back
	} else {
		got, err = CompletionProb(r, FrozenProb)
	}
	if err != nil {
		t.Fatalf("%s region: %v\nregion: %+v", r.Kind, err, r)
	}
	if math.IsNaN(got) || got < 0 || got > 1+1e-12 || math.Abs(got-want) > 1e-9 {
		t.Fatalf("%s region: propagated %v, oracle %v\nregion: %+v", r.Kind, got, want, r)
	}
}

// FuzzRegionProb: any byte stream builds some region, and the
// formation-order propagation must agree with the absorbing-chain
// solve.
func FuzzRegionProb(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{23, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 8+rng.Intn(56))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRegionProb(t, buildFuzzRegion(data))
	})
}

// TestRegionProbRandom pins the differential on 500 seeded random
// regions in every plain `go test`.
func TestRegionProbRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 500; i++ {
		data := make([]byte, 1+rng.Intn(64))
		rng.Read(data)
		checkRegionProb(t, buildFuzzRegion(data))
	}
}

// TestPaperFiguresThroughOracle pins the paper's worked examples through
// the absorbing-chain oracle: Fig. 6's completion probability 0.86 and
// Fig. 7's loop-back probability 0.8865 (printed rounded as 0.886).
func TestPaperFiguresThroughOracle(t *testing.T) {
	last, _, err := oracleRegion(figure6Region(), FrozenProb)
	if err != nil || math.Abs(last-0.86) > 1e-12 {
		t.Fatalf("Figure 6 oracle CP = %v (%v), want 0.86", last, err)
	}
	_, back, err := oracleRegion(figure7Region(), FrozenProb)
	if err != nil || math.Abs(back-0.8865) > 1e-9 {
		t.Fatalf("Figure 7 oracle LP = %v (%v), want 0.8865", back, err)
	}
	checkRegionProb(t, figure6Region())
	checkRegionProb(t, figure7Region())
}
