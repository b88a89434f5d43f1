package navep

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/profile"
	"repro/internal/rng"
)

// randomScenario builds a random but well-formed INIP/AVEP pair: a set
// of AVEP blocks and a few linear trace regions over random subsets,
// with AVEP frequencies and probabilities drawn from the seed.
func randomScenario(seed uint64) (*profile.Snapshot, *profile.Snapshot) {
	r := rng.New(seed)
	nBlocks := 4 + r.Intn(12)
	avep := profile.NewSnapshot("p", "ref", 0, false)
	addrs := make([]int, nBlocks)
	for i := 0; i < nBlocks; i++ {
		addr := 10 * (i + 1)
		addrs[i] = addr
		use := uint64(100 + r.Intn(100000))
		taken := uint64(float64(use) * r.Float64())
		avep.Blocks[addr] = &profile.Block{
			Addr: addr, End: addr + 1, Use: use, Taken: taken,
			HasBranch: true, TakenTarget: addr + 10, FallTarget: addr + 2,
		}
	}
	inip := profile.NewSnapshot("p", "ref", 100, true)
	nextID := 1
	nRegions := 1 + r.Intn(3)
	for ri := 0; ri < nRegions; ri++ {
		length := 2 + r.Intn(3)
		start := r.Intn(nBlocks)
		reg := &profile.Region{ID: ri, Kind: profile.RegionTrace}
		for k := 0; k < length; k++ {
			addr := addrs[(start+k)%nBlocks]
			use := uint64(100 + r.Intn(100))
			rb := profile.RegionBlock{
				ID: nextID, Addr: addr,
				Use: use, Taken: uint64(float64(use) * r.Float64()),
				HasBranch: true,
				TakenNext: -1, FallNext: -1,
				TakenTarget: addr + 10, FallTarget: addr + 2,
			}
			nextID++
			if k > 0 {
				prev := &reg.Blocks[k-1]
				if r.Bernoulli(0.5) {
					prev.TakenNext = rb.ID
				} else {
					prev.FallNext = rb.ID
				}
			}
			reg.Blocks = append(reg.Blocks, rb)
		}
		reg.Entry = reg.Blocks[0].ID
		inip.Regions = append(inip.Regions, reg)
	}
	return inip, avep
}

// checkWellFormed reports the first item of res with a negative weight
// or a probability outside [0, 1].
func checkWellFormed(res *Result) error {
	for _, b := range res.Blocks {
		if b.W < 0 || b.BT < 0 || b.BT > 1 || b.BM < 0 || b.BM > 1 {
			return fmt.Errorf("bad block item %+v", b)
		}
	}
	for _, regions := range [][]RegionItem{res.Traces, res.Loops} {
		for _, r := range regions {
			for _, p := range []float64{r.CT, r.CM, r.LT, r.LM} {
				if p < -1e-9 || p > 1+1e-9 {
					return fmt.Errorf("bad region item %+v", r)
				}
			}
			if r.W < 0 {
				return fmt.Errorf("negative region weight %+v", r)
			}
		}
	}
	return nil
}

// checkMassConservation checks the invariant of the paper's Figure 4:
// for an address with a single copy that is a region entry, the copy's
// weight equals the AVEP frequency. (Addresses with several copies may
// undershoot: the remainder equation clamps at zero when interior
// inflow exceeds the AVEP count.)
func checkMassConservation(inip, avep *profile.Snapshot, res *Result) error {
	sums := map[int]float64{}
	hasEntry := map[int]bool{}
	counts := map[int]int{}
	for _, r := range inip.Regions {
		hasEntry[r.EntryBlock().Addr] = true
		for i := range r.Blocks {
			counts[r.Blocks[i].Addr]++
		}
	}
	for _, b := range res.Blocks {
		if b.CopyID >= 0 {
			sums[b.Addr] += b.W
		}
	}
	for addr, sum := range sums {
		if !hasEntry[addr] || counts[addr] != 1 {
			continue
		}
		if freq := float64(avep.Blocks[addr].Use); !almostEqual(sum, freq) {
			return fmt.Errorf("unique entry addr %d: copy weight %v != AVEP frequency %v", addr, sum, freq)
		}
	}
	return nil
}

// Property: normalization always succeeds on well-formed inputs, yields
// non-negative weights, and never assigns a probability outside [0, 1].
func TestQuickNormalizeWellFormed(t *testing.T) {
	f := func(seed uint64) bool {
		res, err := Normalize(randomScenario(seed))
		if err == nil {
			err = checkWellFormed(res)
		}
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: mass conservation at unique region-entry addresses.
func TestQuickMassConservation(t *testing.T) {
	f := func(seed uint64) bool {
		inip, avep := randomScenario(seed)
		res, err := Normalize(inip, avep)
		if err == nil {
			err = checkMassConservation(inip, avep, res)
		}
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// scaleCounts multiplies every use and taken count of a snapshot by k.
func scaleCounts(s *profile.Snapshot, k uint64) {
	for _, b := range s.Blocks {
		b.Use *= k
		b.Taken *= k
	}
	for _, r := range s.Regions {
		for i := range r.Blocks {
			r.Blocks[i].Use *= k
			r.Blocks[i].Taken *= k
		}
	}
}

// FuzzNormalize drives the random scenario generator from fuzzed seeds.
// Every scenario must normalize into a well-formed, mass-conserving
// view, and the view's probabilities (BT/BM, CT/CM, LT/LM) are
// metamorphic under scaling: multiplying every use and taken count of
// both profiles by k changes them by at most 1e-9.
func FuzzNormalize(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1 << 40} {
		f.Add(seed, uint16(3))
	}
	f.Fuzz(func(t *testing.T, seed uint64, kRaw uint16) {
		inip, avep := randomScenario(seed)
		res, err := Normalize(inip, avep)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := checkWellFormed(res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := checkMassConservation(inip, avep, res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		k := 2 + uint64(kRaw)%1000
		sInip, sAvep := randomScenario(seed)
		scaleCounts(sInip, k)
		scaleCounts(sAvep, k)
		scaled, err := Normalize(sInip, sAvep)
		if err != nil {
			t.Fatalf("seed %d scaled by %d: %v", seed, k, err)
		}
		same := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }
		if len(scaled.Blocks) != len(res.Blocks) || len(scaled.Traces) != len(res.Traces) || len(scaled.Loops) != len(res.Loops) {
			t.Fatalf("seed %d scaled by %d: view shape changed", seed, k)
		}
		for i, b := range res.Blocks {
			if sb := scaled.Blocks[i]; !same(b.BT, sb.BT) || !same(b.BM, sb.BM) {
				t.Fatalf("seed %d scaled by %d: block %+v became %+v", seed, k, b, sb)
			}
		}
		for i, r := range res.Traces {
			if sr := scaled.Traces[i]; !same(r.CT, sr.CT) || !same(r.CM, sr.CM) {
				t.Fatalf("seed %d scaled by %d: trace CT/CM %v/%v became %v/%v", seed, k, r.CT, r.CM, sr.CT, sr.CM)
			}
		}
		for i, r := range res.Loops {
			if sr := scaled.Loops[i]; !same(r.LT, sr.LT) || !same(r.LM, sr.LM) {
				t.Fatalf("seed %d scaled by %d: loop LT/LM %v/%v became %v/%v", seed, k, r.LT, r.LM, sr.LT, sr.LM)
			}
		}
	})
}

func almostEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := b
	if scale < 1 {
		scale = 1
	}
	return d <= 1e-6*scale
}
