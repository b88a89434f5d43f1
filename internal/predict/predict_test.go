package predict

import (
	"reflect"
	"testing"

	"repro/internal/dbt"
)

func TestNewKnowsEveryRegisteredName(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := New("oracle"); err == nil {
		t.Fatal("New(oracle) succeeded for an unregistered predictor")
	}
}

func TestParseList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
		ok   bool
	}{
		{"", nil, true},
		{"all", Names(), true},
		{"*", Names(), true},
		{"2bit,gshare", []string{"2bit", "gshare"}, true},
		{"gshare, 2bit", []string{"gshare", "2bit"}, true}, // order preserved, spaces trimmed
		{"2bit,2bit", nil, false},
		{"2bit,,gshare", nil, false},
		{"nope", nil, false},
	}
	for _, c := range cases {
		got, err := ParseList(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseList(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseList(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// observe1 folds one branch into p and reports whether p mispredicted
// it.
func observe1(p Predictor, pc int32, taken bool) bool {
	return p.Observe([]dbt.BranchEvent{{PC: pc, Taken: taken}}) == 1
}

// replay drives one predictor over a single-branch stream, one event
// per Observe call, and returns its mispredict count.
func replay(p Predictor, pc int32, outcomes []bool) uint64 {
	var mis uint64
	for _, taken := range outcomes {
		if observe1(p, pc, taken) {
			mis++
		}
	}
	return mis
}

func pattern(n int, f func(i int) bool) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

func TestStaticPredictors(t *testing.T) {
	stream := pattern(100, func(i int) bool { return i%4 != 0 }) // 75% taken
	taken, _ := New("taken")
	notTaken, _ := New("nottaken")
	if mis := replay(taken, 8, stream); mis != 25 {
		t.Errorf("always-taken mispredicts = %d, want 25", mis)
	}
	if mis := replay(notTaken, 8, stream); mis != 75 {
		t.Errorf("always-not-taken mispredicts = %d, want 75", mis)
	}
}

func TestOneBitFollowsLastDirection(t *testing.T) {
	p, _ := New("1bit")
	// Alternating stream: the 1-bit scheme mispredicts every branch
	// after warmup (it always predicts the previous direction).
	stream := pattern(40, func(i int) bool { return i%2 == 0 })
	// First branch: table starts not-taken, actual taken → mispredict;
	// from then on each prediction equals the previous (opposite)
	// outcome, so all 40 miss.
	if mis := replay(p, 8, stream); mis != 40 {
		t.Errorf("1bit on alternating stream: %d mispredicts, want 40", mis)
	}
}

func TestTwoBitHysteresis(t *testing.T) {
	p, _ := New("2bit")
	pc := int32(8)
	// Saturate taken.
	for i := 0; i < 4; i++ {
		observe1(p, pc, true)
	}
	// A single not-taken outcome must not flip a saturated counter: the
	// next not-taken branch is still predicted taken...
	if !observe1(p, pc, false) {
		t.Fatal("saturated 2bit predicted not-taken")
	}
	if !observe1(p, pc, false) {
		t.Fatal("2bit flipped after one off-direction outcome")
	}
	// ...but two must.
	if observe1(p, pc, false) {
		t.Fatal("2bit still predicts taken after two not-taken outcomes")
	}
}

func TestTwoBitBeatsOneBitOnBiasedStream(t *testing.T) {
	// 90% taken with isolated not-taken glitches: the 1-bit scheme pays
	// two mispredicts per glitch, the 2-bit scheme one.
	stream := pattern(200, func(i int) bool { return i%10 != 0 })
	one, _ := New("1bit")
	two, _ := New("2bit")
	m1 := replay(one, 8, stream)
	m2 := replay(two, 8, stream)
	if m2 >= m1 {
		t.Errorf("2bit (%d) should beat 1bit (%d) on a glitchy biased stream", m2, m1)
	}
}

func TestGShareLearnsHistoryCorrelation(t *testing.T) {
	// A strict period-2 pattern is fully determined by the last
	// outcome: with history in the index, gshare trains separate
	// counters for the two contexts and converges to zero steady-state
	// mispredicts, while a per-address 2-bit counter stays wrong half
	// the time.
	stream := pattern(400, func(i int) bool { return i%2 == 0 })
	g, _ := New("gshare")
	two, _ := New("2bit")
	mg := replay(g, 8, stream)
	m2 := replay(two, 8, stream)
	if mg > 20 {
		t.Errorf("gshare mispredicted %d of 400 on a period-2 pattern; want warmup only", mg)
	}
	if mg >= m2 {
		t.Errorf("gshare (%d) should beat 2bit (%d) on a history-correlated stream", mg, m2)
	}
}

func TestPerceptronLearnsLongPeriod(t *testing.T) {
	// Period-7 patterns exceed gshare's effective reach at this table
	// size less than they exercise the perceptron's per-bit weights;
	// the perceptron must converge to near-zero steady state.
	stream := pattern(2100, func(i int) bool { return i%7 < 3 })
	p, _ := New("perceptron")
	mp := replay(p, 8, stream)
	if mp > 200 {
		t.Errorf("perceptron mispredicted %d of 2100 on a period-7 pattern", mp)
	}
}

func TestPerceptronWeightsSaturate(t *testing.T) {
	p := newPerceptron()
	evs := make([]dbt.BranchEvent, 10000)
	for i := range evs {
		evs[i] = dbt.BranchEvent{PC: 8, Taken: true}
	}
	p.Observe(evs)
	for r := range p.weights {
		for i, w := range p.weights[r] {
			if w > percWMax || w < percWMin {
				t.Fatalf("weight[%d][%d] = %d outside [%d, %d]", r, i, w, percWMin, percWMax)
			}
		}
	}
	if dot(&p.weights[8], p.hist) < 0 {
		t.Fatal("perceptron predicts not-taken after training always-taken")
	}
}

// Perceptron boundary pins. The training rule is: train on a
// mispredict, or while |output| <= theta (inclusive). The weight clamp
// is the int8 range [-128, 127] exactly. These tests construct exact
// boundary outputs by hand — history is all-zeros, so every history
// weight contributes its negation and the bias contributes itself.

// percWith sets up a perceptron whose dot product for pc 8 is exactly
// the given bias minus the first history weight.
func percWith(bias, w1 int16) *perceptron {
	p := newPerceptron()
	p.weights[8][0] = bias
	p.weights[8][1] = w1
	return p
}

func TestPerceptronTrainsAtExactlyTheta(t *testing.T) {
	// output = theta exactly, prediction correct: the inclusive rule
	// still trains (the strict form stopped one update early here).
	p := percWith(percTheta, 0)
	if got := dot(&p.weights[8], p.hist); got != percTheta {
		t.Fatalf("constructed output = %d, want %d", got, percTheta)
	}
	if observe1(p, 8, true) {
		t.Fatal("mispredicted a taken branch at output theta")
	}
	if w := p.weights[8][0]; w != percTheta+1 {
		t.Fatalf("bias after correct prediction at |output|==theta: %d, want %d (must train)", w, percTheta+1)
	}
	if p.hist != 1 {
		t.Fatalf("history after one taken branch = %#x, want 1", p.hist)
	}
	if dot(&p.weights[8], p.hist) < 0 {
		t.Fatal("prediction flipped by an on-edge training update")
	}
}

func TestPerceptronStopsTrainingPastTheta(t *testing.T) {
	// output = theta+1, prediction correct: confidence has cleared the
	// threshold, no update.
	p := percWith(percTheta+1, 0)
	observe1(p, 8, true)
	if w := p.weights[8][0]; w != percTheta+1 {
		t.Fatalf("bias after correct prediction past theta: %d, want unchanged %d", w, percTheta+1)
	}
}

func TestPerceptronTrainsAtExactlyMinusTheta(t *testing.T) {
	p := percWith(-percTheta, 0)
	if got := dot(&p.weights[8], p.hist); got != -percTheta {
		t.Fatalf("constructed output = %d, want %d", got, -percTheta)
	}
	if observe1(p, 8, false) {
		t.Fatal("mispredicted a not-taken branch at output -theta")
	}
	if w := p.weights[8][0]; w != -percTheta-1 {
		t.Fatalf("bias after correct prediction at -theta: %d, want %d (must train)", w, -percTheta-1)
	}
}

func TestPerceptronClampAtExactlyMax(t *testing.T) {
	// Bias saturated at +127; the history weight drags the output back
	// inside theta so the update rule fires. The agreeing bump must hold
	// at the clamp, never wrap.
	p := percWith(percWMax, 100)
	if got := dot(&p.weights[8], p.hist); got != percWMax-100 {
		t.Fatalf("constructed output = %d", got)
	}
	observe1(p, 8, true)
	if w := p.weights[8][0]; w != percWMax {
		t.Fatalf("saturated bias moved to %d, want clamped %d", w, percWMax)
	}
	// The disagreeing history weight still decrements normally.
	if w := p.weights[8][1]; w != 99 {
		t.Fatalf("history weight = %d, want 99", w)
	}
}

func TestPerceptronClampAtExactlyMin(t *testing.T) {
	p := percWith(percWMin, -100)
	if got := dot(&p.weights[8], p.hist); got != percWMin+100 {
		t.Fatalf("constructed output = %d", got)
	}
	observe1(p, 8, false)
	if w := p.weights[8][0]; w != percWMin {
		t.Fatalf("saturated bias moved to %d, want clamped %d", w, percWMin)
	}
	if w := p.weights[8][1]; w != -99 {
		t.Fatalf("history weight = %d, want -99", w)
	}
}

func TestSuiteRecordCountsPerPredictor(t *testing.T) {
	s, err := NewSuite([]string{"taken", "nottaken"})
	if err != nil {
		t.Fatal(err)
	}
	s.Record(8, true)
	s.Record(8, true)
	s.Record(8, false)
	res := s.Results()
	want := []Result{
		{Predictor: "taken", Branches: 3, Mispredicts: 1},
		{Predictor: "nottaken", Branches: 3, Mispredicts: 2},
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("Results() = %+v, want %+v", res, want)
	}
	if got := res[0].MispredictRate(); got != 1.0/3.0 {
		t.Errorf("MispredictRate = %v", got)
	}
	if got := (Result{}).MispredictRate(); got != 0 {
		t.Errorf("empty-stream MispredictRate = %v, want 0", got)
	}
	// Results must be a copy, not an alias into the live tallies.
	s.Record(8, true)
	if res[0].Branches != 3 {
		t.Fatal("Results() aliases the suite's live tallies")
	}
}

func TestSuiteRejectsUnknown(t *testing.T) {
	if _, err := NewSuite([]string{"taken", "bogus"}); err == nil {
		t.Fatal("NewSuite accepted an unknown predictor")
	}
}
