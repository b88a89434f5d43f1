package dbt

import (
	"testing"

	"repro/internal/interp"
)

// TestEngineCounters: the observability counters must be internally
// consistent — every block dispatches through the lowered records,
// freezes and retranslations appear when the optimizer runs, and
// interrupt checkpoints track the 4096-block cadence.
func TestEngineCounters(t *testing.T) {
	img := buildLooper(t, 4000, 2400)
	cfg := Config{Input: "ref", Optimize: true, Threshold: 40, RegisterTwice: true}

	_, st, err := Run(img, interp.NewUniformTape("ctr/ref"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.BlocksExecuted == 0 || st.FastDispatches != st.BlocksExecuted {
		t.Fatalf("%d lowered dispatches for %d blocks executed", st.FastDispatches, st.BlocksExecuted)
	}
	if st.OptimizationWaves == 0 || st.Retranslations == 0 || st.FreezeEvents == 0 {
		t.Fatalf("optimizer counters empty despite waves: %+v", st)
	}
	if st.Retranslations < st.RegionsFormed {
		t.Fatalf("retranslations %d < regions formed %d", st.Retranslations, st.RegionsFormed)
	}
	if st.CacheLookups == 0 {
		t.Fatal("no cache lookups recorded")
	}
	wantPolls := st.BlocksExecuted / (interruptCheckMask + 1)
	if st.InterruptPolls != wantPolls {
		t.Fatalf("interrupt polls = %d, want %d for %d blocks",
			st.InterruptPolls, wantPolls, st.BlocksExecuted)
	}
}

// TestCountersMatchAcrossSharedTrace: RunMulti followers must report
// the same counter block a serial run does — covered in aggregate by
// TestRunMultiMatchesSerialRuns's DeepEqual, asserted here field-wise
// for the counters so a future stats split cannot silently exempt them.
func TestCountersMatchAcrossSharedTrace(t *testing.T) {
	img := buildLooper(t, 3000, 1800)
	cfgs := []Config{
		{Input: "ref", Optimize: false},
		{Input: "ref", Optimize: true, Threshold: 30, RegisterTwice: true},
		{Input: "ref", Optimize: true, Threshold: 30, RegisterTwice: true, Adaptive: true, AdaptiveMinEntries: 8},
	}
	_, multi, err := RunMulti(img, interp.NewUniformTape("ctr/m"), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		_, serial, err := Run(img, interp.NewUniformTape("ctr/m"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, s := multi[i], serial
		if m.FastDispatches != s.FastDispatches ||
			m.CacheLookups != s.CacheLookups ||
			m.InterruptPolls != s.InterruptPolls ||
			m.FreezeEvents != s.FreezeEvents ||
			m.Retranslations != s.Retranslations {
			t.Fatalf("config %d: follower counters differ from serial\n got: %+v\nwant: %+v", i, m, s)
		}
	}
}
