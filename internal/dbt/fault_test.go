package dbt

import (
	"strings"
	"testing"

	"repro/internal/interp"
)

// TestTrapAfterAbortsDeterministically: an injected trap must abort the
// run at exactly the configured block count, with a diagnostic naming
// it, and runs without the knob must be untouched.
func TestTrapAfterAbortsDeterministically(t *testing.T) {
	img := buildLooper(t, 500, interp.ProbScale/2)
	cfg := Config{Input: "ref", Optimize: true, Threshold: 10, RegisterTwice: true, TrapAfter: 100}

	for i := 0; i < 2; i++ {
		_, _, err := Run(img, interp.NewUniformTape("trap"), cfg)
		if err == nil {
			t.Fatal("trapped run succeeded")
		}
		if want := "dbt: injected guest trap at block 100"; err.Error() != want {
			t.Fatalf("err = %q, want %q", err.Error(), want)
		}
	}

	clean := cfg
	clean.TrapAfter = 0
	if _, _, err := Run(img, interp.NewUniformTape("trap"), clean); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
}

// TestTrapAfterInRunMulti: when the driver and a follower trap at the
// same block, the shared run returns the trap of the lowest index, the
// driver's, which is also each configuration's serial diagnostic.
func TestTrapAfterInRunMulti(t *testing.T) {
	img := buildLooper(t, 500, interp.ProbScale/2)
	cfgs := []Config{
		{Input: "ref", TrapAfter: 64},
		{Input: "ref", Optimize: true, Threshold: 10, RegisterTwice: true, TrapAfter: 64},
	}
	_, _, err := RunMulti(img, interp.NewUniformTape("trap"), cfgs)
	if err == nil || !strings.Contains(err.Error(), "injected guest trap at block 64") {
		t.Fatalf("err = %v", err)
	}
}
