package dbt

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/profile"
)

// multiConfigs is a configuration spread covering every profiling mode
// RunMulti must replay faithfully: AVEP, a threshold ladder, freezing
// off, register-twice off, adaptive dissolution, continuous trip counts
// and convergence-based registration.
func multiConfigs() []Config {
	return []Config{
		{Input: "ref", Optimize: false},
		{Input: "ref", Optimize: true, Threshold: 5, RegisterTwice: true},
		{Input: "ref", Optimize: true, Threshold: 40, RegisterTwice: true},
		{Input: "ref", Optimize: true, Threshold: 200, RegisterTwice: true},
		{Input: "ref", Optimize: true, Threshold: 40},
		{Input: "ref", Optimize: true, Threshold: 40, RegisterTwice: true, DisableFreeze: true},
		{Input: "ref", Optimize: true, Threshold: 25, RegisterTwice: true, Adaptive: true, AdaptiveMinEntries: 16},
		{Input: "ref", Optimize: true, Threshold: 25, RegisterTwice: true, ContinuousTripCount: true},
		{Input: "ref", Optimize: true, Threshold: 500, RegisterTwice: true, ConvergeRegister: true},
	}
}

func snapEqual(t *testing.T, label string, got, want *profile.Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: RunMulti snapshot differs from serial run\n got: %+v\nwant: %+v", label, got, want)
	}
}

// TestRunMultiMatchesSerialRuns is the core contract: each follower of a
// shared-trace run must produce bit-for-bit the snapshot, statistics and
// cycle totals of a serial run with the same configuration over an
// identical tape.
func TestRunMultiMatchesSerialRuns(t *testing.T) {
	checkFollowersMatchSerial(t, buildLooper(t, 4000, 2400), "multi/ref", multiConfigs())
}

// TestRunMultiBudget: a follower's block-count stop (TrapAfter) aborts
// the whole shared run with that configuration's serial error.
func TestRunMultiBudget(t *testing.T) {
	img := buildLooper(t, 1000, 4000)
	cfgs := []Config{
		{Input: "ref"},
		{Input: "ref", Optimize: true, Threshold: 10, RegisterTwice: true, TrapAfter: 50},
	}
	_, _, err := RunMulti(img, interp.NewUniformTape("multi/b"), cfgs)
	_, _, serr := Run(img, interp.NewUniformTape("multi/b"), cfgs[1])
	if err == nil || serr == nil || err.Error() != serr.Error() {
		t.Fatalf("RunMulti error %v, follower's serial error %v", err, serr)
	}
}

// TestRunMultiErrorsInTraceOrder: a shared-trace run that errors
// returns the error of the configuration that stops first in the trace
// (the lowest index on a tie), which is that configuration's serial
// error — even when the driver's own error comes later in the same
// batch.
func TestRunMultiErrorsInTraceOrder(t *testing.T) {
	// About 200 blocks of loop, then a ret with an empty call stack.
	img, err := guest.Assemble(`
.entry main
main:
	loadi r14, 0
	loadi r10, 200
loop:
	addi r14, r14, 1
	blt r14, r10, loop
	ret
`)
	if err != nil {
		t.Fatal(err)
	}
	const fault = "interp: fault at pc 4 (ret): ret with empty call stack"
	trap := func(k int) string { return fmt.Sprintf("dbt: injected guest trap at block %d", k) }
	for _, c := range []struct {
		name string
		cfgs []Config
		want string
	}{
		{"driver fault", []Config{{}}, fault},
		{"follower trap before driver fault", []Config{{}, {TrapAfter: 50}}, trap(50)},
		{"follower trap before driver trap", []Config{{TrapAfter: 60}, {TrapAfter: 50}}, trap(50)},
		{"driver trap before follower trap", []Config{{TrapAfter: 50}, {TrapAfter: 60}}, trap(50)},
		{"later follower stops first", []Config{{}, {TrapAfter: 60}, {TrapAfter: 50}}, trap(50)},
		{"driver fault before follower trap", []Config{{}, {TrapAfter: 300}}, fault},
		{"follower trap just before driver fault", []Config{{}, {TrapAfter: 200}}, trap(200)},
		{"tie, the driver's fault has the lower index", []Config{{}, {TrapAfter: 201}}, fault},
	} {
		_, _, err := RunMulti(img, interp.NewUniformTape("order"), c.cfgs)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

func TestRunMultiRejectsEmptyConfigs(t *testing.T) {
	img := buildLooper(t, 10, 10)
	if _, _, err := RunMulti(img, interp.NewUniformTape("x"), nil); err == nil {
		t.Fatalf("RunMulti accepted empty config list")
	}
}
