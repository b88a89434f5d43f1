package dbt

import (
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

// TestRunMultiDriverPathsAgree cross-validates the two execution paths
// of the shared trace: a fast-path driver and a generic-dispatch driver
// must hand every follower the same outcomes.
func TestRunMultiDriverPathsAgree(t *testing.T) {
	img := buildLooper(t, 2000, 4000)
	fastSnaps, _, err := RunMulti(img, interp.NewUniformTape("multi/x"), multiConfigs())
	if err != nil {
		t.Fatalf("fast RunMulti: %v", err)
	}
	slowCfgs := multiConfigs()
	slowCfgs[0].DisableFastPath = true
	slowSnaps, _, err := RunMulti(img, interp.NewUniformTape("multi/x"), slowCfgs)
	if err != nil {
		t.Fatalf("generic RunMulti: %v", err)
	}
	for i := range fastSnaps {
		snapEqual(t, "driver-path", fastSnaps[i], slowSnaps[i])
	}
}

// TestRunMultiBudget: a follower's block budget aborts the whole shared
// run, matching the serial behaviour of that configuration.
func TestRunMultiBudget(t *testing.T) {
	img := buildLooper(t, 1000, 4000)
	cfgs := []Config{
		{Input: "ref"},
		{Input: "ref", Optimize: true, Threshold: 10, RegisterTwice: true, MaxBlockExecs: 50},
	}
	_, _, err := RunMulti(img, interp.NewUniformTape("multi/b"), cfgs)
	if err == nil {
		t.Fatalf("RunMulti ignored follower block budget")
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
	const (
		fault  = "interp: fault at pc 4 (ret): ret with empty call stack"
		budget = "dbt: block execution budget 50 exhausted"
	)
	for _, c := range []struct {
		name string
		cfgs []Config
		want string
	}{
		{"driver fault", []Config{{}}, fault},
		{"follower budget before driver fault", []Config{{}, {MaxBlockExecs: 50}}, budget},
		{"follower budget before driver trap", []Config{{TrapAfter: 60}, {MaxBlockExecs: 50}}, budget},
		{"driver budget before follower trap", []Config{{MaxBlockExecs: 50}, {TrapAfter: 60}}, budget},
		{"later follower stops first", []Config{{}, {TrapAfter: 60}, {MaxBlockExecs: 50}}, budget},
		{"tie, budget has the lower index", []Config{{}, {MaxBlockExecs: 50}, {TrapAfter: 51}}, budget},
		{"tie, trap has the lower index", []Config{{}, {TrapAfter: 51}, {MaxBlockExecs: 50}}, "dbt: injected guest trap at block 51"},
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
