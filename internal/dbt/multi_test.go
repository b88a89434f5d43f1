package dbt

import (
	"reflect"
	"testing"

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

func TestRunMultiRejectsEmptyConfigs(t *testing.T) {
	img := buildLooper(t, 10, 10)
	if _, _, err := RunMulti(img, interp.NewUniformTape("x"), nil); err == nil {
		t.Fatalf("RunMulti accepted empty config list")
	}
}
