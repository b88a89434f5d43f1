package dbt

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/guest"
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

// TestMidBlockFaultMatchesInterpreter: the five-instruction loop block's
// third instruction faults once its load walks off the 16-word data
// segment, after the block ran cleanly. The engine keeps no decoded
// body, so faultAt decodes the faulting word again; the run must return
// interp.Exec's fault and leave the interpreter's architectural state,
// the first two instructions' writes of the faulting execution included.
func TestMidBlockFaultMatchesInterpreter(t *testing.T) {
	img, err := guest.Assemble(`
.entry main
.data 16
main:
	loadi r2, -3
loop:
	addi r1, r1, 5
	addi r2, r2, 3
	load r3, 0(r2)
	add r4, r4, r3
	jmp loop
`)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(img, interp.NewUniformTape("fault"), Config{Input: "ref", Optimize: true, Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, _, runErr := e.Run()
	m, err := interp.NewMachine(img, interp.NewUniformTape("fault"))
	if err != nil {
		t.Fatal(err)
	}
	refErr := m.Run()
	var fault *interp.Fault
	if !errors.As(refErr, &fault) {
		t.Fatalf("reference run ended with %v, want an execution fault", refErr)
	}
	if errString(runErr) != refErr.Error() {
		t.Fatalf("engine error %q, interpreter %q", errString(runErr), refErr)
	}
	if es, ms := e.State(), m.State(); es.Regs != ms.Regs || !reflect.DeepEqual(es.Mem, ms.Mem) || !reflect.DeepEqual(es.Ret, ms.Ret) {
		t.Fatalf("state differs:\nengine: %v %v %v\ninterp: %v %v %v", es.Regs, es.Mem, es.Ret, ms.Regs, ms.Mem, ms.Ret)
	}
	if got := e.State().Regs[1]; got != 7*5 {
		t.Fatalf("r1 = %d, want 35: the faulting execution's first instruction did not run", got)
	}
}
