package core

import (
	"errors"
	"testing"

	"dresar/internal/sim"
)

// reposter reschedules itself forever on one engine without ever
// marking progress: a runaway event source for cancellation and
// watchdog tests.
type reposter struct{ e *sim.Engine }

func (r *reposter) OnEvent(op int, arg uint64, data any) {
	r.e.AfterEvent(1, r, op, arg, nil)
}

// TestMachineAbortSerial: a tripped stop probe turns a serial Run into
// a typed *AbortError carrying the partial state (cycle reached,
// events still pending), instead of running forever.
func TestMachineAbortSerial(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.Eng.AtEvent(0, &reposter{m.Eng}, 0, 0, nil)
	polls := 0
	m.SetStopCheck(func() bool { polls++; return polls >= 2 })
	runErr := m.Run(0)
	var abort *AbortError
	if !errors.As(runErr, &abort) {
		t.Fatalf("Run returned %v, want *AbortError", runErr)
	}
	if abort.Pending == 0 {
		t.Fatalf("abort should report the still-pending events: %+v", abort)
	}
}
