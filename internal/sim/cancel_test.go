package sim

import "testing"

// reposter reschedules itself forever: an event source that never
// drains, standing in for a runaway simulation that only cooperative
// cancellation can stop.
type reposter struct{ e *Engine }

func (r *reposter) OnEvent(op int, arg uint64, data any) {
	r.e.AfterEvent(1, r, op, arg, nil)
}

// TestEngineStopCheck: the serial run loop polls the stop probe and
// winds down promptly — within one poll interval — marking the engine
// Aborted while leaving the unexecuted events queued.
func TestEngineStopCheck(t *testing.T) {
	e := NewEngine()
	r := &reposter{e}
	e.AtEvent(0, r, 0, 0, nil)
	polls := 0
	e.SetStopCheck(func() bool { polls++; return polls >= 3 })
	n := e.Run(0)
	if !e.Aborted() {
		t.Fatalf("engine not marked aborted after stop check tripped")
	}
	if n == 0 || n > 3*stopPollEvents {
		t.Fatalf("ran %d events; want >0 and <= %d (three poll intervals)", n, 3*stopPollEvents)
	}
	if e.Pending() == 0 {
		t.Fatalf("aborted run should leave the pending event queued")
	}
	// Re-arming clears the sticky mark and a nil probe runs free.
	e.SetStopCheck(nil)
	if e.Aborted() {
		t.Fatalf("SetStopCheck(nil) must clear Aborted")
	}
}

// TestEngineStopCheckDrain covers the bounded loop: the probe stops
// Drain too, without the clock jumping to the bound.
func TestEngineStopCheckDrain(t *testing.T) {
	e := NewEngine()
	r := &reposter{e}
	e.AtEvent(0, r, 0, 0, nil)
	e.SetStopCheck(func() bool { return true })
	e.Drain(1 << 30)
	if !e.Aborted() {
		t.Fatalf("Drain ignored the stop check")
	}
	if e.Now() >= 1<<30 {
		t.Fatalf("aborted Drain advanced the clock to the bound (now=%d)", e.Now())
	}
}

// TestShardedStopCheck: the coordinator polls the probe per quantum;
// an immediate trip stops the run at the first barrier with every
// worker goroutine joined (Run returning is the join), the engines
// still holding their events, and Aborted reporting the cause.
func TestShardedStopCheck(t *testing.T) {
	se := NewShardedEngine(4, 8)
	for _, e := range se.Engines() {
		e.AtEvent(0, &reposter{e}, 0, 0, nil)
	}
	se.SetStopCheck(func() bool { return true })
	if n := se.Run(0); n != 0 {
		t.Fatalf("stop check before first quantum should run 0 events, ran %d", n)
	}
	if !se.Aborted() {
		t.Fatalf("sharded engine not marked aborted")
	}
	if se.Pending() == 0 {
		t.Fatalf("aborted sharded run should leave events pending")
	}
}

// TestShardedStopCheckMidRun: a probe that trips after a few quanta
// stops the run within one quantum of the trip — the acceptance bound
// for cancelled jobs — rather than running to drain.
func TestShardedStopCheckMidRun(t *testing.T) {
	se := NewShardedEngine(2, 8)
	for _, e := range se.Engines() {
		e.AtEvent(0, &reposter{e}, 0, 0, nil)
	}
	quanta := 0
	se.SetStopCheck(func() bool { quanta++; return quanta > 5 })
	se.Run(0)
	if !se.Aborted() {
		t.Fatalf("sharded engine not marked aborted")
	}
	// 5 allowed quanta of 8 cycles each: the clock must sit within one
	// quantum of the cancel point.
	if now := se.Now(); now > 6*8 {
		t.Fatalf("run continued %d cycles past a cancel at quantum 5", now)
	}
}
