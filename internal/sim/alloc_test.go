package sim

import "testing"

// nopActor counts fires without touching the heap.
type nopActor struct{ fired int }

func (a *nopActor) OnEvent(op int, arg uint64, data any) { a.fired++ }

// TestScheduleFireZeroAlloc pins the hot-path budget: once the
// calendar ring's buckets are warm, AtEvent + Run must not allocate at
// all. This is the per-event cost every simulated message pays several
// times over, so any regression here multiplies across whole figure
// sweeps — the budget is exactly zero, not "small".
func TestScheduleFireZeroAlloc(t *testing.T) {
	e := NewEngine()
	a := &nopActor{}
	// Warm every bucket in the ring: each needs capacity for one event
	// before the steady state is allocation-free.
	for i := 0; i < 2048; i++ {
		e.AtEvent(e.Now()+Cycle(i), a, 0, 0, nil)
	}
	e.Run(0)
	allocs := testing.AllocsPerRun(2000, func() {
		e.AtEvent(e.Now()+3, a, 1, 42, nil)
		e.Run(0)
	})
	if allocs != 0 {
		t.Fatalf("schedule+fire allocates %v per op, want 0", allocs)
	}
	if a.fired == 0 {
		t.Fatal("events did not fire")
	}
}
