package sim

import "testing"

// nopActor counts fires without touching the heap.
type nopActor struct{ fired int }

func (a *nopActor) OnEvent(op int, arg uint64, data any) { a.fired++ }

// actorFunc adapts a function to Actor.
type actorFunc func(op int, arg uint64, data any)

func (f actorFunc) OnEvent(op int, arg uint64, data any) { f(op, arg, data) }

// TestScheduleFireZeroAlloc pins the hot-path budget: once the slab,
// the calendar ring's buckets and the far heap are warm, AtEvent + Run
// must not allocate at all, including for an event scheduled beyond
// calWindow that waits in the far heap and migrates into the ring. This
// is the per-event cost every simulated message pays several times
// over, so any regression here multiplies across whole figure sweeps —
// the budget is exactly zero, not "small".
func TestScheduleFireZeroAlloc(t *testing.T) {
	e := NewEngine()
	a := &nopActor{}
	// Warm every bucket in the ring (each needs capacity for one event
	// before the steady state is allocation-free), the slab, the free
	// list and the far heap, which takes the second half.
	for i := 0; i < 2*calWindow; i++ {
		e.AtEvent(e.Now()+Cycle(i), a, 0, 0, nil)
	}
	e.Run(0)
	allocs := testing.AllocsPerRun(2000, func() {
		e.AtEvent(e.Now()+3, a, 1, 42, a)
		e.AtEvent(e.Now()+calWindow+5, a, 2, 43, a)
		e.Run(0)
	})
	if allocs != 0 {
		t.Fatalf("schedule+fire allocates %v per op, want 0", allocs)
	}
	if a.fired == 0 {
		t.Fatal("events did not fire")
	}
}
