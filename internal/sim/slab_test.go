package sim

import "testing"

// TestSlabReleasesFiredReferences: a fired event's slot must not keep
// its actor, data word or closure reachable, so the message it carried
// is collectable as soon as it fires. After a partial Drain every
// vacated slot is clear and every pending one intact; after Run every
// slot is vacated and clear. The schedule mixes At closures, AtEvent
// with pointer data words and AtEventSlack, near and beyond calWindow.
func TestSlabReleasesFiredReferences(t *testing.T) {
	e := NewEngine()
	a := &nopActor{}
	for i := 0; i < 300; i++ {
		c := Cycle(i * 7)
		e.AtEvent(c, a, i, uint64(i), &struct{ v int }{i})
		e.At(c+1, func() { a.fired++ })
		e.AtEventSlack(c+2, 5, a, i, 0, a)
	}
	check := func(when string) {
		t.Helper()
		if got := len(e.slab) - len(e.free); got != e.Pending() {
			t.Fatalf("%s: %d occupied slots for %d pending events", when, got, e.Pending())
		}
		vacated := make(map[uint32]bool, len(e.free))
		for _, s := range e.free {
			vacated[s] = true
			if ev := &e.slab[s]; ev.actor != nil || ev.data != nil {
				t.Fatalf("%s: vacated slot %d still holds actor %v, data %v", when, s, ev.actor, ev.data)
			}
		}
		for s := range e.slab {
			if !vacated[uint32(s)] && e.slab[s].actor == nil {
				t.Fatalf("%s: pending slot %d lost its actor", when, s)
			}
		}
	}
	e.Drain(1000)
	if e.Pending() == 0 {
		t.Fatal("Drain(1000) left nothing pending")
	}
	check("after Drain")
	e.Run(0)
	check("after Run")
	if a.fired != 900 {
		t.Fatalf("fired %d events, want 900", a.fired)
	}
}

// TestSlabBoundedByPeakPending: the slab reuses a fired slot before it
// grows, so over 100K schedule/fire rounds it never holds more records
// than the peak number of pending events. Handlers reschedule while
// their own slot is being vacated, one horizon in 16 lies at least
// calWindow out (those events wait in the far heap and migrate into the
// ring), and every 1000 rounds the queue drains completely.
func TestSlabBoundedByPeakPending(t *testing.T) {
	e := NewEngine()
	rng := NewRNG(0x51AB)
	peak := 0
	var hop actorFunc
	schedule := func() {
		d := Cycle(rng.Intn(9))
		if rng.Intn(16) == 0 {
			d += calWindow + Cycle(rng.Intn(calWindow))
		}
		e.AtEvent(e.Now()+d, hop, 0, 0, nil)
		if p := e.Pending(); p > peak {
			peak = p
		}
		if len(e.slab) > peak {
			t.Fatalf("slab holds %d records, peak pending is %d", len(e.slab), peak)
		}
	}
	hop = func(int, uint64, any) {
		if rng.Intn(2) == 0 {
			schedule()
		}
	}
	for round := 1; round <= 100_000; round++ {
		for k := rng.Intn(8); k > 0; k-- {
			schedule()
		}
		if round%1000 == 0 {
			e.Run(0)
		} else {
			e.Run(1 + rng.Intn(7))
		}
	}
	if peak < 16 {
		t.Fatalf("peak pending %d: the schedule never built a queue", peak)
	}
}
