package sim

import (
	"sort"
	"testing"
)

// TestAtIntoPastUnderArmedWatchdog schedules into the past while the
// watchdog is armed: the event must clamp to Now (never rewinding the
// clock), fire this cycle, and the watchdog must neither trip from the
// clamp nor miss a genuine stall that follows it.
func TestAtIntoPastUnderArmedWatchdog(t *testing.T) {
	e := NewEngine()
	tripped := false
	e.SetWatchdog(100, func(now, since Cycle) { tripped = true })

	var fired []Cycle
	e.At(50, func() {
		// From cycle 50, aim at cycle 10: the engine must clamp to 50,
		// not travel backwards.
		e.At(10, func() { fired = append(fired, e.Now()) })
		e.Progress()
	})
	e.Drain(60)
	if len(fired) != 1 || fired[0] != 50 {
		t.Fatalf("past-scheduled event fired at %v, want [50]", fired)
	}
	if tripped || e.Stalled() {
		t.Fatalf("watchdog tripped on a clamped past schedule")
	}

	// The clamp must not have disturbed the watchdog bookkeeping: a
	// genuine livelock afterwards still trips at the bound.
	var tick func()
	tick = func() { e.After(1, tick) }
	e.After(1, tick)
	e.Drain(10_000)
	if !tripped || !e.Stalled() {
		t.Fatalf("watchdog failed to trip on livelock after clamped schedule")
	}
	if since := e.SinceProgress(); since < 100 {
		t.Fatalf("tripped with SinceProgress=%d, want >= 100", since)
	}
}

// TestPendingAcrossSameCycleBursts checks the event count through a
// burst of same-cycle schedules, including events scheduled for the
// current cycle from inside a handler (which must run before the clock
// moves, draining the same bucket that is being appended to).
func TestPendingAcrossSameCycleBursts(t *testing.T) {
	e := NewEngine()
	const burst = 100
	ran := 0
	for i := 0; i < burst; i++ {
		e.At(5, func() {
			ran++
			if ran <= 3 {
				// Re-burst at the same cycle from inside a handler.
				e.At(5, func() { ran++ })
			}
		})
	}
	if got := e.Pending(); got != burst {
		t.Fatalf("Pending=%d before run, want %d", got, burst)
	}
	e.Drain(5)
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending=%d after same-cycle burst, want 0", got)
	}
	if want := burst + 3; ran != want {
		t.Fatalf("ran %d events, want %d", ran, want)
	}
	if e.Now() != 5 {
		t.Fatalf("Now=%d after burst, want 5", e.Now())
	}
}

// scheduler is the surface the differential test drives: Engine and
// the reference queue both provide it.
type scheduler interface {
	Now() Cycle
	At(t Cycle, fn func())
	After(d Cycle, fn func())
	Run(limit int) int
}

// refQueue is the reference the calendar queue is checked against:
// pending events sit in a slice sorted by (cycle, schedule order), and
// the first one fires next. It shares no code with Engine.
type refQueue struct {
	now  Cycle
	pend []refEvent
}

type refEvent struct {
	at Cycle
	fn func()
}

func (q *refQueue) Now() Cycle { return q.now }

// At inserts behind every pending event at cycle <= t, so same-cycle
// events keep their schedule order.
func (q *refQueue) At(t Cycle, fn func()) {
	if t < q.now {
		t = q.now
	}
	i := sort.Search(len(q.pend), func(i int) bool { return q.pend[i].at > t })
	q.pend = append(q.pend, refEvent{})
	copy(q.pend[i+1:], q.pend[i:])
	q.pend[i] = refEvent{at: t, fn: fn}
}

func (q *refQueue) After(d Cycle, fn func()) { q.At(q.now+d, fn) }

func (q *refQueue) Run(limit int) int {
	n := 0
	for len(q.pend) > 0 && (limit <= 0 || n < limit) {
		ev := q.pend[0]
		q.pend = q.pend[1:]
		q.now = ev.at
		ev.fn()
		n++
	}
	return n
}

// TestEngineMatchesReferenceQueue replays one randomized schedule on
// the engine and on refQueue and requires identical execution traces:
// (cycle, id) for every fired event, with self-rescheduling handlers
// that stress the near/far boundary (offsets straddling the calendar
// window) and same-cycle FIFO order. Handlers schedule right after
// their bucket drains, which is what exposes an earliest-cycle cache
// that trusts a fresh schedule while earlier buckets still hold events.
func TestEngineMatchesReferenceQueue(t *testing.T) {
	type step struct {
		at Cycle
		id int
	}
	run := func(s scheduler) []step {
		rng := NewRNG(0xD1FF)
		var trace []step
		nextID := 0
		// A fixed menu of offsets crossing the calendar window (1024):
		// same-cycle, near, boundary-1, boundary, and far.
		offsets := []Cycle{0, 1, 3, 1023, 1024, 1025, 5000}
		var fire func(id, depth int) func()
		fire = func(id, depth int) func() {
			return func() {
				trace = append(trace, step{s.Now(), id})
				if depth > 0 {
					for i := 0; i < 2; i++ {
						nextID++
						d := offsets[rng.Intn(len(offsets))]
						s.After(d, fire(nextID, depth-1))
					}
				}
			}
		}
		for i := 0; i < 32; i++ {
			nextID++
			s.At(Cycle(rng.Intn(2000)), fire(nextID, 3))
		}
		s.Run(1_000_000)
		return trace
	}
	// Both runs draw from identically-seeded RNGs, so the schedules are
	// the same; only the queue implementation differs.
	got := run(NewEngine())
	want := run(&refQueue{})
	if len(got) != len(want) {
		t.Fatalf("trace length: engine=%d reference=%d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("trace diverges at %d: engine=%+v reference=%+v", i, got[i], want[i])
		}
	}
	if len(got) == 0 {
		t.Fatal("empty trace")
	}
}
