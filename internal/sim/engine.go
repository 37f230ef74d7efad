// Package sim provides the discrete-event simulation kernel used by
// every timed component in the DRESAR reproduction: a deterministic
// event queue keyed by (cycle, insertion sequence), a cycle clock, a
// seeded pseudo-random number generator, and statistics primitives.
//
// All simulated time is measured in 200MHz core cycles (the paper's
// switch core, link, and processor all run at 200MHz). The engine is
// strictly single-threaded and deterministic: two events scheduled for
// the same cycle fire in the order they were scheduled.
//
// Every pending event is one record in the engine's slab, written once
// when it is scheduled; a fired record's slot goes on a last-in
// first-out free list for the next schedule. The queue is a calendar
// queue over those slots: a power-of-two ring of per-cycle buckets
// covering the next calWindow cycles orders their 4-byte indices, and
// a min-heap of indices holds the events scheduled further out.
// Near-term scheduling — the steady state for a cycle-accurate network
// model, where everything lands within a few cycles — writes one record
// and appends one index, with no heap sift and no interface boxing, so
// the hot path allocates nothing once the slab and buckets are warm.
package sim

// Cycle is a point in simulated time, in 200MHz core cycles.
type Cycle uint64

// Actor receives closure-free events. Components implement OnEvent and
// schedule with AtEvent/AfterEvent, packing what a closure would have
// captured into the opcode, the integer argument, and (for pointers)
// the data word; this keeps steady-state scheduling allocation-free.
type Actor interface {
	OnEvent(op int, arg uint64, data any)
}

// event is a scheduled callback, 64 bytes. Same-cycle ties are broken
// by seq, the engine's scheduling counter at creation, so (at, seq) is
// schedule order. Firing calls actor.OnEvent(op, arg, data); an At
// closure rides in data behind closureActor.
type event struct {
	at    Cycle
	seq   uint64
	actor Actor
	op    int
	arg   uint64
	data  any
}

// closureActor fires At closures, which ride in the event's data word:
// a func value is one pointer, so boxing it in an interface does not
// allocate, and closures share the actor events' one dispatch path.
type closureActor struct{}

func (closureActor) OnEvent(_ int, _ uint64, data any) { data.(func())() }

// before reports whether a fires ahead of b: cycle order, then
// scheduling order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

const (
	// calWindow is the span of the bucket ring. Events at most
	// calWindow-1 cycles out take the bucket fast path; anything
	// further (NI timeouts, watchdog horizons) overflows to farHeap.
	// Power of two so the cycle→bucket map is a mask.
	calWindow = 1024
	calMask   = calWindow - 1
)

// bucket is one cycle's FIFO of slab slot indices. head indexes the
// next event to fire; the backing array is reused across window wraps,
// so a warmed-up engine appends without allocating.
type bucket struct {
	ev   []uint32
	head int
}

// farHeap is a min-heap of slab slot indices ordered by their records'
// key (at, seq).
type farHeap []uint32

func (h farHeap) less(slab []event, i, j int) bool { return slab[h[i]].before(&slab[h[j]]) }

func (h *farHeap) push(slab []event, slot uint32) {
	*h = append(*h, slot)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(slab, i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *farHeap) pop(slab []event) uint32 {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		min := l
		if r < n && old.less(slab, r, l) {
			min = r
		}
		if !old.less(slab, min, i) {
			break
		}
		old[i], old[min] = old[min], old[i]
		i = min
	}
	return top
}

// Engine is a deterministic discrete-event scheduler.
// The zero value is ready to use.
type Engine struct {
	now Cycle
	seq uint64 // events scheduled so far: the next event's tie-break stamp
	cnt int    // scheduled events not yet executed

	// Calendar queue state. Each pending event is a record in slab; the
	// buckets and the far heap hold slot indices, and free lists the
	// vacated slots, so len(slab) == cnt + len(free). Invariants,
	// restored after every clock advance by migrate():
	//   - every bucket-resident event has at in [now, now+calWindow)
	//     and lives in buckets[at&calMask];
	//   - every far-heap event has at >= now+calWindow.
	slab    []event
	free    []uint32
	buckets [calWindow]bucket
	far     farHeap
	// nextAt caches the earliest pending cycle so the run loops don't
	// rescan the ring on every peek. Invalidated when the cycle's
	// bucket drains; refreshed on the next peek.
	nextAt    Cycle
	nextValid bool

	stopped bool

	// Cooperative-cancellation state: stopCheck, when non-nil, is
	// polled by the run loops every stopPollEvents executed events. A
	// true return stops the innermost loop like Stop and marks the
	// engine aborted, so callers can distinguish "cancelled from
	// outside" from "ran out of events". The check must be safe to
	// call from this goroutine while other goroutines flip its source
	// (an atomic flag or context.Context qualifies).
	stopCheck func() bool
	stopPoll  int
	aborted   bool

	// Liveness watchdog state: components mark forward progress via
	// Progress(); the run loops stop when the clock advances watchLimit
	// cycles past the last mark while events are still firing (a
	// livelock — e.g. an endless retry storm — or a stalled quiesce).
	watchLimit   Cycle
	onStall      func(now, sinceProgress Cycle)
	lastProgress Cycle
	stalled      bool
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// carveBuckets seeds every bucket with room for a few slot indices
// carved from one backing array: growing 1024 bucket slices from nil
// costs thousands of doubling reallocations per engine. One allocation
// here replaces the first few doublings of each bucket; hot buckets
// still grow past the carve on their own.
func (e *Engine) carveBuckets() {
	const seedCap = 4
	backing := make([]uint32, calWindow*seedCap)
	for i := range e.buckets {
		lo := i * seedCap
		e.buckets[i].ev = backing[lo : lo : lo+seedCap]
	}
}

// Now reports the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Pending reports the number of scheduled events not yet executed.
func (e *Engine) Pending() int { return e.cnt }

// slot returns a free slab slot for a new record, growing the slab only
// when every slot holds a pending event.
func (e *Engine) slot() uint32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		return s
	}
	e.slab = append(e.slab, event{})
	return uint32(len(e.slab) - 1)
}

// schedule enqueues the record in slot s (its at already clamped to
// >= now). Every new record carries the highest seq yet, so appending
// keeps a bucket in (at, seq) order.
func (e *Engine) schedule(s uint32) {
	ev := &e.slab[s]
	e.cnt++
	if ev.at < e.now+calWindow {
		b := &e.buckets[ev.at&calMask]
		b.ev = append(b.ev, s)
	} else {
		e.far.push(e.slab, s)
	}
	// Keep the earliest-cycle cache honest: a valid cache may only be
	// lowered, and an invalid cache may only be revalidated when this
	// event is provably the earliest — i.e. it is the only one pending.
	// Revalidating unconditionally would let a schedule issued right
	// after a bucket drained (nextValid just cleared, other buckets
	// still holding events) publish a too-high nextAt, and peek would
	// skip every earlier bucket until the ring wrapped.
	if e.nextValid {
		if ev.at < e.nextAt {
			e.nextAt = ev.at
		}
	} else if e.cnt == 1 {
		e.nextAt, e.nextValid = ev.at, true
	}
}

// At schedules fn to run at cycle t. Scheduling in the past (t < Now)
// runs fn at the current cycle instead; the engine never travels
// backwards.
func (e *Engine) At(t Cycle, fn func()) { e.AtEvent(t, closureActor{}, 0, 0, fn) }

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Cycle, fn func()) { e.At(e.now+d, fn) }

// AtEvent schedules a closure-free event: at cycle t (clamped to >=
// Now, like At), a.OnEvent(op, arg, data) fires. It shares the
// (cycle, sequence) order with At-scheduled closures. Passing a
// pointer (or nil) as data does not allocate; the steady-state
// schedule+fire path is allocation-free once the slab and buckets are
// warm.
func (e *Engine) AtEvent(t Cycle, a Actor, op int, arg uint64, data any) {
	if t < e.now {
		t = e.now
	}
	s := e.slot()
	ev := &e.slab[s]
	ev.at, ev.seq = t, e.seq
	ev.actor, ev.op, ev.arg, ev.data = a, op, arg, data
	e.seq++
	e.schedule(s)
}

// AfterEvent schedules a closure-free event d cycles from now.
func (e *Engine) AfterEvent(d Cycle, a Actor, op int, arg uint64, data any) {
	e.AtEvent(e.now+d, a, op, arg, data)
}

// migrate restores the calendar invariants after the clock advanced:
// far-heap events whose cycle has entered the window move into their
// buckets. Heap order is (at, seq), so same-cycle events migrate in
// seq order into buckets that are necessarily empty of that cycle
// (while any event for cycle c sits in the far heap, c is outside the
// window, so nothing for c can be bucket-resident); later schedules
// for that cycle carry higher seqs and append behind them.
func (e *Engine) migrate() {
	for len(e.far) > 0 && e.slab[e.far[0]].at < e.now+calWindow {
		s := e.far.pop(e.slab)
		b := &e.buckets[e.slab[s].at&calMask]
		b.ev = append(b.ev, s)
	}
}

// peek reports the earliest pending cycle without advancing the clock.
func (e *Engine) peek() (Cycle, bool) {
	if e.cnt == 0 {
		return 0, false
	}
	if e.nextValid {
		return e.nextAt, true
	}
	// Scan the window from now. Every bucket-resident event is in
	// [now, now+calWindow), so the first non-empty bucket met in cycle
	// order is the earliest; if the ring is empty the far heap's top
	// (>= now+calWindow) is.
	for c := e.now; c < e.now+calWindow; c++ {
		b := &e.buckets[c&calMask]
		if b.head < len(b.ev) {
			e.nextAt, e.nextValid = c, true
			return c, true
		}
	}
	e.nextAt, e.nextValid = e.slab[e.far[0]].at, true
	return e.nextAt, true
}

// stopPollEvents is the cancellation poll interval of the serial run
// loops, in executed events. Small enough that a cancelled run stops
// within microseconds of wall clock, large enough that the per-event
// cost is one integer increment.
const stopPollEvents = 64

// SetStopCheck installs (or, with nil, removes) the cooperative
// cancellation probe: the run loops poll fn every stopPollEvents
// events and stop as if Stop had been called when it reports true,
// additionally marking the engine Aborted. fn is called from the
// goroutine executing the run loop; a context.Context's Err or an
// atomic flag read are both safe sources. Arming resets the Aborted
// mark.
func (e *Engine) SetStopCheck(fn func() bool) {
	e.stopCheck = fn
	e.stopPoll = 0
	e.aborted = false
}

// Aborted reports whether the last run loop was stopped by the
// cancellation probe installed with SetStopCheck (sticky until the
// next SetStopCheck call).
func (e *Engine) Aborted() bool { return e.aborted }

// checkStop polls the cancellation probe at its sampling interval. It
// reports whether the run loop must stop.
func (e *Engine) checkStop() bool {
	if e.stopCheck == nil {
		return false
	}
	if e.stopPoll++; e.stopPoll < stopPollEvents {
		return false
	}
	e.stopPoll = 0
	if e.stopCheck() {
		e.aborted = true
		e.stopped = true
		return true
	}
	return false
}

// SetWatchdog arms the liveness watchdog: if the clock advances limit
// cycles beyond the last Progress() mark while Run or Drain is still
// executing events, the loop stops and onStall (may be nil) is
// invoked with the current cycle and the cycles elapsed since the last
// mark. limit 0 disarms. Progress is reset to "now" when armed.
func (e *Engine) SetWatchdog(limit Cycle, onStall func(now, sinceProgress Cycle)) {
	e.watchLimit = limit
	e.onStall = onStall
	e.lastProgress = e.now
	e.stalled = false
}

// Progress marks forward progress (a completed unit of real work, e.g.
// a retired memory access), resetting the watchdog countdown.
func (e *Engine) Progress() {
	e.lastProgress = e.now
	e.stalled = false
}

// SinceProgress reports cycles elapsed since the last Progress mark.
func (e *Engine) SinceProgress() Cycle { return e.now - e.lastProgress }

// Stalled reports whether the watchdog tripped (sticky until the next
// Progress or SetWatchdog call).
func (e *Engine) Stalled() bool { return e.stalled }

// checkWatchdog stops the innermost run loop once the no-progress
// bound is exceeded. It reports whether the watchdog tripped.
func (e *Engine) checkWatchdog() bool {
	if e.watchLimit == 0 || e.stalled {
		return e.stalled
	}
	if e.now-e.lastProgress < e.watchLimit {
		return false
	}
	e.stalled = true
	e.stopped = true
	if e.onStall != nil {
		e.onStall(e.now, e.now-e.lastProgress)
	}
	return true
}

// Step executes the single earliest event, advancing the clock to its
// cycle. It reports whether an event was executed.
func (e *Engine) Step() bool {
	if e.cnt == 0 {
		return false
	}
	t, _ := e.peek()
	e.cnt--
	if t != e.now {
		e.now = t
		e.migrate()
	}
	b := &e.buckets[t&calMask]
	s := b.ev[b.head]
	b.head++
	if b.head == len(b.ev) {
		b.ev = b.ev[:0]
		b.head = 0
		e.nextValid = false
	}
	ev := &e.slab[s]
	// Copy the dispatch words out and free the slot before firing: the
	// handler may schedule and so grow (move) the slab, and clearing the
	// reference words lets the fired message be collected.
	a, op, arg, data := ev.actor, ev.op, ev.arg, ev.data
	ev.actor, ev.data = nil, nil
	e.free = append(e.free, s)
	a.OnEvent(op, arg, data)
	return true
}

// Run executes events until the queue drains, Stop is called, or limit
// events have run (limit <= 0 means no limit). It returns the number of
// events executed.
func (e *Engine) Run(limit int) int {
	e.stopped = false
	n := 0
	for !e.stopped && e.Step() {
		n++
		if e.checkWatchdog() || e.checkStop() {
			break
		}
		if limit > 0 && n >= limit {
			break
		}
	}
	return n
}

// Drain executes events with time <= max without ever advancing the
// clock past the last executed event. Use it to run to completion
// under a watchdog bound while keeping Now() meaningful as "when the
// work finished". It returns the number of events executed.
func (e *Engine) Drain(max Cycle) int {
	e.stopped = false
	n := 0
	for !e.stopped {
		at, ok := e.peek()
		if !ok || at > max {
			break
		}
		e.Step()
		n++
		if e.checkWatchdog() || e.checkStop() {
			break
		}
	}
	return n
}

// Stop makes the innermost Run or Drain return after the current event.
func (e *Engine) Stop() { e.stopped = true }
