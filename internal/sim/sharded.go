// Conservative parallel discrete-event execution (PDES) with
// dynamic-lookahead window synchronization.
//
// A ShardedEngine owns N member Engines, one per worker goroutine.
// The model partitions actors across shards such that every
// cross-shard interaction from shard i to shard j carries a minimum
// latency L[i][j] (the lookahead matrix; for the BMIN fabric, one
// switch core plus one flit time per link hop, see
// xbar.Network.LookaheadMatrix). Execution advances in rounds: the
// coordinator computes per-shard safe horizons and grants each shard a
// window; all shards run their local events inside their windows, stop
// at the edge, and meet at a barrier where staged cross-shard events
// (Engine.Post) are handed to their destinations through per-pair
// staging lanes. A cross-shard post created inside a window cannot
// land before any destination's window end — the classic conservative
// argument, extended by per-event horizon promises (AtEventSlack) and
// per-pair distances so that a round can cover many static quanta.
//
// Window grant rule. Let H[i] be shard i's horizon: the minimum
// (at + slack) over its pending events, including events still staged
// in lanes bound for it. Any event that ever reaches shard j descends
// from some currently-pending event on some shard i through a chain of
// cross-shard hops i -> s1 -> ... -> j, each hop costing at least its
// pair's lookahead, so it lands no earlier than H[i] + R[i][j], where
// R is the all-pairs path closure of the lookahead matrix. The closure
// must include i == j: shard j's own output can echo back through a
// neighbor (j -> k -> j), so R[j][j] is the shortest directed cycle
// through j — Floyd-Warshall with an unreachable (not zero) initial
// diagonal yields exactly shortest nonempty walks, cycles included.
// The coordinator therefore grants shard j the window
//
//	end[j] = min over all i of H[i] + R[i][j]
//
// capped at t + maxWindow (t the global earliest pending cycle, for
// bounded cancellation latency and watchdog precision). Any end'[j] in
// (t, end[j]] is equally safe — window lengths affect wall clock only,
// never results — which is what the adversarial window-fuzz mode
// (SetWindowFuzz) exercises. Since H[i] >= t, every end[j] >= t + Q
// with Q the static minimum lookahead: dynamic windows are never
// narrower than the fixed-quantum protocol they replace, and the shard
// holding the globally earliest event always makes progress.
//
// Determinism: every event carries a (srcShard, srcSeq) stamp packed
// into its sequence word when it is *created* — on the source engine,
// at Post time for a cross-shard event — and the destination queue
// orders same-cycle events by that stamp. Nothing is restamped at
// drain time, so the firing order between a merged event and a local
// event at the same cycle is decided by the stamps alone: it cannot
// depend on where a window boundary fell, on goroutine scheduling, or
// on which round delivered the event. The executed sequence is a pure
// function of the simulation's own history, and a run is reproducible
// at any worker count under any window schedule. Cycle-identity with the *serial*
// engine additionally requires the model to make same-cycle
// cross-actor event order unobservable (see the coalesced arbitration
// in package xbar and DESIGN.md "Parallel execution model"); the
// serial-vs-sharded differential tests in package figures enforce it.
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ShardedEngine coordinates N member engines through window barriers.
// Construct with NewShardedEngine, partition the model across
// Engines(), schedule initial events, then call Run from one
// goroutine. The member engines must not be touched while Run is
// executing except by the model code running on their own shard.
type ShardedEngine struct {
	engs    []*Engine
	quantum Cycle
	look    [][]Cycle // per-pair direct Post floors; look[i][j] >= quantum for i != j
	reach   [][]Cycle // path closure of look (diagonal = shortest cycle); the grant matrix

	// lanes[src][dst] is the SPSC staging buffer pair for cross-shard
	// posts (shard.go). Each producer owns row lanes[src]; consumers
	// drain column lanes[*][dst] strictly between barriers.
	lanes       [][]lane
	stageParity uint32 // parity producers stage into this round (round & 1)

	stopReq atomic.Bool

	// Cooperative cancellation: stopCheck is polled by the coordinator
	// once per round, so a cancelled run winds down — workers parked,
	// barrier released, lanes drained — within one window of the cancel
	// point. See Engine.SetStopCheck for the contract.
	stopCheck func() bool
	aborted   bool

	// Barrier state: a one-level combining barrier. The coordinator
	// publishes each round by storing the round number in release;
	// workers spin on it (cache-local read, no write contention),
	// execute, and report completion in their own cache-line-padded
	// arrive slot, which the coordinator gathers. Compared to the old
	// single sense-reversing atomic, workers never contend on a shared
	// write, and the release store is one cache-line invalidation.
	release atomic.Uint64
	arrive  []arriveSlot
	round   uint64

	// Round state, published by the coordinator before the release
	// store and read by workers after observing it (the atomics provide
	// the happens-before edge).
	windowEnd []Cycle
	exit      bool

	// maxWindow bounds any window's span past the global earliest
	// pending cycle (cancellation latency, watchdog precision).
	maxWindow Cycle
	// fuzz, when armed, randomizes each granted window length inside
	// its safe bound (adversarial-lookahead testing).
	fuzz *RNG

	// Per-worker round results, written before the arrive store.
	counts []int
	panics []any

	hs []Cycle // horizon scratch, one entry per shard

	// Coordinator-level watchdog: per-engine watchdogs cannot tell an
	// idle shard from a stalled machine, so progress is judged globally
	// at round boundaries from the member engines' Progress marks.
	watchLimit Cycle
	onStall    func(now, sinceProgress Cycle)
	stalled    bool
}

// arriveSlot is one worker's barrier-completion flag, padded so that
// two workers' stores never share a cache line.
type arriveSlot struct {
	v atomic.Uint64
	_ [56]byte
}

// defaultMaxWindow caps a window's span past the global earliest
// pending cycle. One calendar-ring span keeps cancellation and
// watchdog latency bounded while letting idle-neighbor shards batch
// over a hundred static quanta per barrier.
const defaultMaxWindow = calWindow

// NewShardedEngine builds a group of n calendar-queue engines that
// advance in coordinated windows of at least the given lookahead. A
// zero lookahead is a model error — it would mean two shards can
// interact within a single cycle, which conservative synchronization
// cannot order — and panics rather than silently corrupting the
// simulation.
func NewShardedEngine(n int, lookahead Cycle) *ShardedEngine {
	if n <= 0 {
		panic("sim: NewShardedEngine with no shards")
	}
	if n >= 1<<(64-seqShardShift) {
		panic(fmt.Sprintf("sim: NewShardedEngine with %d shards overflows the %d-bit shard stamp", n, 64-seqShardShift))
	}
	if lookahead == 0 {
		panic("sim: NewShardedEngine with zero lookahead")
	}
	se := &ShardedEngine{
		engs:      make([]*Engine, n),
		quantum:   lookahead,
		look:      make([][]Cycle, n),
		lanes:     make([][]lane, n),
		arrive:    make([]arriveSlot, n),
		windowEnd: make([]Cycle, n),
		maxWindow: defaultMaxWindow,
		counts:    make([]int, n),
		panics:    make([]any, n),
		hs:        make([]Cycle, n),
	}
	for i := range se.engs {
		se.engs[i] = NewEngine()
		se.engs[i].carveBuckets()
		se.engs[i].setShard(i, lookahead, se)
		se.look[i] = make([]Cycle, n)
		se.lanes[i] = make([]lane, n)
		for j := range se.look[i] {
			if j != i {
				se.look[i][j] = lookahead
			}
			se.lanes[i][j].minAt = [2]Cycle{cycleMax, cycleMax}
			se.lanes[i][j].minHkey = [2]Cycle{cycleMax, cycleMax}
		}
		se.engs[i].minPost = se.look[i]
	}
	se.closeReach()
	return se
}

// unreachable is the closure's "no path" distance: far enough that any
// grant term using it exceeds every cap, small enough that adding a
// horizon cannot wrap Cycle arithmetic (the grant loop saturates too).
const unreachable = cycleMax >> 2

// closeReach recomputes the grant matrix: the all-pairs shortest
// nonempty walk closure of the direct floors, with the diagonal
// initialized unreachable so reach[i][i] comes out as the shortest
// directed cycle through i (a shard's earliest possible echo of its
// own output).
func (se *ShardedEngine) closeReach() {
	n := len(se.engs)
	if se.reach == nil {
		se.reach = make([][]Cycle, n)
		for i := range se.reach {
			se.reach[i] = make([]Cycle, n)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				se.reach[i][j] = unreachable
			} else {
				se.reach[i][j] = se.look[i][j]
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			ik := se.reach[i][k]
			if ik >= unreachable {
				continue
			}
			for j := 0; j < n; j++ {
				if d := ik + se.reach[k][j]; d < se.reach[i][j] {
					se.reach[i][j] = d
				}
			}
		}
	}
}

// Engines exposes the member engines; index i is shard i. Shard 0 is
// conventionally the control shard (drivers, monitors).
func (se *ShardedEngine) Engines() []*Engine { return se.engs }

// Quantum reports the minimum window length (the global lookahead).
func (se *ShardedEngine) Quantum() Cycle { return se.quantum }

// SetLookaheadMatrix installs per-pair lookahead floors: m[i][j] is
// the minimum distance, in cycles, of any cross-engine Post from shard
// i to shard j (Engine.Post enforces it). Entries must be at least the
// construction lookahead — that value is by definition the minimum
// over all pairs — and larger entries (e.g. two link traversals
// between shards not directly connected, xbar.Network.LookaheadMatrix)
// widen the windows the coordinator may grant. The diagonal is
// ignored. Must be called before Run.
func (se *ShardedEngine) SetLookaheadMatrix(m [][]Cycle) {
	n := len(se.engs)
	if len(m) != n {
		panic(fmt.Sprintf("sim: lookahead matrix is %dx, want %dx", len(m), n))
	}
	for i := range m {
		if len(m[i]) != n {
			panic(fmt.Sprintf("sim: lookahead matrix row %d has %d entries, want %d", i, len(m[i]), n))
		}
		for j, v := range m[i] {
			if i != j && v < se.quantum {
				panic(fmt.Sprintf("sim: lookahead matrix [%d][%d]=%d below the global lookahead %d", i, j, v, se.quantum))
			}
		}
		copy(se.look[i], m[i])
		se.look[i][i] = 0
	}
	se.closeReach()
}

// SetMaxWindow bounds every granted window to at most w cycles past
// the global earliest pending event (w 0 restores the default). Larger
// windows amortize more barriers when shards' horizons allow it but
// coarsen cancellation and watchdog latency.
func (se *ShardedEngine) SetMaxWindow(w Cycle) {
	if w == 0 {
		w = defaultMaxWindow
	}
	if w < se.quantum {
		w = se.quantum
	}
	se.maxWindow = w
}

// SetWindowFuzz arms (seed != 0) or disarms (seed 0) adversarial
// window randomization: each round, every shard's granted window is
// shrunk to a seeded-random length inside its safe bound. Any such
// schedule must produce bit-identical results — window lengths are a
// wall-clock concern only — so the differential tests run with fuzz to
// prove the dynamic-lookahead grant can never silently diverge.
func (se *ShardedEngine) SetWindowFuzz(seed uint64) {
	if seed == 0 {
		se.fuzz = nil
		return
	}
	se.fuzz = NewRNG(seed)
}

// Now reports the latest cycle any shard has reached. Only meaningful
// while Run is not executing.
func (se *ShardedEngine) Now() Cycle {
	var max Cycle
	for _, e := range se.engs {
		if e.now > max {
			max = e.now
		}
	}
	return max
}

// Pending reports scheduled-but-unexecuted events across all shards,
// including cross-shard events still staged in lanes. Only meaningful
// while Run is not executing.
func (se *ShardedEngine) Pending() int {
	n := 0
	for _, e := range se.engs {
		n += e.cnt
	}
	for i := range se.lanes {
		for j := range se.lanes[i] {
			n += len(se.lanes[i][j].buf[0]) + len(se.lanes[i][j].buf[1])
		}
	}
	return n
}

// Stop makes Run return at the next round barrier. Safe to call from
// model code on any shard (it is the sharded counterpart of
// Engine.Stop, at window granularity; workers also poll it inside long
// windows so a stop lands within a few events).
func (se *ShardedEngine) Stop() { se.stopReq.Store(true) }

// Stalled reports whether the coordinator watchdog tripped.
func (se *ShardedEngine) Stalled() bool { return se.stalled }

// SetStopCheck installs (or, with nil, removes) the cooperative
// cancellation probe, polled by the coordinating goroutine before each
// round. A true return stops the run at that barrier and marks it
// Aborted; all worker goroutines exit through the normal barrier
// release, so no shard is left parked. Arming resets the Aborted mark.
func (se *ShardedEngine) SetStopCheck(fn func() bool) {
	se.stopCheck = fn
	se.aborted = false
}

// Aborted reports whether the last Run was stopped by the cancellation
// probe (sticky until the next SetStopCheck call).
func (se *ShardedEngine) Aborted() bool { return se.aborted }

// SetWatchdog arms the coordinator-level liveness watchdog: if a new
// round would start limit or more cycles after the newest Progress
// mark on any member engine, the run stops and onStall (may be nil)
// fires. limit 0 disarms.
func (se *ShardedEngine) SetWatchdog(limit Cycle, onStall func(now, sinceProgress Cycle)) {
	se.watchLimit = limit
	se.onStall = onStall
	se.stalled = false
}

// lastProgress reports the newest Progress mark across shards.
func (se *ShardedEngine) lastProgress() Cycle {
	var max Cycle
	for _, e := range se.engs {
		if e.lastProgress > max {
			max = e.lastProgress
		}
	}
	return max
}

// minPending reports the earliest pending cycle across all shards,
// staged lanes included.
func (se *ShardedEngine) minPending() (Cycle, bool) {
	min := cycleMax
	for _, e := range se.engs {
		if at, ok := e.peek(); ok && at < min {
			min = at
		}
	}
	for i := range se.lanes {
		for j := range se.lanes[i] {
			ln := &se.lanes[i][j]
			if ln.minAt[0] < min {
				min = ln.minAt[0]
			}
			if ln.minAt[1] < min {
				min = ln.minAt[1]
			}
		}
	}
	return min, min != cycleMax
}

// horizon fills hs with each shard's horizon H[i]: the minimum
// (at + slack) over its engine's pending events and over events staged
// in lanes bound for it (they execute on i once delivered).
func (se *ShardedEngine) horizon(hs []Cycle) {
	for i, e := range se.engs {
		h := e.minHkey()
		for s := range se.engs {
			ln := &se.lanes[s][i]
			if ln.minHkey[0] < h {
				h = ln.minHkey[0]
			}
			if ln.minHkey[1] < h {
				h = ln.minHkey[1]
			}
		}
		hs[i] = h
	}
}

// barrierSpinBudget is how many times a barrier wait re-reads its flag
// before starting to yield the processor: long enough to catch a
// near-simultaneous partner without a syscall, short enough not to
// starve co-scheduled workers on fewer cores than shards.
const barrierSpinBudget = 64

// waitRelease parks until the coordinator publishes round r.
func (se *ShardedEngine) waitRelease(r uint64) {
	for spins := 0; se.release.Load() < r; spins++ {
		if spins >= barrierSpinBudget {
			runtime.Gosched()
		}
	}
}

// awaitWorker parks until worker i has completed round r.
func (se *ShardedEngine) awaitWorker(i int, r uint64) {
	for spins := 0; se.arrive[i].v.Load() < r; spins++ {
		if spins >= barrierSpinBudget {
			runtime.Gosched()
		}
	}
}

// drainInbound merges the events staged for shard j in parity q lanes
// into its engine, in (at, srcShard, srcSeq) order, and resets the
// lanes for reuse. Runs on shard j's goroutine between barriers; the
// producers finished writing parity q a round ago.
func (se *ShardedEngine) drainInbound(j int, q uint32) {
	dst := se.engs[j]
	buf := dst.gather[:0]
	for s := range se.engs {
		ln := &se.lanes[s][j]
		lb := ln.buf[q]
		if len(lb) == 0 {
			continue
		}
		for k := range lb {
			buf = append(buf, lb[k])
			lb[k] = outPost{} // release references
		}
		ln.buf[q] = lb[:0]
		ln.minAt[q] = cycleMax
		ln.minHkey[q] = cycleMax
	}
	// Insertion sort by (at, seq): seq already packs (srcShard,
	// srcSeq), so this is the full merge key. Rounds stage few
	// cross-shard events and lanes arrive nearly sorted (visited in
	// source-shard order, each in srcSeq order), so insertion beats a
	// general sort here — and unlike sort.SliceStable it allocates
	// nothing. Sorted hand-off keeps the per-event insertMerged an
	// append in the common case (the destination bucket walk in
	// schedule() would restore the order regardless).
	for i := 1; i < len(buf); i++ {
		for k := i; k > 0 && (buf[k].ev.at < buf[k-1].ev.at ||
			(buf[k].ev.at == buf[k-1].ev.at && buf[k].ev.seq < buf[k-1].ev.seq)); k-- {
			buf[k], buf[k-1] = buf[k-1], buf[k]
		}
	}
	for i := range buf {
		dst.insertMerged(buf[i].ev)
		buf[i] = outPost{}
	}
	dst.gather = buf[:0]
}

// runShard executes one shard's round — drain inbound lanes, then run
// the granted window — converting a model panic into a recorded
// per-shard panic so the barrier protocol never deadlocks.
func (se *ShardedEngine) runShard(i int, end Cycle) {
	defer func() {
		if r := recover(); r != nil {
			se.panics[i] = r
			se.stopReq.Store(true)
		}
	}()
	se.counts[i] = 0
	se.drainInbound(i, se.stageParity^1)
	se.counts[i] = se.engs[i].runWindow(end)
}

// worker is the loop run by shards 1..n-1; shard 0 runs on the
// coordinating goroutine inside Run.
func (se *ShardedEngine) worker(i int, wg *sync.WaitGroup) {
	defer wg.Done()
	var r uint64
	for {
		r++
		se.waitRelease(r)
		if se.exit {
			return
		}
		se.runShard(i, se.windowEnd[i])
		se.arrive[i].v.Store(r)
	}
}

// Run executes the sharded simulation until every shard is out of
// events, Stop is called, the watchdog trips, or the next event lies
// beyond max (max 0 means no bound; like Engine.Drain, the clock never
// advances past the last executed event's window). It returns the
// number of events executed. Run must be called from one goroutine at
// a time; a panic raised by model code on any shard is re-raised here
// after all workers have parked.
func (se *ShardedEngine) Run(max Cycle) int {
	n := len(se.engs)
	se.stopReq.Store(false)
	se.exit = false
	for i := range se.panics {
		se.panics[i] = nil
	}
	se.round = 0
	se.release.Store(0)
	for i := range se.arrive {
		se.arrive[i].v.Store(0)
	}
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go se.worker(i, &wg)
	}
	total := 0
	for {
		t, ok := se.minPending()
		stop := !ok || se.stopReq.Load()
		if !stop && se.stopCheck != nil && se.stopCheck() {
			se.aborted = true
			stop = true
		}
		if !stop && max > 0 && t > max {
			stop = true
		}
		var prog Cycle
		if se.watchLimit > 0 {
			prog = se.lastProgress()
		}
		if !stop && se.watchLimit > 0 {
			if t > prog && t-prog >= se.watchLimit {
				se.stalled = true
				stop = true
				if se.onStall != nil {
					se.onStall(se.Now(), t-prog)
				}
			}
		}
		if stop {
			se.exit = true
			se.round++
			se.release.Store(se.round)
			break
		}
		// Grant this round's windows (see the package comment for the
		// safety argument).
		se.horizon(se.hs)
		cap := t + se.maxWindow
		if se.watchLimit > 0 {
			// Never jump past the point where the watchdog must trip:
			// prog + watchLimit > t here, so the cap stays ahead of t.
			if wcap := prog + se.watchLimit; wcap < cap {
				cap = wcap
			}
		}
		for j := 0; j < n; j++ {
			end := cap
			for i := 0; i < n; i++ {
				e := se.hs[i] + se.reach[i][j]
				if e < se.hs[i] { // saturate: an idle shard (horizon cycleMax) never narrows a window
					e = cycleMax
				}
				if e < end {
					end = e
				}
			}
			if se.fuzz != nil && end > t+1 {
				end = t + 1 + Cycle(se.fuzz.Uint64()%uint64(end-t))
			}
			if max > 0 && end > max+1 {
				end = max + 1
			}
			se.windowEnd[j] = end
		}
		se.round++
		r := se.round
		se.stageParity = uint32(r & 1)
		se.release.Store(r)
		se.runShard(0, se.windowEnd[0])
		for i := 1; i < n; i++ {
			se.awaitWorker(i, r)
		}
		for i := 0; i < n; i++ {
			total += se.counts[i]
		}
	}
	wg.Wait()
	// Deliver events still staged in either parity (the final round's
	// output was never drained) so Pending() is accurate and a later
	// Run resumes from a consistent queue.
	for j := 0; j < n; j++ {
		se.drainInbound(j, 0)
		se.drainInbound(j, 1)
	}
	for i, p := range se.panics {
		if p != nil {
			panic(&ShardPanic{Shard: i, Value: p})
		}
	}
	return total
}

// ShardPanic wraps a model panic raised on one shard so the
// coordinator can re-raise it after the barrier protocol has wound
// down without losing the original value.
type ShardPanic struct {
	Shard int
	Value any
}

func (p *ShardPanic) Error() string {
	return fmt.Sprintf("sim: shard %d panicked: %v", p.Shard, p.Value)
}

// runWindow executes this engine's events with cycle < end, in (at,
// seq) order, leaving the clock at the last executed event (or
// untouched if none qualified). It reports the number of events run.
// Under a sharded group the loop also polls the group's stop flag
// every few events: dynamic windows can span hundreds of cycles, and
// Stop should not have to wait out a whole one.
func (e *Engine) runWindow(end Cycle) int {
	e.stopped = false
	n := 0
	for !e.stopped {
		at, ok := e.peek()
		if !ok || at >= end {
			break
		}
		e.Step()
		n++
		if n&7 == 0 && e.group != nil && e.group.stopReq.Load() {
			break
		}
	}
	return n
}
