package sim

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// pingPong bounces an event between two shards with latency lat,
// recording each hop, until hops are exhausted.
type pingPong struct {
	engs  []*Engine
	lat   Cycle
	hops  int
	trace []uint64 // cycle of each hop, in firing order
}

func (p *pingPong) OnEvent(op int, arg uint64, data any) {
	me := int(arg)
	e := p.engs[me]
	p.trace = append(p.trace, uint64(e.Now()))
	if p.hops == 0 {
		return
	}
	p.hops--
	dst := p.engs[(me+1)%len(p.engs)]
	e.Post(dst, e.Now()+p.lat, p, 0, uint64((me+1)%len(p.engs)), nil)
}

// TestShardedPingPong checks the core contract: events crossing shards
// at exactly the lookahead land on the right cycles in order.
func TestShardedPingPong(t *testing.T) {
	se := NewShardedEngine(2, 8)
	engs := se.Engines()
	p := &pingPong{engs: engs, lat: 8, hops: 10}
	engs[0].AtEvent(0, p, 0, 0, nil)
	n := se.Run(0)
	if n != 11 {
		t.Fatalf("executed %d events, want 11", n)
	}
	for i, at := range p.trace {
		if at != uint64(i*8) {
			t.Fatalf("hop %d fired at cycle %d, want %d", i, at, i*8)
		}
	}
}

// TestShardedBarrierCycleEvent pins the quantum-boundary edge case: a
// cross-shard event landing exactly at a window-end cycle T+Q must
// fire at T+Q, after every event the destination shard itself
// scheduled for T+Q beforehand (both events were created at cycle 0,
// so the tie breaks to shard 0's lower source stamp).
func TestShardedBarrierCycleEvent(t *testing.T) {
	se := NewShardedEngine(2, 8)
	engs := se.Engines()
	var order []string
	local := actorFunc(func(op int, arg uint64, data any) {
		order = append(order, "local")
	})
	remoteHop := actorFunc(func(op int, arg uint64, data any) {
		order = append(order, "remote")
	})
	sender := actorFunc(func(op int, arg uint64, data any) {
		// Fires on shard 1 at cycle 0; lands on shard 0 exactly at the
		// first window boundary.
		engs[1].Post(engs[0], 8, remoteHop, 0, 0, nil)
	})
	engs[0].AtEvent(0, actorFunc(func(int, uint64, any) {}), 0, 0, nil)
	engs[0].AtEvent(8, local, 0, 0, nil) // pre-scheduled for the boundary cycle
	engs[1].AtEvent(0, sender, 0, 0, nil)
	se.Run(0)
	if len(order) != 2 || order[0] != "local" || order[1] != "remote" {
		t.Fatalf("boundary-cycle order = %v, want [local remote]", order)
	}
	if got := engs[0].Now(); got != 8 {
		t.Fatalf("shard 0 clock = %d, want 8", got)
	}
}

type actorFunc func(op int, arg uint64, data any)

func (f actorFunc) OnEvent(op int, arg uint64, data any) { f(op, arg, data) }

// TestPostLookaheadViolationPanics pins the conservative-PDES guard:
// posting across shards closer than the lookahead must panic loudly
// instead of silently landing an event in a window the destination may
// already have executed.
func TestPostLookaheadViolationPanics(t *testing.T) {
	se := NewShardedEngine(2, 8)
	engs := se.Engines()
	defer func() {
		if recover() == nil {
			t.Fatalf("Post 1 cycle out under lookahead 8 did not panic")
		}
	}()
	engs[0].Post(engs[1], 1, actorFunc(func(int, uint64, any) {}), 0, 0, nil)
}

// TestPostFromUnshardedPanics pins the zero-lookahead misuse case: a
// plain serial engine may Post to itself (degenerates to AtEvent) but
// never to a different engine.
func TestPostFromUnshardedPanics(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	fired := false
	a.Post(a, 5, actorFunc(func(int, uint64, any) { fired = true }), 0, 0, nil)
	a.Run(0)
	if !fired {
		t.Fatalf("self-Post on a serial engine did not fire")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("cross-engine Post from an unsharded engine did not panic")
		}
	}()
	a.Post(b, 100, actorFunc(func(int, uint64, any) {}), 0, 0, nil)
}

// TestZeroLookaheadConstructionPanics: a sharded group with zero
// lookahead cannot order cross-shard interactions.
func TestZeroLookaheadConstructionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewShardedEngine(2, 0) did not panic")
		}
	}()
	NewShardedEngine(2, 0)
}

// TestShardedMergeDeterminism drives many cross-shard posts landing on
// the same destination cycles from different source shards and checks
// the arrival order matches the (at, srcShard, srcSeq) contract.
func TestShardedMergeDeterminism(t *testing.T) {
	run := func(workers int) []uint64 {
		se := NewShardedEngine(workers, 8)
		engs := se.Engines()
		var got []uint64
		sink := actorFunc(func(op int, arg uint64, data any) {
			got = append(got, arg)
		})
		for s := 0; s < workers; s++ {
			s := s
			src := actorFunc(func(op int, arg uint64, data any) {
				// Each shard posts two events to shard 0 for the same cycle.
				engs[s].Post(engs[0], 16, sink, 0, uint64(s)<<8|0, nil)
				engs[s].Post(engs[0], 16, sink, 0, uint64(s)<<8|1, nil)
			})
			engs[s].AtEvent(0, src, 0, 0, nil)
		}
		se.Run(0)
		return got
	}
	got := run(4)
	want := []uint64{0<<8 | 0, 0<<8 | 1, 1<<8 | 0, 1<<8 | 1, 2<<8 | 0, 2<<8 | 1, 3<<8 | 0, 3<<8 | 1}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge order[%d] = %d.%d, want %d.%d",
				i, got[i]>>8, got[i]&0xff, want[i]>>8, want[i]&0xff)
		}
	}
}

// TestShardedSameCycleStampInvariance pins the fix for the drain-time
// stamping bug: when a cross-shard event and a locally-scheduled event
// collide on the same destination cycle, their firing order must be
// decided by the creation-time (srcShard, srcSeq) stamps alone — never
// by where the window boundaries fell. The repro that falsified the
// old scheme: shard 1 posts remote@16 at cycle 0 while shard 0, not
// yet past cycle 4, schedules local@16; with stamps assigned at drain
// time the order flipped between fuzz seeds (narrow windows delivered
// remote before local was even scheduled, wide windows after). Both
// collision directions run under a spread of window schedules and must
// produce one identical trace: the event *created* on the earlier
// cycle fires first — exactly what a serial engine, whose sequence
// counter is globally monotone, would do.
func TestShardedSameCycleStampInvariance(t *testing.T) {
	run := func(seed uint64, maxWin Cycle) [2][]string {
		se := NewShardedEngine(2, 8)
		if seed != 0 {
			se.SetWindowFuzz(seed)
		}
		if maxWin != 0 {
			se.SetMaxWindow(maxWin)
		}
		engs := se.Engines()
		// Traces are per destination shard: every append happens on
		// that shard's own goroutine, so the test itself is race-free.
		var trace [2][]string
		rec := func(shard int, tag string) actorFunc {
			return func(int, uint64, any) { trace[shard] = append(trace[shard], tag) }
		}
		// Collision on shard 0: the merged event was created at cycle 0,
		// the local one at cycle 4, so the merged event fires first —
		// whether the post was delivered before or after cycle 4
		// executed.
		engs[1].AtEvent(0, actorFunc(func(int, uint64, any) {
			engs[1].Post(engs[0], 16, rec(0, "remote@16"), 0, 0, nil)
		}), 0, 0, nil)
		engs[0].AtEvent(4, actorFunc(func(int, uint64, any) {
			engs[0].AtEvent(16, rec(0, "local@16"), 0, 0, nil)
		}), 0, 0, nil)
		// Mirror collision on shard 1: again the merged event's creation
		// cycle (0) orders before the local's (4).
		engs[0].AtEvent(0, actorFunc(func(int, uint64, any) {
			engs[0].Post(engs[1], 24, rec(1, "remote@24"), 0, 0, nil)
		}), 0, 0, nil)
		engs[1].AtEvent(4, actorFunc(func(int, uint64, any) {
			engs[1].AtEvent(24, rec(1, "local@24"), 0, 0, nil)
		}), 0, 0, nil)
		se.Run(0)
		return trace
	}
	want := [2][]string{{"remote@16", "local@16"}, {"remote@24", "local@24"}}
	for _, seed := range []uint64{0, 1, 2, 3, 42} {
		for _, maxWin := range []Cycle{0, 8, 16, 1024} {
			got := run(seed, maxWin)
			for shard := range want {
				if len(got[shard]) != len(want[shard]) {
					t.Fatalf("seed %d maxWindow %d shard %d: trace %v, want %v", seed, maxWin, shard, got[shard], want[shard])
				}
				for i := range want[shard] {
					if got[shard][i] != want[shard][i] {
						t.Fatalf("seed %d maxWindow %d shard %d: trace %v, want %v", seed, maxWin, shard, got[shard], want[shard])
					}
				}
			}
		}
	}
}

// TestShardedStop checks Stop parks the run at a quantum boundary and
// leaves the group reusable.
func TestShardedStop(t *testing.T) {
	se := NewShardedEngine(2, 8)
	engs := se.Engines()
	var fired atomic.Int64
	var self actorFunc
	self = func(op int, arg uint64, data any) {
		fired.Add(1)
		e := engs[int(arg)]
		if fired.Load() == 5 {
			se.Stop()
		}
		e.AtEvent(e.Now()+1, self, 0, arg, nil)
	}
	engs[0].AtEvent(0, self, 0, 0, nil)
	se.Run(0)
	if f := fired.Load(); f == 0 || f > 16 {
		t.Fatalf("stop did not take effect at a quantum boundary: %d events", f)
	}
	if se.Pending() == 0 {
		t.Fatalf("stopped run should leave the rescheduling chain pending")
	}
}

// TestShardedWatchdog: a shard scheduling events forever without
// Progress marks must trip the coordinator watchdog.
func TestShardedWatchdog(t *testing.T) {
	se := NewShardedEngine(2, 8)
	engs := se.Engines()
	var self actorFunc
	self = func(op int, arg uint64, data any) {
		engs[0].AtEvent(engs[0].Now()+4, self, 0, 0, nil)
	}
	engs[0].AtEvent(0, self, 0, 0, nil)
	stallAt := Cycle(0)
	se.SetWatchdog(1000, func(now, since Cycle) { stallAt = now })
	se.Run(0)
	if !se.Stalled() {
		t.Fatalf("endless no-progress chain did not trip the watchdog")
	}
	if stallAt < 900 || stallAt > 1200 {
		t.Fatalf("watchdog tripped at cycle %d, want ~1000", stallAt)
	}
}

// TestShardedPanicPropagates: a model panic on a worker shard must
// re-raise on the coordinating goroutine as a ShardPanic.
func TestShardedPanicPropagates(t *testing.T) {
	se := NewShardedEngine(2, 8)
	engs := se.Engines()
	engs[1].AtEvent(0, actorFunc(func(int, uint64, any) {
		panic("boom")
	}), 0, 0, nil)
	// Keep shard 0 busy so the panic races a live coordinator.
	engs[0].AtEvent(0, actorFunc(func(int, uint64, any) {}), 0, 0, nil)
	defer func() {
		r := recover()
		sp, ok := r.(*ShardPanic)
		if !ok {
			t.Fatalf("recovered %v (%T), want *ShardPanic", r, r)
		}
		if sp.Shard != 1 || sp.Value != "boom" {
			t.Fatalf("ShardPanic = %+v", sp)
		}
	}()
	se.Run(0)
}

// TestSplitDeterministicAndIndependent pins the SplitMix derivation:
// same parent state + same key = same stream; different keys =
// different streams; splitting does not perturb the parent.
func TestSplitDeterministicAndIndependent(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	c1, c2 := a.Split(7), b.Split(7)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("same (state, key) split diverged at draw %d", i)
		}
	}
	d1, d2 := a.Split(1), a.Split(2)
	same := 0
	for i := 0; i < 64; i++ {
		if d1.Uint64() == d2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct keys produced %d identical draws", same)
	}
	if a.Uint64() != b.Uint64() {
		t.Fatalf("Split consumed parent randomness")
	}
}

// TestShardedWindowFuzzIdentity pins schedule-independence at the unit
// level: randomizing every granted window length (any seed) must not
// change what fires when — window schedules are a wall-clock concern
// only. The firing trace of a cross-shard ping-pong must be identical
// with fuzz off and under several fuzz seeds.
func TestShardedWindowFuzzIdentity(t *testing.T) {
	run := func(seed uint64) []uint64 {
		se := NewShardedEngine(3, 8)
		if seed != 0 {
			se.SetWindowFuzz(seed)
		}
		engs := se.Engines()
		p := &pingPong{engs: engs, lat: 8, hops: 30}
		engs[0].AtEvent(0, p, 0, 0, nil)
		se.Run(0)
		return p.trace
	}
	want := run(0)
	for _, seed := range []uint64{1, 42, 0xDEADBEEF} {
		got := run(seed)
		if len(got) != len(want) {
			t.Fatalf("seed %#x: %d hops, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %#x: hop %d at cycle %d, want %d", seed, i, got[i], want[i])
			}
		}
	}
}

// TestLookaheadMatrixEnforcesPairFloors: installing per-pair floors
// raises the Post guard for the widened pairs — a post legal under the
// global lookahead must panic when its pair's floor is larger.
func TestLookaheadMatrixEnforcesPairFloors(t *testing.T) {
	se := NewShardedEngine(3, 8)
	engs := se.Engines()
	se.SetLookaheadMatrix([][]Cycle{
		{0, 16, 8},
		{16, 0, 8},
		{8, 8, 0},
	})
	// 0 -> 2 at +8 is still legal.
	engs[0].Post(engs[2], 8, actorFunc(func(int, uint64, any) {}), 0, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatalf("Post at +8 under a pair floor of 16 did not panic")
		}
	}()
	engs[0].Post(engs[1], 8, actorFunc(func(int, uint64, any) {}), 0, 0, nil)
}

// TestLookaheadMatrixValidation: wrong dimensions and below-quantum
// entries are construction errors.
func TestLookaheadMatrixValidation(t *testing.T) {
	se := NewShardedEngine(2, 8)
	for name, m := range map[string][][]Cycle{
		"wrong size":  {{0, 8}},
		"wrong row":   {{0, 8}, {8}},
		"below floor": {{0, 4}, {8, 0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SetLookaheadMatrix did not panic", name)
				}
			}()
			se.SetLookaheadMatrix(m)
		}()
	}
}

// TestShardedDynamicWindowsBatchRounds pins the tentpole's round
// economy without a wall clock: a shard ticking every 256 cycles while
// its neighbor idles must be granted multi-quantum windows, so the
// whole run takes a small fraction of the rounds the static 8-cycle
// quantum protocol would need (here: >=2048 barriers for 16384 cycles).
func TestShardedDynamicWindowsBatchRounds(t *testing.T) {
	se := NewShardedEngine(2, 8)
	engs := se.Engines()
	var ticks int
	var self actorFunc
	self = func(op int, arg uint64, data any) {
		ticks++
		if ticks < 64 {
			engs[0].AtEvent(engs[0].Now()+256, self, 0, 0, nil)
		}
	}
	engs[0].AtEvent(0, self, 0, 0, nil)
	se.Run(0)
	if ticks != 64 {
		t.Fatalf("ran %d ticks, want 64", ticks)
	}
	if se.round > 128 {
		t.Fatalf("idle-neighbor run used %d rounds for 16384 cycles; dynamic windows should batch far below the 2048 static quanta", se.round)
	}
}

// TestShardedSteadyStateAllocs pins the per-round hot path at zero
// allocations: once lanes, merge scratch, and calendar buckets are
// warm, running thousands more rounds — cross-shard traffic included —
// must allocate only the per-Run fixed overhead (worker goroutine
// spawns), independent of the round count. This is the satellite guard
// against the per-worker allocs/op growth the old global outbox merge
// exhibited.
func TestShardedSteadyStateAllocs(t *testing.T) {
	se := NewShardedEngine(2, 8)
	engs := se.Engines()
	var chatter actorFunc
	chatter = func(op int, arg uint64, data any) {
		me := int(arg)
		e := engs[me]
		e.Post(engs[1-me], e.Now()+8, chatter, 0, uint64(1-me), nil)
	}
	engs[0].AtEvent(0, chatter, 0, 0, nil)
	max := Cycle(1 << 14)
	se.Run(max) // warm lanes, buckets, scratch
	short := testing.AllocsPerRun(3, func() {
		max += 1 << 10
		se.Run(max)
	})
	long := testing.AllocsPerRun(3, func() {
		max += 1 << 14
		se.Run(max)
	})
	// 16x the rounds may not cost more than a few stray allocations
	// beyond the fixed per-Run overhead.
	if long > short+8 {
		t.Fatalf("allocations grow with round count: %.0f for 128 rounds vs %.0f for 2048", short, long)
	}
}

// TestShardedStopResume: stopping with cross-shard events still staged
// in lanes must count them in Pending and deliver them on the next
// Run, losing nothing.
func TestShardedStopResume(t *testing.T) {
	se := NewShardedEngine(2, 8)
	engs := se.Engines()
	p := &pingPong{engs: engs, lat: 8, hops: 10}
	stopper := actorFunc(func(int, uint64, any) { se.Stop() })
	engs[0].AtEvent(0, p, 0, 0, nil)
	engs[0].AtEvent(20, stopper, 0, 0, nil)
	se.Run(0)
	if se.Pending() == 0 {
		t.Fatalf("stopped mid-ping-pong with nothing pending")
	}
	se.Run(0)
	if len(p.trace) != 11 {
		t.Fatalf("resume finished %d hops, want 11", len(p.trace))
	}
	for i, at := range p.trace {
		if at != uint64(i*8) {
			t.Fatalf("hop %d fired at cycle %d, want %d", i, at, i*8)
		}
	}
}

// BenchmarkShardedBarrierOnly isolates the synchronization protocol:
// every shard runs a 1-cycle self-reschedule ticker and nothing ever
// crosses shards, so granted windows stay near the lookahead floor and
// the measured cost is round churn — horizon gather, window grant, and
// the padded-flag barrier — with negligible model work. This is the
// overhead every real workload pays per round; it must stay flat as
// workers grow or wide machines lose their parallel win to the fabric.
func BenchmarkShardedBarrierOnly(b *testing.B) {
	const cycles = 1 << 15
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				se := NewShardedEngine(workers, 8)
				engs := se.Engines()
				var tick actorFunc
				tick = func(op int, arg uint64, data any) {
					e := engs[int(arg)]
					if e.Now() < cycles {
						e.AfterEvent(1, tick, 0, arg, nil)
					}
				}
				for p := range engs {
					engs[p].AtEvent(0, tick, 0, uint64(p), nil)
				}
				if n := se.Run(0); n != workers*(cycles+1) {
					b.Fatalf("executed %d events, want %d", n, workers*(cycles+1))
				}
			}
		})
	}
}

// BenchmarkCrossShardHeavy is the opposite extreme: an all-to-all
// kernel where every shard posts one message to every other shard each
// lookahead period. This saturates the per-pair staging lanes and the
// destination-side merge — the direct shard-to-shard exchange path that
// replaced the coordinator's global concat-and-sort — so regressions in
// lane staging, parity draining, or merge insertion show up here first.
func BenchmarkCrossShardHeavy(b *testing.B) {
	const (
		lat    = Cycle(8)
		cycles = Cycle(1 << 13)
	)
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				se := NewShardedEngine(workers, lat)
				engs := se.Engines()
				var sink actorFunc = func(op int, arg uint64, data any) {}
				var tick actorFunc
				tick = func(op int, arg uint64, data any) {
					me := int(arg)
					e := engs[me]
					for p := range engs {
						if p != me {
							e.Post(engs[p], e.Now()+lat, sink, 0, 0, nil)
						}
					}
					if e.Now()+lat < cycles {
						e.AfterEvent(lat, tick, 0, arg, nil)
					}
				}
				for p := range engs {
					engs[p].AtEvent(0, tick, 0, uint64(p), nil)
				}
				se.Run(0)
			}
		})
	}
}
