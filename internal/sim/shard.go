// Cross-shard event posting: the half of the sharded execution model
// that lives on the Engine itself. A shard's engine never touches
// another shard's queue directly — a cross-engine schedule stages in
// the per-(source, destination) lane for the current window and is
// drained into the destination engine at the next quantum barrier by
// the ShardedEngine protocol (sharded.go), ordered by the stamp the
// event was given at creation: (at, madeAt, srcShard<<48|srcSeq).
// That merge key is independent of goroutine interleaving and of
// where the window boundaries fall, which is what makes a sharded run
// cycle-identical to the serial engine.
package sim

import "fmt"

// outPost is one staged cross-engine event. ev.seq is the source
// engine's full stamp at Post time — srcShard<<seqShardShift | srcSeq
// — which defines the deterministic merge order at the barrier AND the
// event's same-cycle tie-break inside the destination queue: the stamp
// travels with the event, so where the window boundaries fall can
// never change how it orders against the destination's own events.
type outPost struct {
	ev event
}

// lane is the SPSC staging buffer for one (source shard, destination
// shard) pair, double-buffered by window parity: the producer appends
// to buf[round&1] while executing round r, the consumer drains
// buf[(r-1)&1] at the start of round r, and the barriers in between
// provide the happens-before edges. minAt/minHkey are the producer's
// running minimum target cycle and horizon key per parity, read by the
// coordinator when granting the next window (a staged event is pending
// work its destination has not seen yet).
type lane struct {
	buf     [2][]outPost
	minAt   [2]Cycle
	minHkey [2]Cycle
}

// setShard brands the engine as shard idx of a sharded group with the
// given lookahead. Called by NewShardedEngine only.
func (e *Engine) setShard(idx int, lookahead Cycle, group *ShardedEngine) {
	e.shard = idx
	e.seqBase = uint64(idx) << seqShardShift
	e.lookahead = lookahead
	e.group = group
}

// Post schedules a.OnEvent(op, arg, data) at cycle t on dst. When dst
// is this engine (always true in serial mode, where every actor shares
// one engine) it is a plain AtEvent. Otherwise the event crosses a
// shard boundary: it stages in the pair's lane and reaches dst at the
// next quantum barrier, which is only sound if t is at least the
// pair's lookahead away — the conservative-PDES contract. Posting
// closer than the lookahead (or with a zero lookahead, i.e. from an
// engine that is not part of a sharded group) panics: it would require
// an event to land inside a window the destination may already have
// executed.
func (e *Engine) Post(dst *Engine, t Cycle, a Actor, op int, arg uint64, data any) {
	e.PostSlack(dst, t, 0, a, op, arg, data)
}

// PostSlack is Post with a horizon promise attached to the delivered
// event (see AtEventSlack for the contract; the promise also counts
// while the event is still staged in its lane).
func (e *Engine) PostSlack(dst *Engine, t, slack Cycle, a Actor, op int, arg uint64, data any) {
	if dst == e {
		e.AtEventSlack(t, slack, a, op, arg, data)
		return
	}
	if e.lookahead == 0 {
		panic("sim: cross-engine Post from an unsharded engine (zero lookahead)")
	}
	if floor := e.minPost[dst.shard]; t < e.now+floor {
		panic(fmt.Sprintf("sim: Post at cycle %d violates lookahead %d (now %d, shard %d->%d)",
			t, floor, e.now, e.shard, dst.shard))
	}
	g := e.group
	p := g.stageParity
	ln := &g.lanes[e.shard][dst.shard]
	ln.buf[p] = append(ln.buf[p], outPost{
		ev: event{at: t, madeAt: e.now, seq: e.seqBase | e.seq, slack: slack, actor: a, op: op, arg: arg, data: data},
	})
	if t < ln.minAt[p] {
		ln.minAt[p] = t
	}
	if hk := t + slack; hk < ln.minHkey[p] {
		ln.minHkey[p] = hk
	}
	e.seq++
}
