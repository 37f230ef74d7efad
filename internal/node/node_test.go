package node

import (
	"strings"
	"testing"

	"dresar/internal/cache"
	"dresar/internal/mesg"
	"dresar/internal/sim"
)

// nrig drives one node with a scripted memory side.
type nrig struct {
	eng   *sim.Engine
	n     *Node
	sent  []*mesg.Message
	stamp uint64
}

func newNrig() *nrig {
	r := &nrig{eng: sim.NewEngine()}
	r.n = New(r.eng, 1, DefaultConfig(),
		func(m *mesg.Message) { r.sent = append(r.sent, m) },
		func(addr uint64) int { return int(addr>>12) % 16 },
		func() uint64 { r.stamp++; return r.stamp },
	)
	return r
}

func (r *nrig) take() []*mesg.Message {
	s := r.sent
	r.sent = nil
	return s
}

func (r *nrig) run() { r.eng.Run(0) }

func TestReadMissIssuesRequestAndFills(t *testing.T) {
	r := newNrig()
	var gotV uint64
	var gotC ReadClass
	var gotLat sim.Cycle
	done := false
	r.n.Read(0x2040, func(v uint64, c ReadClass, lat sim.Cycle) {
		gotV, gotC, gotLat, done = v, c, lat, true
	})
	r.run()
	out := r.take()
	if len(out) != 1 || out[0].Kind != mesg.ReadReq || out[0].Addr != 0x2040 {
		t.Fatalf("out = %v", out)
	}
	if out[0].Dst != mesg.M(2) {
		t.Fatalf("home routing wrong: %v", out[0].Dst)
	}
	if done {
		t.Fatal("read completed before reply")
	}
	// Reply arrives 100 cycles later.
	r.eng.At(100, func() {
		r.n.Deliver(&mesg.Message{Kind: mesg.ReadReply, Addr: 0x2040, Data: 42})
	})
	r.run()
	if !done || gotV != 42 || gotC != ReadClean {
		t.Fatalf("done=%v v=%d c=%v", done, gotV, gotC)
	}
	if gotLat != 100 {
		t.Fatalf("latency = %d, want 100", gotLat)
	}
	// Now cached: a second read hits in L1.
	done = false
	r.n.Read(0x2040, func(v uint64, c ReadClass, lat sim.Cycle) {
		gotV, gotC, gotLat, done = v, c, lat, true
	})
	r.run()
	if !done || gotC != ReadHit || gotLat != 1 || gotV != 42 {
		t.Fatalf("hit: done=%v c=%v lat=%d v=%d", done, gotC, gotLat, gotV)
	}
	if r.n.Stats.Reads != 2 || r.n.Stats.ReadMisses != 1 || r.n.Stats.ReadClean != 1 {
		t.Fatalf("stats %+v", r.n.Stats)
	}
}

func TestMarkedReplyCountsAsSwitchServed(t *testing.T) {
	r := newNrig()
	var gotC ReadClass
	r.n.Read(0x40, func(v uint64, c ReadClass, lat sim.Cycle) { gotC = c })
	r.run()
	r.take()
	r.n.Deliver(&mesg.Message{Kind: mesg.CtoCReply, Addr: 0x40, Data: 1, Marked: true})
	r.run()
	if gotC != ReadCtoCSwitch {
		t.Fatalf("class = %v", gotC)
	}
	r2 := newNrig()
	r2.n.Read(0x40, func(v uint64, c ReadClass, lat sim.Cycle) { gotC = c })
	r2.run()
	r2.n.Deliver(&mesg.Message{Kind: mesg.CtoCReply, Addr: 0x40, Data: 1})
	r2.run()
	if gotC != ReadCtoCHome {
		t.Fatalf("class = %v", gotC)
	}
}

func TestWriteHitRetiresInPlace(t *testing.T) {
	r := newNrig()
	// Install M by completing a write transaction first.
	r.n.Write(0x40, func(v uint64, s sim.Cycle) {})
	r.run()
	out := r.take()
	if len(out) != 1 || out[0].Kind != mesg.WriteReq {
		t.Fatalf("out = %v", out)
	}
	r.n.Deliver(&mesg.Message{Kind: mesg.WriteReply, Addr: 0x40, Data: 0})
	r.run()
	st, v := r.n.Hier().Probe(0x40)
	if st != cache.Modified || v != 2 {
		// Provisional stamp 1 at issue, commit stamp 2 at retire.
		t.Fatalf("after fill: %v %d", st, v)
	}
	// Second store: pure hit, no traffic.
	r.take()
	r.n.Write(0x40, func(v uint64, s sim.Cycle) {})
	r.run()
	if len(r.take()) != 0 {
		t.Fatal("store hit generated traffic")
	}
	if _, v := r.n.Hier().Probe(0x40); v != 3 {
		t.Fatalf("version = %d, want 3", v)
	}
	if !r.n.Quiesced() {
		t.Fatal("not quiesced")
	}
}

func TestWritesOverlapUpToLimit(t *testing.T) {
	r := newNrig()
	// Release consistency: distinct buffered stores launch concurrent
	// ownership transactions (up to the MSHR limit = buffer size).
	r.n.Write(0x40, func(v uint64, s sim.Cycle) {})
	r.n.Write(0x80, func(v uint64, s sim.Cycle) {})
	r.run()
	out := r.take()
	if len(out) != 2 || out[0].Addr != 0x40 || out[1].Addr != 0x80 {
		t.Fatalf("want two concurrent WriteReqs, got %v", out)
	}
	// Out-of-order completion is fine.
	r.n.Deliver(&mesg.Message{Kind: mesg.WriteReply, Addr: 0x80})
	r.run()
	r.n.Deliver(&mesg.Message{Kind: mesg.WriteReply, Addr: 0x40})
	r.run()
	if !r.n.Quiesced() {
		t.Fatal("not quiesced")
	}
	if st, _ := r.n.Hier().Probe(0x80); st != cache.Modified {
		t.Fatal("first completion lost")
	}
}

func TestOutstandingWriteLimit(t *testing.T) {
	r := &nrig{eng: sim.NewEngine()}
	cfg := DefaultConfig()
	cfg.OutstandingWrites = 1
	r.n = New(r.eng, 1, cfg,
		func(m *mesg.Message) { r.sent = append(r.sent, m) },
		func(addr uint64) int { return int(addr>>12) % 16 },
		func() uint64 { r.stamp++; return r.stamp },
	)
	r.n.Write(0x40, func(v uint64, s sim.Cycle) {})
	r.n.Write(0x80, func(v uint64, s sim.Cycle) {})
	r.run()
	out := r.take()
	if len(out) != 1 || out[0].Addr != 0x40 {
		t.Fatalf("limit 1: want one WriteReq, got %v", out)
	}
	r.n.Deliver(&mesg.Message{Kind: mesg.WriteReply, Addr: 0x40})
	r.run()
	out = r.take()
	if len(out) != 1 || out[0].Addr != 0x80 {
		t.Fatalf("second transaction after completion: %v", out)
	}
	r.n.Deliver(&mesg.Message{Kind: mesg.WriteReply, Addr: 0x80})
	r.run()
	if !r.n.Quiesced() {
		t.Fatal("not quiesced")
	}
}

func TestWriteBufferFullStallsProcessor(t *testing.T) {
	r := newNrig()
	cfgN := DefaultConfig().WriteBuffer
	for i := 0; i < cfgN; i++ {
		r.n.Write(uint64(0x1000+i*32), func(v uint64, s sim.Cycle) {})
	}
	r.run()
	// One more store: buffer full (head in flight + 7 waiting).
	stalled := sim.Cycle(0)
	done := false
	r.n.Write(0x9000, func(v uint64, s sim.Cycle) { stalled, done = s, true })
	r.run()
	if done {
		t.Fatal("store retired into a full buffer")
	}
	// Complete the head transaction at cycle 50: space frees.
	r.eng.At(50, func() {
		r.n.Deliver(&mesg.Message{Kind: mesg.WriteReply, Addr: 0x1000})
	})
	r.run()
	if !done || stalled != 50 {
		t.Fatalf("done=%v stalled=%d, want 50", done, stalled)
	}
	if r.n.Stats.WriteStall != 50 {
		t.Fatalf("stats %+v", r.n.Stats)
	}
}

func TestStoreForwardingToLoad(t *testing.T) {
	r := newNrig()
	r.n.Write(0x40, func(v uint64, s sim.Cycle) {})
	r.run()
	var got uint64
	var class ReadClass
	r.n.Read(0x44, func(v uint64, c ReadClass, lat sim.Cycle) { got, class = v, c })
	r.run()
	if got != 1 || class != ReadHit {
		t.Fatalf("forwarded = %d class=%v", got, class)
	}
}

func TestServeCtoCReadDowngradesAndCopiesBack(t *testing.T) {
	r := newNrig()
	r.n.Write(0x40, func(v uint64, s sim.Cycle) {})
	r.run()
	r.n.Deliver(&mesg.Message{Kind: mesg.WriteReply, Addr: 0x40})
	r.run()
	r.take()
	// Home forwards a read CtoC from P5.
	r.n.Deliver(&mesg.Message{Kind: mesg.CtoCReq, Addr: 0x40, Requester: 5, Owner: 1})
	r.run()
	out := r.take()
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	var reply, cb *mesg.Message
	for _, m := range out {
		switch m.Kind {
		case mesg.CtoCReply:
			reply = m
		case mesg.CopyBack:
			cb = m
		}
	}
	if reply == nil || cb == nil {
		t.Fatalf("missing reply or copyback: %v", out)
	}
	if reply.Dst != mesg.P(5) || reply.Data != 2 || reply.Marked {
		t.Fatalf("reply = %v", reply)
	}
	if cb.Requester != 5 || cb.Data != 2 || cb.Marked {
		t.Fatalf("copyback = %v", cb)
	}
	if st, _ := r.n.Hier().Probe(0x40); st != cache.Shared {
		t.Fatalf("owner state = %v, want S (downgrade)", st)
	}
	if r.n.Stats.CtoCServed != 1 {
		t.Fatalf("stats %+v", r.n.Stats)
	}
}

func TestServeCtoCMarkedPropagatesMark(t *testing.T) {
	r := newNrig()
	r.n.Write(0x40, func(v uint64, s sim.Cycle) {})
	r.run()
	r.n.Deliver(&mesg.Message{Kind: mesg.WriteReply, Addr: 0x40})
	r.run()
	r.take()
	r.n.Deliver(&mesg.Message{Kind: mesg.CtoCReq, Addr: 0x40, Requester: 5, Owner: 1, Marked: true})
	r.run()
	for _, m := range r.take() {
		if !m.Marked {
			t.Fatalf("switch-initiated transfer must stay marked: %v", m)
		}
	}
}

func TestServeCtoCForWriteInvalidates(t *testing.T) {
	r := newNrig()
	r.n.Write(0x40, func(v uint64, s sim.Cycle) {})
	r.run()
	r.n.Deliver(&mesg.Message{Kind: mesg.WriteReply, Addr: 0x40})
	r.run()
	r.take()
	r.n.Deliver(&mesg.Message{Kind: mesg.CtoCReq, Addr: 0x40, Requester: 5, Owner: 1, ForWrite: true})
	r.run()
	out := r.take()
	var reply, ack *mesg.Message
	for _, m := range out {
		switch m.Kind {
		case mesg.CtoCReply:
			reply = m
		case mesg.WriteBack:
			ack = m
		}
	}
	if reply == nil || !reply.ForWrite || reply.Dst != mesg.P(5) {
		t.Fatalf("reply = %v", reply)
	}
	if ack == nil || !ack.ForWrite || ack.Requester != 5 {
		t.Fatalf("ownership ack = %v", ack)
	}
	if st, _, _ := r.n.Hier().Invalidate(0x40); st != cache.Invalid {
		t.Fatal("owner kept the block after ownership transfer")
	}
}

func TestServeCtoCFromVictimBuffer(t *testing.T) {
	r := newNrig()
	r.n.Victims().Put(0x40, 33)
	r.n.Deliver(&mesg.Message{Kind: mesg.CtoCReq, Addr: 0x40, Requester: 5, Owner: 1})
	r.run()
	out := r.take()
	if len(out) != 2 || out[0].Data != 33 {
		t.Fatalf("out = %v", out)
	}
}

func TestServeCtoCMissingBlockNacks(t *testing.T) {
	r := newNrig()
	r.n.Deliver(&mesg.Message{Kind: mesg.CtoCReq, Addr: 0x40, Requester: 5, Owner: 1})
	r.run()
	out := r.take()
	if len(out) != 1 || out[0].Kind != mesg.Nack || out[0].Dst != mesg.P(5) {
		t.Fatalf("out = %v", out)
	}
}

func TestInvalAcksAndPoisonsPendingFill(t *testing.T) {
	r := newNrig()
	r.n.Read(0x40, func(v uint64, c ReadClass, lat sim.Cycle) {})
	r.run()
	r.take()
	// Invalidation races ahead of the fill.
	r.n.Deliver(&mesg.Message{Kind: mesg.Inval, Addr: 0x40, Requester: 9})
	r.run()
	out := r.take()
	if len(out) != 1 || out[0].Kind != mesg.InvalAck {
		t.Fatalf("out = %v", out)
	}
	r.n.Deliver(&mesg.Message{Kind: mesg.ReadReply, Addr: 0x40, Data: 5})
	r.run()
	// The fill served the load but must not be cached.
	if st, _ := r.n.Hier().Probe(0x40); st != cache.Invalid {
		t.Fatalf("poisoned fill was cached: %v", st)
	}
}

func TestRetryReissuesRead(t *testing.T) {
	r := newNrig()
	r.n.Read(0x40, func(v uint64, c ReadClass, lat sim.Cycle) {})
	r.run()
	first := r.take()
	if len(first) != 1 {
		t.Fatal("no initial request")
	}
	r.n.Deliver(&mesg.Message{Kind: mesg.Retry, Addr: 0x40})
	r.run()
	out := r.take()
	if len(out) != 1 || out[0].Kind != mesg.ReadReq {
		t.Fatalf("out = %v", out)
	}
	if r.n.Stats.Retries != 1 {
		t.Fatalf("stats %+v", r.n.Stats)
	}
}

func TestRetryReissuesWrite(t *testing.T) {
	r := newNrig()
	r.n.Write(0x40, func(v uint64, s sim.Cycle) {})
	r.run()
	r.take()
	r.n.Deliver(&mesg.Message{Kind: mesg.Nack, Addr: 0x40, ForWrite: true})
	r.run()
	out := r.take()
	if len(out) != 1 || out[0].Kind != mesg.WriteReq {
		t.Fatalf("out = %v", out)
	}
}

func TestDirtyEvictionWritesBackAndHoldsVictim(t *testing.T) {
	r := newNrig()
	// Fill many Modified blocks mapping to one L2 set to force a dirty
	// eviction. L2: 128KB/4-way/32B -> 1024 sets; stride 32KB collides.
	stride := uint64(1024 * 32)
	for i := uint64(0); i < 5; i++ {
		addr := 0x40 + i*stride
		r.n.Write(addr, func(v uint64, s sim.Cycle) {})
		r.run()
		r.n.Deliver(&mesg.Message{Kind: mesg.WriteReply, Addr: addr})
		r.run()
	}
	var wb *mesg.Message
	for _, m := range r.take() {
		if m.Kind == mesg.WriteBack {
			wb = m
		}
	}
	if wb == nil {
		t.Fatal("no writeback after dirty eviction")
	}
	if wb.Addr != 0x40 || wb.Data != 2 {
		// Commit stamp of the first write transaction.
		t.Fatalf("writeback = %v", wb)
	}
	if _, ok := r.n.Victims().Get(0x40); !ok {
		t.Fatal("victim buffer empty during writeback flight")
	}
	r.n.Deliver(&mesg.Message{Kind: mesg.WBAck, Addr: 0x40})
	r.run()
	if _, ok := r.n.Victims().Get(0x40); ok {
		t.Fatal("victim entry survived WBAck")
	}
}

func TestOverlappingReadsPanic(t *testing.T) {
	r := newNrig()
	r.n.Read(0x40, func(v uint64, c ReadClass, lat sim.Cycle) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second outstanding read did not panic")
		}
	}()
	r.n.Read(0x80, func(v uint64, c ReadClass, lat sim.Cycle) {})
}

func TestL2HitLatency(t *testing.T) {
	r := newNrig()
	// Fill a block, then evict it from L1 only by reading conflicting
	// blocks; next read must be an L2 hit costing 9 cycles.
	r.n.Deliver(&mesg.Message{Kind: mesg.ReadReply, Addr: 0x40, Data: 1}) // no pending: ignored
	r.run()
	var lat sim.Cycle
	r.n.Read(0x40, func(v uint64, c ReadClass, l sim.Cycle) { lat = l })
	r.run()
	r.take()
	r.n.Deliver(&mesg.Message{Kind: mesg.ReadReply, Addr: 0x40, Data: 1})
	r.run()
	// L1: 16KB/2-way/32B -> 256 sets; stride 8KB collides in L1 but
	// lands in distinct L2 sets.
	l1stride := uint64(256 * 32)
	for i := uint64(1); i <= 2; i++ {
		addr := 0x40 + i*l1stride
		done := false
		r.n.Read(addr, func(v uint64, c ReadClass, l sim.Cycle) { done = true })
		r.run()
		r.take()
		r.n.Deliver(&mesg.Message{Kind: mesg.ReadReply, Addr: addr, Data: 1})
		r.run()
		if !done {
			t.Fatal("fill lost")
		}
	}
	r.n.Read(0x40, func(v uint64, c ReadClass, l sim.Cycle) { lat = l })
	r.run()
	if lat != 9 {
		t.Fatalf("L2 hit latency = %d, want 9", lat)
	}
}

func TestUnhandledMessageReportsStructuredError(t *testing.T) {
	r := newNrig()
	var got error
	r.n.Fail = func(err error) { got = err }
	r.n.Deliver(&mesg.Message{Kind: mesg.ReadReq, Addr: 0x1040, Src: mesg.P(0), Dst: mesg.P(1)})
	if got == nil {
		t.Fatalf("no structured error for unhandled kind")
	}
	for _, want := range []string{"node 1", "unhandled message kind"} {
		if !contains(got.Error(), want) {
			t.Fatalf("error %q missing %q", got, want)
		}
	}
}

func TestUnhandledMessagePanicsWithoutSink(t *testing.T) {
	r := newNrig()
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic without a Fail sink")
		}
	}()
	r.n.Deliver(&mesg.Message{Kind: mesg.ReadReq, Addr: 0x1040, Src: mesg.P(0), Dst: mesg.P(1)})
}

func TestReadRetransmitsOnTimeout(t *testing.T) {
	r := newNrig()
	r.n.cfg.RequestTimeout = 100
	done := false
	r.n.Read(0x2040, func(v uint64, c ReadClass, lat sim.Cycle) { done = true })
	// Let the first ReadReq go out, then silently "lose" it: never
	// reply. The NI must re-send with the same transaction ID.
	r.eng.Drain(500)
	reqs := []*mesg.Message{}
	for _, m := range r.take() {
		if m.Kind == mesg.ReadReq {
			reqs = append(reqs, m)
		}
	}
	if len(reqs) < 2 {
		t.Fatalf("no retransmission after timeout: %d requests", len(reqs))
	}
	if reqs[0].Tx == 0 || reqs[0].Tx != reqs[1].Tx {
		t.Fatalf("retransmission changed Tx: %#x vs %#x", reqs[0].Tx, reqs[1].Tx)
	}
	if r.n.Stats.Retransmits == 0 {
		t.Fatalf("Retransmits stat not counted")
	}
	// Backoff doubles: the second gap exceeds the first.
	if len(reqs) >= 3 && r.n.Stats.Retransmits >= 2 {
		// reqs carry Issued of the original; timing is validated by
		// the retransmit count staying sub-linear in elapsed time.
		if got := r.n.Stats.Retransmits; got > 3 {
			t.Fatalf("%d retransmits in 500 cycles with base timeout 100 — backoff not applied", got)
		}
	}
	if done {
		t.Fatalf("read completed without any reply")
	}
}

func TestRetryBudgetExhaustionFails(t *testing.T) {
	r := newNrig()
	r.n.cfg.RequestTimeout = 10
	r.n.cfg.RetryLimit = 3
	var got error
	r.n.Fail = func(err error) { got = err }
	r.n.Read(0x2040, func(uint64, ReadClass, sim.Cycle) {})
	r.eng.Run(0)
	if got == nil {
		t.Fatalf("no failure after exhausting the retry budget")
	}
	if !contains(got.Error(), "abandoned after 3 retransmissions") {
		t.Fatalf("unexpected failure text: %v", got)
	}
}

func TestWriteRetransmitsOnTimeout(t *testing.T) {
	r := newNrig()
	r.n.cfg.RequestTimeout = 100
	r.n.Write(0x3040, func(uint64, sim.Cycle) {})
	r.eng.Drain(400)
	var reqs []*mesg.Message
	for _, m := range r.take() {
		if m.Kind == mesg.WriteReq {
			reqs = append(reqs, m)
		}
	}
	if len(reqs) < 2 {
		t.Fatalf("no write retransmission after timeout: %d requests", len(reqs))
	}
	if reqs[0].Tx == 0 || reqs[0].Tx != reqs[1].Tx {
		t.Fatalf("write retransmission changed Tx: %#x vs %#x", reqs[0].Tx, reqs[1].Tx)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}
