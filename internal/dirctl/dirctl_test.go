package dirctl

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"dresar/internal/mesg"
	"dresar/internal/sim"
)

// drig drives one controller directly, capturing sent messages.
type drig struct {
	eng  *sim.Engine
	c    *Controller
	sent []*mesg.Message
}

func newDrig(cfg Config) *drig {
	d := &drig{eng: sim.NewEngine()}
	d.c = New(d.eng, 0, cfg, func(m *mesg.Message) { d.sent = append(d.sent, m) })
	return d
}

func (d *drig) deliver(m *mesg.Message) {
	d.c.Handle(m)
	d.eng.Run(0)
}

func (d *drig) take() []*mesg.Message {
	s := d.sent
	d.sent = nil
	return s
}

func read(req int, addr uint64) *mesg.Message {
	return &mesg.Message{Kind: mesg.ReadReq, Addr: addr, Src: mesg.P(req), Dst: mesg.M(0), Requester: req}
}
func write(req int, addr uint64) *mesg.Message {
	return &mesg.Message{Kind: mesg.WriteReq, Addr: addr, Src: mesg.P(req), Dst: mesg.M(0), Requester: req}
}

func TestColdReadServedClean(t *testing.T) {
	d := newDrig(Config{})
	d.deliver(read(3, 0x40))
	out := d.take()
	if len(out) != 1 || out[0].Kind != mesg.ReadReply || out[0].Dst != mesg.P(3) {
		t.Fatalf("out = %v", out)
	}
	st, _, sharers := d.c.State(0x40)
	if st != SharedSt || !sharers.Equal(mesg.NodeSetOf(3)) {
		t.Fatalf("dir = %v sharers=%v", st, sharers)
	}
	if d.c.Stats.ReadsClean != 1 {
		t.Fatalf("stats %+v", d.c.Stats)
	}
}

func TestDRAMAndOccupancyTiming(t *testing.T) {
	eng := sim.NewEngine()
	var sentAt []sim.Cycle
	c := New(eng, 0, Config{DRAMCycles: 40, OccCycles: 6, PendingCap: 4},
		func(*mesg.Message) { sentAt = append(sentAt, eng.Now()) })
	c.Handle(read(1, 0x40))
	c.Handle(read(2, 0x40))
	eng.Run(0)
	// Both served; second serialized behind the first: controller
	// occupancy 46 each, so replies at 46 and 92.
	if len(sentAt) != 2 || sentAt[0] != 46 || sentAt[1] != 92 {
		t.Fatalf("replies sent at %v, want [46 92] (serialized occupancy)", sentAt)
	}
}

func TestWriteUncachedGrantsOwnership(t *testing.T) {
	d := newDrig(Config{})
	d.deliver(write(5, 0x80))
	out := d.take()
	if len(out) != 1 || out[0].Kind != mesg.WriteReply || out[0].Owner != 5 {
		t.Fatalf("out = %v", out)
	}
	st, owner, _ := d.c.State(0x80)
	if st != ModifiedSt || owner != 5 {
		t.Fatalf("dir = %v owner=%d", st, owner)
	}
}

func TestWriteSharedInvalidatesAndWaitsForAcks(t *testing.T) {
	d := newDrig(Config{})
	d.deliver(read(1, 0x40))
	d.deliver(read(2, 0x40))
	d.take()
	d.deliver(write(3, 0x40))
	out := d.take()
	if len(out) != 2 {
		t.Fatalf("want 2 invals, got %v", out)
	}
	for _, m := range out {
		if m.Kind != mesg.Inval {
			t.Fatalf("got %v", m)
		}
	}
	if !d.c.Busy(0x40) {
		t.Fatal("block not busy awaiting acks")
	}
	// First ack: still busy, no reply.
	d.deliver(&mesg.Message{Kind: mesg.InvalAck, Addr: 0x40, Src: mesg.P(1), Dst: mesg.M(0)})
	if len(d.take()) != 0 {
		t.Fatal("reply before all acks")
	}
	d.deliver(&mesg.Message{Kind: mesg.InvalAck, Addr: 0x40, Src: mesg.P(2), Dst: mesg.M(0)})
	out = d.take()
	if len(out) != 1 || out[0].Kind != mesg.WriteReply || out[0].Dst != mesg.P(3) {
		t.Fatalf("out = %v", out)
	}
	st, owner, _ := d.c.State(0x40)
	if st != ModifiedSt || owner != 3 || d.c.Busy(0x40) {
		t.Fatalf("dir after acks: %v owner=%d busy=%v", st, owner, d.c.Busy(0x40))
	}
}

func TestWriteSharedRequesterIsOnlySharer(t *testing.T) {
	d := newDrig(Config{})
	d.deliver(read(4, 0x40))
	d.take()
	d.deliver(write(4, 0x40)) // upgrade: no invalidations needed
	out := d.take()
	if len(out) != 1 || out[0].Kind != mesg.WriteReply {
		t.Fatalf("out = %v", out)
	}
	if d.c.Busy(0x40) {
		t.Fatal("upgrade left block busy")
	}
}

func TestReadToModifiedForwardsCtoC(t *testing.T) {
	d := newDrig(Config{})
	d.deliver(write(7, 0x40))
	d.take()
	d.deliver(read(2, 0x40))
	out := d.take()
	if len(out) != 1 || out[0].Kind != mesg.CtoCReq || out[0].Dst != mesg.P(7) || out[0].Requester != 2 {
		t.Fatalf("out = %v", out)
	}
	if out[0].ForWrite {
		t.Fatal("read forward marked ForWrite")
	}
	if !d.c.Busy(0x40) {
		t.Fatal("not busy during forward")
	}
	if d.c.Stats.HomeCtoCForwards != 1 {
		t.Fatalf("stats %+v", d.c.Stats)
	}
	// Owner copies back with the dirty version.
	d.deliver(&mesg.Message{Kind: mesg.CopyBack, Addr: 0x40, Src: mesg.P(7), Dst: mesg.M(0), Data: 9, Requester: 2})
	st, _, sharers := d.c.State(0x40)
	if st != SharedSt || !sharers.Equal(mesg.NodeSetOf(7, 2)) {
		t.Fatalf("after copyback: %v %v", st, sharers)
	}
	if d.c.Version(0x40) != 9 {
		t.Fatalf("memory version = %d", d.c.Version(0x40))
	}
	if d.c.Busy(0x40) {
		t.Fatal("still busy")
	}
}

func TestWriteToModifiedTransfersOwnership(t *testing.T) {
	d := newDrig(Config{})
	d.deliver(write(7, 0x40))
	d.take()
	d.deliver(write(8, 0x40))
	out := d.take()
	if len(out) != 1 || out[0].Kind != mesg.CtoCReq || !out[0].ForWrite || out[0].Dst != mesg.P(7) {
		t.Fatalf("out = %v", out)
	}
	// Old owner acknowledges with a ForWrite WriteBack (no data bank).
	d.deliver(&mesg.Message{Kind: mesg.WriteBack, Addr: 0x40, Src: mesg.P(7), Dst: mesg.M(0), ForWrite: true, Requester: 8})
	st, owner, _ := d.c.State(0x40)
	if st != ModifiedSt || owner != 8 {
		t.Fatalf("dir = %v owner=%d", st, owner)
	}
	if d.c.Version(0x40) != 0 {
		t.Fatal("ownership transfer should not bank data")
	}
}

func TestPendingQueueDrainsAfterCopyback(t *testing.T) {
	d := newDrig(Config{})
	d.deliver(write(7, 0x40))
	d.take()
	d.deliver(read(2, 0x40)) // forwards, sets busy
	d.take()
	d.deliver(read(3, 0x40)) // queued behind busy
	if len(d.take()) != 0 {
		t.Fatal("queued read produced output")
	}
	d.deliver(&mesg.Message{Kind: mesg.CopyBack, Addr: 0x40, Src: mesg.P(7), Dst: mesg.M(0), Data: 5, Requester: 2})
	out := d.take()
	// Drain re-services the queued read: now SharedSt -> clean reply.
	if len(out) != 1 || out[0].Kind != mesg.ReadReply || out[0].Dst != mesg.P(3) || out[0].Data != 5 {
		t.Fatalf("out = %v", out)
	}
}

func TestPendingOverflowRetries(t *testing.T) {
	d := newDrig(Config{DRAMCycles: 40, OccCycles: 6, PendingCap: 1})
	d.deliver(write(7, 0x40))
	d.take()
	d.deliver(read(1, 0x40)) // busy
	d.take()
	d.deliver(read(2, 0x40)) // queued (cap 1)
	d.deliver(read(3, 0x40)) // overflow -> Retry
	out := d.take()
	if len(out) != 1 || out[0].Kind != mesg.Retry || out[0].Dst != mesg.P(3) {
		t.Fatalf("out = %v", out)
	}
	if d.c.Stats.Retries != 1 {
		t.Fatalf("stats %+v", d.c.Stats)
	}
}

func TestWriteBackUncachesAndAcks(t *testing.T) {
	d := newDrig(Config{})
	d.deliver(write(7, 0x40))
	d.take()
	d.deliver(&mesg.Message{Kind: mesg.WriteBack, Addr: 0x40, Src: mesg.P(7), Dst: mesg.M(0), Data: 4})
	out := d.take()
	if len(out) != 1 || out[0].Kind != mesg.WBAck || out[0].Dst != mesg.P(7) {
		t.Fatalf("out = %v", out)
	}
	st, _, _ := d.c.State(0x40)
	if st != Uncached || d.c.Version(0x40) != 4 {
		t.Fatalf("dir = %v version=%d", st, d.c.Version(0x40))
	}
}

func TestMarkedCopyBackRestoresMapWithoutHomeRead(t *testing.T) {
	d := newDrig(Config{})
	d.deliver(write(7, 0x40))
	d.take()
	// A switch directory intercepted a read by P2 and the owner sent a
	// marked copyback carrying the requester pid. The home never saw
	// P2's ReadReq.
	d.deliver(&mesg.Message{Kind: mesg.CopyBack, Addr: 0x40, Src: mesg.P(7), Dst: mesg.M(0), Data: 6, Requester: 2, Marked: true})
	st, _, sharers := d.c.State(0x40)
	if st != SharedSt || !sharers.Equal(mesg.NodeSetOf(7, 2)) {
		t.Fatalf("dir = %v sharers=%v", st, sharers)
	}
	if d.c.Version(0x40) != 6 {
		t.Fatalf("version = %d", d.c.Version(0x40))
	}
	if d.c.Stats.MarkedWB != 1 {
		t.Fatalf("stats %+v", d.c.Stats)
	}
}

func TestMarkedWriteBackCarriesRequester(t *testing.T) {
	d := newDrig(Config{})
	d.deliver(write(7, 0x40))
	d.take()
	// Owner evicted; the writeback hit a TRANSIENT switch entry, which
	// generated the reply to P3 and marked the writeback.
	d.deliver(&mesg.Message{Kind: mesg.WriteBack, Addr: 0x40, Src: mesg.P(7), Dst: mesg.M(0), Data: 8, Requester: 3, Marked: true})
	st, _, sharers := d.c.State(0x40)
	if st != SharedSt || !sharers.Equal(mesg.NodeSetOf(3)) {
		t.Fatalf("dir = %v sharers=%v", st, sharers)
	}
}

func TestStaleWriteBackDoesNotRegressVersion(t *testing.T) {
	d := newDrig(Config{})
	d.deliver(write(7, 0x40))
	d.take()
	d.deliver(&mesg.Message{Kind: mesg.CopyBack, Addr: 0x40, Src: mesg.P(7), Dst: mesg.M(0), Data: 9, Requester: 2, Marked: true})
	// A stale unmarked writeback with older data must not regress.
	d.deliver(&mesg.Message{Kind: mesg.WriteBack, Addr: 0x40, Src: mesg.P(7), Dst: mesg.M(0), Data: 3})
	if d.c.Version(0x40) != 9 {
		t.Fatalf("version regressed to %d", d.c.Version(0x40))
	}
}

func TestDirStateString(t *testing.T) {
	if Uncached.String() != "U" || SharedSt.String() != "S" || ModifiedSt.String() != "M" {
		t.Fatal("strings")
	}
	if DirState(7).String() == "" {
		t.Fatal("unknown state")
	}
}

func TestForEachBlock(t *testing.T) {
	d := newDrig(Config{})
	d.deliver(read(1, 0x40))
	d.deliver(write(2, 0x80))
	n := 0
	d.c.ForEachBlock(func(a uint64, st DirState, owner int, sh mesg.NodeSet, busy bool) { n++ })
	if n != 2 {
		t.Fatalf("blocks = %d", n)
	}
}

func TestUnhandledMessageReportsStructuredError(t *testing.T) {
	d := newDrig(DefaultConfig())
	var got error
	d.c.Fail = func(err error) { got = err }
	d.deliver(&mesg.Message{Kind: mesg.ReadReply, Addr: 0x40, Src: mesg.M(1), Dst: mesg.M(0)})
	if got == nil {
		t.Fatalf("no structured error for unhandled kind")
	}
	for _, want := range []string{"home 0", "unhandled message kind"} {
		if !strings.Contains(got.Error(), want) {
			t.Fatalf("error %q missing %q", got, want)
		}
	}
}

func TestUnhandledMessagePanicsWithoutSink(t *testing.T) {
	d := newDrig(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic without a Fail sink")
		}
	}()
	d.deliver(&mesg.Message{Kind: mesg.ReadReply, Addr: 0x40, Src: mesg.M(1), Dst: mesg.M(0)})
}

func TestDuplicateCompletedTransactionDropped(t *testing.T) {
	d := newDrig(DefaultConfig())
	// P1 reads with Tx=5; the read completes (Uncached -> grant).
	m1 := read(1, 0x40)
	m1.Tx = 5
	d.deliver(m1)
	if got := len(d.take()); got != 1 {
		t.Fatalf("first read sent %d messages, want 1 reply", got)
	}
	// A duplicate of the same transaction (retransmitted copy whose
	// original got through) must be silently discarded.
	m2 := read(1, 0x40)
	m2.Tx = 5
	d.deliver(m2)
	if got := len(d.take()); got != 0 {
		t.Fatalf("duplicate serviced: %d messages sent", got)
	}
	if d.c.Stats.DupRequests != 1 {
		t.Fatalf("DupRequests = %d, want 1", d.c.Stats.DupRequests)
	}
	// A NEW transaction from the same requester still works.
	m3 := read(1, 0x40)
	m3.Tx = 6
	d.deliver(m3)
	if got := len(d.take()); got != 1 {
		t.Fatalf("fresh transaction blocked: %d messages sent", got)
	}
}

func TestDuplicateFilterRemembersOlderTransactions(t *testing.T) {
	d := newDrig(DefaultConfig())
	// Complete transactions 1..4 for P1, then present a duplicate of
	// the OLDEST: the filter must still catch it (a congested network
	// can deliver a duplicate long after newer completions).
	for tx := uint64(1); tx <= 4; tx++ {
		m := read(1, 0x40)
		m.Tx = tx
		d.deliver(m)
	}
	d.take()
	dup := read(1, 0x40)
	dup.Tx = 1
	d.deliver(dup)
	if got := len(d.take()); got != 0 {
		t.Fatalf("stale duplicate serviced: %d messages sent", got)
	}
}

// readTx delivers requester's read of addr carrying tx and reports how
// many messages the home sent: 1 when serviced, 0 when dropped as a
// duplicate.
func (d *drig) readTx(requester int, addr, tx uint64) int {
	m := read(requester, addr)
	m.Tx = tx
	d.deliver(m)
	return len(d.take())
}

func TestDuplicateFilterDepth(t *testing.T) {
	d := newDrig(DefaultConfig())
	// Tx 1, then doneTxDepth newer completions for the same (block,
	// requester): Tx 1 has left the ring, Tx 2 is its oldest.
	for tx := uint64(1); tx <= doneTxDepth+1; tx++ {
		if got := d.readTx(1, 0x40, tx); got != 1 {
			t.Fatalf("Tx %d sent %d messages, want 1", tx, got)
		}
	}
	if got := d.readTx(1, 0x40, 2); got != 0 {
		t.Fatalf("Tx 2, the %dth-newest completion, serviced again: %d messages", doneTxDepth, got)
	}
	if got := d.readTx(1, 0x40, 1); got != 1 {
		t.Fatalf("Tx 1, %d completions old, dropped: %d messages", doneTxDepth+1, got)
	}
	if d.c.Stats.DupRequests != 1 {
		t.Fatalf("DupRequests = %d, want 1", d.c.Stats.DupRequests)
	}
}

func TestDuplicateFilterPerRequester(t *testing.T) {
	d := newDrig(DefaultConfig())
	d.readTx(1, 0x40, 1)
	// Many more completions on the same block by other requesters,
	// with Tx numbers that collide with P1's: none may push P1's Tx 1
	// out of its ring, or be taken for P1's.
	for p := 2; p <= 6; p++ {
		for tx := uint64(1); tx <= 2*doneTxDepth; tx++ {
			if got := d.readTx(p, 0x40, tx); got != 1 {
				t.Fatalf("P%d Tx %d sent %d messages, want 1", p, tx, got)
			}
		}
	}
	if got := d.readTx(1, 0x40, 1); got != 0 {
		t.Fatalf("P1's Tx 1 serviced again after other requesters' completions: %d messages", got)
	}
	if got := d.readTx(1, 0x40, 2); got != 1 {
		t.Fatalf("P1's fresh Tx 2 dropped as another requester's duplicate: %d messages", got)
	}
	// The ring is per block too: P1's Tx 1 on another block is new.
	if got := d.readTx(1, 0x80, 1); got != 1 {
		t.Fatalf("P1's Tx 1 on another block dropped: %d messages", got)
	}
}

func TestDuplicateFilterManyRequesters(t *testing.T) {
	d := newDrig(DefaultConfig())
	const n = 100
	for p := 0; p < n; p++ {
		if got := d.readTx(p, 0x40, uint64(1000+p)); got != 1 {
			t.Fatalf("P%d sent %d messages, want 1", p, got)
		}
	}
	for p := 0; p < n; p++ {
		if got := d.readTx(p, 0x40, uint64(1000+p)); got != 0 {
			t.Fatalf("P%d's duplicate serviced after %d requesters completed: %d messages", p, n, got)
		}
	}
	if d.c.Stats.DupRequests != n {
		t.Fatalf("DupRequests = %d, want %d", d.c.Stats.DupRequests, n)
	}
}

func TestLegacyRequestsWithoutTxUnaffected(t *testing.T) {
	d := newDrig(DefaultConfig())
	// Tx=0 means "no transaction": two identical requests are two
	// requests (second is served from SharedSt), never deduplicated.
	d.deliver(read(1, 0x40))
	d.deliver(read(1, 0x40))
	if got := len(d.take()); got != 2 {
		t.Fatalf("Tx=0 requests deduplicated: %d replies", got)
	}
	if d.c.Stats.DupRequests != 0 {
		t.Fatalf("DupRequests = %d for Tx=0 traffic", d.c.Stats.DupRequests)
	}
}

// TestReadOnlyAccessorsStartNoRecord: Version, State and Busy on a
// block the home never served report the zero (Uncached, idle) state
// and start no record, so ForEachBlock lists the same blocks after
// them as before.
func TestReadOnlyAccessorsStartNoRecord(t *testing.T) {
	d := newDrig(Config{})
	d.deliver(read(1, 0x40))
	d.deliver(write(2, 0x80))
	list := func() string {
		var b strings.Builder
		d.c.ForEachBlock(func(a uint64, st DirState, owner int, sh mesg.NodeSet, busy bool) {
			fmt.Fprintf(&b, "%#x %v %d %v %v;", a, st, owner, sh, busy)
		})
		return b.String()
	}
	before := list()
	const unseen = 0xc0
	if v := d.c.Version(unseen); v != 0 {
		t.Fatalf("Version of an unseen block = %d", v)
	}
	if st, owner, sharers := d.c.State(unseen); st != Uncached || owner != 0 || !sharers.Empty() {
		t.Fatalf("State of an unseen block = %v %d %v", st, owner, sharers)
	}
	if d.c.Busy(unseen) {
		t.Fatal("an unseen block is busy")
	}
	if after := list(); after != before {
		t.Fatalf("ForEachBlock after the accessors = %q, before %q", after, before)
	}
	if _, ok := d.c.dir[unseen]; ok {
		t.Fatal("the accessors started a record")
	}
}

// TestDrainedBlockKeepsNoActivity: while a read forward keeps a block
// busy, K requests park on it and an evicting owner's writeback
// acknowledgment is held. Once the forward completes and the K
// requests drain, the controller holds no activity record for the
// block, and no slot of the queue's backing array or of any activity
// record still points at a message.
func TestDrainedBlockKeepsNoActivity(t *testing.T) {
	const k = 6
	d := newDrig(Config{DRAMCycles: 40, OccCycles: 6, PendingCap: 16})
	d.deliver(write(7, 0x40)) // P7 owns
	d.deliver(read(1, 0x40))  // forward to P7, busy
	for p := 2; p < 2+k; p++ {
		d.deliver(read(p, 0x40))
	}
	d.deliver(&mesg.Message{Kind: mesg.WriteBack, Addr: 0x40, Src: mesg.P(7), Dst: mesg.M(0), Data: 3})
	d.take()
	e := d.c.blocks.at(d.c.ent(0x40))
	if !e.busy || e.act == 0 {
		t.Fatalf("setup: busy=%v act=%d", e.busy, e.act)
	}
	a := d.c.acts[e.act-1]
	if len(a.pending) != k || len(a.deferredAcks) != 1 || a.busyMsg == nil {
		t.Fatalf("setup: %d parked, %d held acks, busyMsg %v", len(a.pending), len(a.deferredAcks), a.busyMsg)
	}
	queue := a.pending[:cap(a.pending)] // the queue's backing array

	d.deliver(&mesg.Message{Kind: mesg.CopyBack, Addr: 0x40, Src: mesg.P(7), Dst: mesg.M(0), Data: 5, Requester: 1})
	out := d.take()
	replies := 0
	for _, m := range out {
		if m.Kind == mesg.ReadReply {
			replies++
		}
	}
	if replies != k || d.c.Busy(0x40) {
		t.Fatalf("drain served %d of %d parked reads (busy=%v): %v", replies, k, d.c.Busy(0x40), out)
	}
	if e.act != 0 {
		t.Fatalf("the drained block keeps activity record %d", e.act)
	}
	for i, slot := range queue {
		if slot != nil {
			t.Fatalf("queue slot %d still holds %v", i, slot)
		}
	}
	for i := range d.c.acts {
		if a := &d.c.acts[i]; a.busyMsg != nil || a.pending != nil || a.deferredAcks != nil {
			t.Fatalf("activity slot %d holds %+v", i, *a)
		}
	}
	if len(d.c.freeActs) != len(d.c.acts) {
		t.Fatalf("%d of %d activity records free", len(d.c.freeActs), len(d.c.acts))
	}
}

// TestRecordSizes pins the per-block and per-(block, requester) costs
// that the home directories' heap is made of: a 64-byte block record
// and a 32-byte duplicate-filter ring.
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(block{}); n != 64 {
		t.Errorf("block record is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(doneRing{}); n != 32 {
		t.Errorf("duplicate-filter ring is %d bytes, want 32", n)
	}
}
