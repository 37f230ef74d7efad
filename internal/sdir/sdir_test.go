package sdir

import (
	"testing"

	"dresar/internal/mesg"
	"dresar/internal/sim"
	"dresar/internal/topo"
)

var tp16 = topo.MustNew(16, 4)

func newFab(t *testing.T, cfg Config) *Fabric {
	t.Helper()
	f, err := New(tp16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func top0() topo.SwitchID { return topo.SwitchID{Stage: 1, Index: 0} }

func wreply(addr uint64, owner int) *mesg.Message {
	return &mesg.Message{Kind: mesg.WriteReply, Addr: addr, Src: mesg.M(0), Dst: mesg.P(owner), Requester: owner}
}
func rreq(addr uint64, req int) *mesg.Message {
	return &mesg.Message{Kind: mesg.ReadReq, Addr: addr, Src: mesg.P(req), Dst: mesg.M(0), Requester: req}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(tp16, Config{Entries: 0}); err == nil {
		t.Error("zero entries accepted")
	}
	if _, err := New(tp16, Config{Entries: 10, Ways: 4}); err == nil {
		t.Error("non-divisible entries accepted")
	}
	if _, err := New(tp16, Config{Entries: 24, Ways: 4}); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	if _, err := New(tp16, Config{Entries: 512, Ways: 512}); err == nil {
		t.Error("more ways than a rank byte orders accepted")
	}
	if _, err := New(tp16, DefaultConfig()); err != nil {
		t.Error(err)
	}
}

func TestWriteReplyInsertsOwnership(t *testing.T) {
	f := newFab(t, DefaultConfig())
	a := f.Snoop(top0(), wreply(0x40, 7), 0)
	if a.Sink || len(a.Generated) != 0 {
		t.Fatalf("insert action = %+v", a)
	}
	st, owner, _ := f.Lookup(top0(), 0x40)
	if st != Mod || owner != 7 {
		t.Fatalf("entry = %v owner=%d", st, owner)
	}
	if f.TotalStats().Inserts != 1 {
		t.Fatalf("stats %+v", f.TotalStats())
	}
	// The same message at a different switch inserts independently.
	leaf := topo.SwitchID{Stage: 0, Index: 1}
	f.Snoop(leaf, wreply(0x40, 7), 0)
	if st, _, _ := f.Lookup(leaf, 0x40); st != Mod {
		t.Fatal("second switch did not insert")
	}
}

func TestReadHitSinksAndGeneratesMarkedCtoC(t *testing.T) {
	f := newFab(t, DefaultConfig())
	f.Snoop(top0(), wreply(0x40, 7), 0)
	a := f.Snoop(top0(), rreq(0x40, 3), 10)
	if !a.Sink {
		t.Fatal("read not sunk on MODIFIED hit")
	}
	if len(a.Generated) != 1 {
		t.Fatalf("generated = %v", a.Generated)
	}
	g := a.Generated[0]
	if g.Kind != mesg.CtoCReq || !g.Marked || g.Dst != mesg.P(7) || g.Requester != 3 {
		t.Fatalf("generated = %v", g)
	}
	st, _, vec := f.Lookup(top0(), 0x40)
	if st != Trans || !vec.Equal(mesg.NodeSetOf(3)) {
		t.Fatalf("entry after hit = %v vec=%v", st, vec)
	}
	if f.TotalStats().Hits != 1 {
		t.Fatalf("stats %+v", f.TotalStats())
	}
}

func TestReadMissPasses(t *testing.T) {
	f := newFab(t, DefaultConfig())
	a := f.Snoop(top0(), rreq(0x40, 3), 0)
	if a.Sink || len(a.Generated) != 0 {
		t.Fatalf("miss action = %+v", a)
	}
}

func TestReadInTransientRetryPolicy(t *testing.T) {
	f := newFab(t, DefaultConfig())
	f.Snoop(top0(), wreply(0x40, 7), 0)
	f.Snoop(top0(), rreq(0x40, 3), 0)
	a := f.Snoop(top0(), rreq(0x40, 5), 1)
	if !a.Sink || len(a.Generated) != 1 || a.Generated[0].Kind != mesg.Retry {
		t.Fatalf("action = %+v", a)
	}
	if a.Generated[0].Dst != mesg.P(5) || !a.Generated[0].Marked {
		t.Fatalf("retry = %v", a.Generated[0])
	}
	if f.TotalStats().TransientHits != 1 || f.TotalStats().RetriesSent != 1 {
		t.Fatalf("stats %+v", f.TotalStats())
	}
}

func TestReadInTransientBitVectorPolicy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyBitVector
	f := newFab(t, cfg)
	f.Snoop(top0(), wreply(0x40, 7), 0)
	f.Snoop(top0(), rreq(0x40, 3), 0)
	a := f.Snoop(top0(), rreq(0x40, 5), 1)
	if !a.Sink || len(a.Generated) != 0 {
		t.Fatalf("action = %+v", a)
	}
	_, _, vec := f.Lookup(top0(), 0x40)
	if !vec.Equal(mesg.NodeSetOf(3, 5)) {
		t.Fatalf("vec = %v", vec)
	}
	// The copyback serves the extra requester and carries its pid.
	cb := &mesg.Message{Kind: mesg.CopyBack, Addr: 0x40, Src: mesg.P(7), Dst: mesg.M(0), Requester: 3, Marked: true, Data: 42}
	a = f.Snoop(top0(), cb, 2)
	if len(a.Generated) != 1 {
		t.Fatalf("copyback generated = %v", a.Generated)
	}
	g := a.Generated[0]
	if g.Kind != mesg.ReadReply || g.Dst != mesg.P(5) || g.Data != 42 || !g.Marked {
		t.Fatalf("served = %v", g)
	}
	if !cb.Sharers.Equal(mesg.NodeSetOf(5)) {
		t.Fatalf("copyback sharers = %v", cb.Sharers)
	}
	if st, _, _ := f.Lookup(top0(), 0x40); st != Inv {
		t.Fatal("entry not released after copyback")
	}
	if f.TotalStats().ServedFromCB != 1 {
		t.Fatalf("stats %+v", f.TotalStats())
	}
}

func TestWriteInvalidatesModified(t *testing.T) {
	f := newFab(t, DefaultConfig())
	f.Snoop(top0(), wreply(0x40, 7), 0)
	w := &mesg.Message{Kind: mesg.WriteReq, Addr: 0x40, Src: mesg.P(2), Dst: mesg.M(0), Requester: 2}
	a := f.Snoop(top0(), w, 1)
	if a.Sink {
		t.Fatal("write to MODIFIED entry sunk; must pass to home")
	}
	if st, _, _ := f.Lookup(top0(), 0x40); st != Inv {
		t.Fatal("entry survived a write")
	}
}

func TestWriteInTransientNacked(t *testing.T) {
	f := newFab(t, DefaultConfig())
	f.Snoop(top0(), wreply(0x40, 7), 0)
	f.Snoop(top0(), rreq(0x40, 3), 0)
	w := &mesg.Message{Kind: mesg.WriteReq, Addr: 0x40, Src: mesg.P(2), Dst: mesg.M(0), Requester: 2}
	a := f.Snoop(top0(), w, 1)
	if !a.Sink || len(a.Generated) != 1 {
		t.Fatalf("action = %+v", a)
	}
	g := a.Generated[0]
	if g.Kind != mesg.Nack || !g.ForWrite || g.Dst != mesg.P(2) {
		t.Fatalf("nack = %v", g)
	}
	if f.TotalStats().WriteNacks != 1 {
		t.Fatalf("stats %+v", f.TotalStats())
	}
}

func TestCtoCReqInvalidatesModifiedAndSinksInTransient(t *testing.T) {
	f := newFab(t, DefaultConfig())
	f.Snoop(top0(), wreply(0x40, 7), 0)
	c := &mesg.Message{Kind: mesg.CtoCReq, Addr: 0x40, Src: mesg.M(0), Dst: mesg.P(7), Requester: 2}
	a := f.Snoop(top0(), c, 1)
	if a.Sink {
		t.Fatal("CtoC through MODIFIED entry sunk")
	}
	if st, _, _ := f.Lookup(top0(), 0x40); st != Inv {
		t.Fatal("entry survived a CtoC transfer")
	}
	// Rebuild, intercept a read, then a home CtoC forward must sink.
	f.Snoop(top0(), wreply(0x40, 7), 2)
	f.Snoop(top0(), rreq(0x40, 3), 3)
	a = f.Snoop(top0(), c, 4)
	if !a.Sink {
		t.Fatal("home CtoC forward not sunk in TRANSIENT")
	}
	if f.TotalStats().CtoCSunk != 1 {
		t.Fatalf("stats %+v", f.TotalStats())
	}
}

func TestWriteBackInTransientServesRequester(t *testing.T) {
	f := newFab(t, DefaultConfig())
	f.Snoop(top0(), wreply(0x40, 7), 0)
	f.Snoop(top0(), rreq(0x40, 3), 1)
	wb := &mesg.Message{Kind: mesg.WriteBack, Addr: 0x40, Src: mesg.P(7), Dst: mesg.M(0), Requester: 7, Data: 99}
	a := f.Snoop(top0(), wb, 2)
	if a.Sink {
		t.Fatal("writeback sunk")
	}
	if len(a.Generated) != 1 {
		t.Fatalf("generated = %v", a.Generated)
	}
	g := a.Generated[0]
	if g.Kind != mesg.ReadReply || g.Dst != mesg.P(3) || g.Data != 99 || !g.Marked {
		t.Fatalf("served = %v", g)
	}
	// The writeback is marked and carries the requester to the home.
	if !wb.Marked || wb.Requester != 3 {
		t.Fatalf("writeback rewrite = %v", wb)
	}
	if st, _, _ := f.Lookup(top0(), 0x40); st != Inv {
		t.Fatal("entry not released")
	}
	if f.TotalStats().ServedFromWB != 1 {
		t.Fatalf("stats %+v", f.TotalStats())
	}
}

func TestNoDataCopyBackClearsTransient(t *testing.T) {
	f := newFab(t, DefaultConfig())
	f.Snoop(top0(), wreply(0x40, 7), 0)
	f.Snoop(top0(), rreq(0x40, 3), 1)
	nd := &mesg.Message{Kind: mesg.CopyBack, Addr: 0x40, Src: mesg.P(7), Dst: mesg.M(0), Requester: 3, Marked: true, NoData: true}
	a := f.Snoop(top0(), nd, 2)
	if a.Sink {
		t.Fatal("NoData copyback sunk; it must clear every switch en route")
	}
	if len(a.Generated) != 1 || a.Generated[0].Kind != mesg.Retry || a.Generated[0].Dst != mesg.P(3) {
		t.Fatalf("generated = %v", a.Generated)
	}
	if st, _, _ := f.Lookup(top0(), 0x40); st != Inv {
		t.Fatal("transient entry survived NoData clear")
	}
}

func TestEvictionNeverTakesTransient(t *testing.T) {
	// 4 entries, 4 ways: one set. Fill it, make all transient, then an
	// insert must be abandoned.
	f := newFab(t, Config{Entries: 4, Ways: 4})
	for i := 0; i < 4; i++ {
		f.Snoop(top0(), wreply(uint64(i)*32, i), 0)
		f.Snoop(top0(), rreq(uint64(i)*32, 8+i), 1)
	}
	f.Snoop(top0(), wreply(0x1000, 5), 2)
	if st, _, _ := f.Lookup(top0(), 0x1000); st != Inv {
		t.Fatal("insert displaced a TRANSIENT entry")
	}
	if f.TotalStats().InsertBlocked != 1 {
		t.Fatalf("stats %+v", f.TotalStats())
	}
	// All four originals must still be transient.
	for i := 0; i < 4; i++ {
		if st, _, _ := f.Lookup(top0(), uint64(i)*32); st != Trans {
			t.Fatalf("entry %d lost", i)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	f := newFab(t, Config{Entries: 2, Ways: 2})
	f.Snoop(top0(), wreply(0x00, 1), 0)
	f.Snoop(top0(), wreply(0x20, 2), 1)
	f.Snoop(top0(), wreply(0x40, 3), 2) // evicts 0x00 (LRU)
	if st, _, _ := f.Lookup(top0(), 0x00); st != Inv {
		t.Fatal("LRU not evicted")
	}
	if st, _, _ := f.Lookup(top0(), 0x20); st != Mod {
		t.Fatal("MRU evicted")
	}
	if f.TotalStats().Evictions != 1 {
		t.Fatalf("stats %+v", f.TotalStats())
	}
}

func TestPortContention(t *testing.T) {
	f := newFab(t, DefaultConfig()) // 2 ports
	delays := make([]uint64, 5)
	for i := range delays {
		a := f.Snoop(top0(), rreq(uint64(0x1000+i*32), i), 100)
		delays[i] = uint64(a.ExtraDelay)
	}
	// First two free, next two +1, fifth +2.
	want := []uint64{0, 0, 1, 1, 2}
	for i := range want {
		if delays[i] != want[i] {
			t.Fatalf("delays = %v, want %v", delays, want)
		}
	}
	// A new cycle resets the budget.
	a := f.Snoop(top0(), rreq(0x2000, 1), 101)
	if a.ExtraDelay != 0 {
		t.Fatalf("delay after cycle advance = %d", a.ExtraDelay)
	}
	if f.TotalStats().PortDelayTotal != 4 {
		t.Fatalf("stats %+v", f.TotalStats())
	}
}

func TestPendingBufferSkipsMainPorts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PendingEntries = 8
	f := newFab(t, cfg)
	// Saturate the main ports with reads in one cycle.
	for i := 0; i < 4; i++ {
		f.Snoop(top0(), rreq(uint64(0x1000+i*32), i), 50)
	}
	// A writeback in the same cycle uses the pending buffer: no delay.
	wb := &mesg.Message{Kind: mesg.WriteBack, Addr: 0x5000, Src: mesg.P(1), Dst: mesg.M(0), Data: 1}
	if a := f.Snoop(top0(), wb, 50); a.ExtraDelay != 0 {
		t.Fatalf("transient-only kind charged main-port delay %d", a.ExtraDelay)
	}
	// Without the pending buffer it is charged.
	f2 := newFab(t, DefaultConfig())
	for i := 0; i < 4; i++ {
		f2.Snoop(top0(), rreq(uint64(0x1000+i*32), i), 50)
	}
	if a := f2.Snoop(top0(), wb, 50); a.ExtraDelay == 0 {
		t.Fatal("main-array design should charge port delay")
	}
}

func TestPendingBufferCapacityLimitsInterceptions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PendingEntries = 2
	f := newFab(t, cfg)
	for i := 0; i < 3; i++ {
		f.Snoop(top0(), wreply(uint64(i)*32, i), 0)
	}
	a1 := f.Snoop(top0(), rreq(0x00, 8), 1)
	a2 := f.Snoop(top0(), rreq(0x20, 9), 2)
	a3 := f.Snoop(top0(), rreq(0x40, 10), 3)
	if !a1.Sink || !a2.Sink {
		t.Fatal("first two interceptions failed")
	}
	if a3.Sink {
		t.Fatal("third interception exceeded pending buffer capacity")
	}
	if f.TotalStats().PendingFull != 1 {
		t.Fatalf("stats %+v", f.TotalStats())
	}
	if f.TransientCount(top0()) != 2 {
		t.Fatalf("transient count = %d", f.TransientCount(top0()))
	}
}

func TestStageMaskRestrictsPlacement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StageMask = 1 << 1 // top stage only
	f := newFab(t, cfg)
	leaf := topo.SwitchID{Stage: 0, Index: 0}
	f.Snoop(leaf, wreply(0x40, 1), 0)
	if st, _, _ := f.Lookup(leaf, 0x40); st != Inv {
		t.Fatal("leaf stored an entry despite mask")
	}
	f.Snoop(top0(), wreply(0x40, 1), 0)
	if st, _, _ := f.Lookup(top0(), 0x40); st != Mod {
		t.Fatal("top stage inactive")
	}
}

func TestRetryFanOutBitVector(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyBitVector
	f := newFab(t, cfg)
	f.Snoop(top0(), wreply(0x40, 7), 0)
	f.Snoop(top0(), rreq(0x40, 3), 1)
	f.Snoop(top0(), rreq(0x40, 5), 2)
	r := &mesg.Message{Kind: mesg.Retry, Addr: 0x40, Src: mesg.M(0), Dst: mesg.P(3), Requester: 3}
	a := f.Snoop(top0(), r, 3)
	if len(a.Generated) != 1 || a.Generated[0].Dst != mesg.P(5) {
		t.Fatalf("retry fan-out = %v", a.Generated)
	}
}

func TestInsertDoesNotClobberTransient(t *testing.T) {
	f := newFab(t, DefaultConfig())
	f.Snoop(top0(), wreply(0x40, 7), 0)
	f.Snoop(top0(), rreq(0x40, 3), 1)
	f.Snoop(top0(), wreply(0x40, 9), 2)
	st, _, vec := f.Lookup(top0(), 0x40)
	if st != Trans || !vec.Equal(mesg.NodeSetOf(3)) {
		t.Fatalf("transient clobbered: %v vec=%v", st, vec)
	}
}

func TestActionlessKinds(t *testing.T) {
	f := newFab(t, DefaultConfig())
	// A ForWrite writeback (ownership ack) invalidates M entries only.
	f.Snoop(top0(), wreply(0x40, 7), 0)
	wb := &mesg.Message{Kind: mesg.WriteBack, Addr: 0x40, Src: mesg.P(7), Dst: mesg.M(0), ForWrite: true}
	a := f.Snoop(top0(), wb, 1)
	if a.Sink || len(a.Generated) != 0 {
		t.Fatalf("action = %+v", a)
	}
	if st, _, _ := f.Lookup(top0(), 0x40); st != Inv {
		t.Fatal("ownership ack did not invalidate")
	}
}

func TestPolicyAndStateStrings(t *testing.T) {
	if PolicyRetry.String() != "retry" || PolicyBitVector.String() != "bitvector" {
		t.Fatal("policy strings")
	}
	if Inv.String() != "INVALID" || Mod.String() != "MODIFIED" || Trans.String() != "TRANSIENT" {
		t.Fatal("state strings")
	}
}

// BenchmarkSnoopHit measures one interception round through Snoop:
// a write reply inserts ownership, a read hits the MODIFIED entry and
// sinks into a marked CtoC request, and the copyback releases the
// TRANSIENT entry. The rounds cycle over 64 blocks in distinct sets.
func BenchmarkSnoopHit(b *testing.B) {
	f := MustNew(tp16, DefaultConfig())
	var wr, rr, cb [64]*mesg.Message
	for k := range wr {
		addr := uint64(k) * 32
		wr[k], rr[k] = wreply(addr, 7), rreq(addr, 3)
		cb[k] = &mesg.Message{Kind: mesg.CopyBack, Addr: addr, Src: mesg.P(7), Dst: mesg.M(0), Requester: 3, Marked: true}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, now := i%64, sim.Cycle(i)
		f.Snoop(top0(), wr[k], now)
		if a := f.Snoop(top0(), rr[k], now+1); !a.Sink {
			b.Fatal("read not intercepted")
		}
		f.Snoop(top0(), cb[k], now+2)
	}
}

func TestPerStageHitAccounting(t *testing.T) {
	f := newFab(t, DefaultConfig())
	leaf := topo.SwitchID{Stage: 0, Index: 0}
	// Top-stage interception.
	f.Snoop(top0(), wreply(0x40, 7), 0)
	f.Snoop(top0(), rreq(0x40, 3), 1)
	// Leaf-stage interception (owner and requester share leaf 0).
	f.Snoop(leaf, wreply(0x80, 1), 2)
	f.Snoop(leaf, rreq(0x80, 2), 3)
	if f.TotalStats().TopHits != 1 || f.TotalStats().LeafHits != 1 || f.TotalStats().Hits != 2 {
		t.Fatalf("stats %+v", f.TotalStats())
	}
}

func TestRandomOpsNeverExceedCapacity(t *testing.T) {
	// Property: arbitrary snoop streams never panic, never hold more
	// valid entries than capacity, and keep the pending count within
	// bounds.
	rng := sim.NewRNG(77)
	cfg := Config{Entries: 16, Ways: 4, PendingEntries: 4}
	f := MustNew(tp16, cfg)
	sws := []topo.SwitchID{{Stage: 0, Index: 0}, {Stage: 1, Index: 0}, {Stage: 1, Index: 3}}
	kinds := []mesg.Kind{mesg.WriteReply, mesg.ReadReq, mesg.WriteReq, mesg.CtoCReq, mesg.CopyBack, mesg.WriteBack, mesg.Retry}
	for i := 0; i < 20000; i++ {
		m := &mesg.Message{
			Kind:      kinds[rng.Intn(len(kinds))],
			Addr:      uint64(rng.Intn(64)) * 32,
			Src:       mesg.P(rng.Intn(16)),
			Dst:       mesg.M(rng.Intn(16)),
			Requester: rng.Intn(16),
			Owner:     rng.Intn(16),
			Marked:    rng.Intn(4) == 0,
			NoData:    rng.Intn(16) == 0,
			ForWrite:  rng.Intn(8) == 0,
			Data:      uint64(i),
		}
		sw := sws[rng.Intn(len(sws))]
		f.Snoop(sw, m, sim.Cycle(i))
		if tc := f.TransientCount(sw); tc > cfg.PendingEntries {
			t.Fatalf("op %d: transient count %d exceeds pending buffer %d", i, tc, cfg.PendingEntries)
		}
		// Count valid entries at this switch.
		valid := 0
		for b := uint64(0); b < 64; b++ {
			if st, _, _ := f.Lookup(sw, b*32); st != Inv {
				valid++
			}
		}
		if valid > cfg.Entries {
			t.Fatalf("op %d: %d valid entries exceed capacity %d", i, valid, cfg.Entries)
		}
	}
}
