package swcache

import (
	"testing"

	"dresar/internal/mesg"
	"dresar/internal/sim"
	"dresar/internal/topo"
	"dresar/internal/xbar"
)

var tp16 = topo.MustNew(16, 4)

func top0() topo.SwitchID  { return topo.SwitchID{Stage: 1, Index: 0} }
func leaf0() topo.SwitchID { return topo.SwitchID{Stage: 0, Index: 0} }

func reply(addr uint64, dst int, version uint64) *mesg.Message {
	return &mesg.Message{Kind: mesg.ReadReply, Addr: addr, Src: mesg.M(0), Dst: mesg.P(dst), Requester: dst, Data: version}
}
func rreq(addr uint64, req int) *mesg.Message {
	return &mesg.Message{Kind: mesg.ReadReq, Addr: addr, Src: mesg.P(req), Dst: mesg.M(0), Requester: req}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(tp16, Config{Entries: 0}); err == nil {
		t.Error("zero entries accepted")
	}
	if _, err := New(tp16, Config{Entries: 10}); err == nil {
		t.Error("entries that fill no whole 4-way set accepted")
	}
	if _, err := New(tp16, Config{Entries: 24}); err == nil {
		t.Error("non power-of-two sets accepted")
	}
	if _, err := New(tp16, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAndHit(t *testing.T) {
	f := MustNew(tp16, DefaultConfig())
	f.Snoop(top0(), reply(0x40, 3, 7), 0)
	if v, ok := f.Lookup(top0(), 0x40); !ok || v != 7 {
		t.Fatalf("entry = %d %v", v, ok)
	}
	a := f.Snoop(top0(), rreq(0x40, 5), 1)
	if !a.Sink || len(a.Generated) != 2 {
		t.Fatalf("action = %+v", a)
	}
	g := a.Generated[0]
	if g.Kind != mesg.ReadReply || !g.Marked || !g.SwitchCache || g.Data != 7 || g.Dst != mesg.P(5) {
		t.Fatalf("generated reply = %+v", g)
	}
	note := a.Generated[1]
	if note.Kind != mesg.CopyBack || !note.Marked || note.Requester != 5 || note.Dst != mesg.M(0) || note.Data != 7 {
		t.Fatalf("add-sharer note = %+v", note)
	}
	if note.Src != mesg.P(5) {
		t.Fatalf("note source must be the requester (for the home's fold/purge logic): %v", note.Src)
	}
	if f.TotalStats().Hits != 1 || f.TotalStats().Inserts != 1 {
		t.Fatalf("stats %+v", f.TotalStats())
	}
}

func TestLeafStageInactiveByDefault(t *testing.T) {
	f := MustNew(tp16, DefaultConfig())
	f.Snoop(leaf0(), reply(0x40, 3, 7), 0)
	if _, ok := f.Lookup(leaf0(), 0x40); ok {
		t.Fatal("leaf stored an entry despite top-only default (incoherent placement)")
	}
	if a := f.Snoop(leaf0(), rreq(0x40, 5), 0); a.Sink {
		t.Fatal("leaf hit")
	}
}

func TestWriteTrafficInvalidates(t *testing.T) {
	kinds := []mesg.Kind{mesg.WriteReq, mesg.WriteReply, mesg.CtoCReq, mesg.CopyBack, mesg.WriteBack, mesg.Inval}
	for _, k := range kinds {
		f := MustNew(tp16, DefaultConfig())
		f.Snoop(top0(), reply(0x40, 3, 7), 0)
		f.Snoop(top0(), &mesg.Message{Kind: k, Addr: 0x40, Src: mesg.P(1), Dst: mesg.M(0), Requester: 1}, 1)
		if _, ok := f.Lookup(top0(), 0x40); ok {
			t.Fatalf("%v did not invalidate", k)
		}
		if a := f.Snoop(top0(), rreq(0x40, 5), 2); a.Sink {
			t.Fatalf("stale hit after %v", k)
		}
	}
}

// TestCtoCReplyInvalidates is the regression test for the kindswitch
// finding on Snoop: CtoCReply was silently falling through, leaving a
// stale clean copy servable after the owner shipped newer dirty data
// processor-to-processor.
func TestCtoCReplyInvalidates(t *testing.T) {
	f := MustNew(tp16, DefaultConfig())
	f.Snoop(top0(), reply(0x40, 3, 7), 0)
	ctoc := &mesg.Message{Kind: mesg.CtoCReply, Addr: 0x40, Src: mesg.P(2), Dst: mesg.P(5), Requester: 5, Data: 9}
	f.Snoop(top0(), ctoc, 1)
	if _, ok := f.Lookup(top0(), 0x40); ok {
		t.Fatal("CtoCReply did not invalidate the stale clean copy")
	}
	if a := f.Snoop(top0(), rreq(0x40, 6), 2); a.Sink {
		t.Fatal("stale version 7 served after the owner shipped version 9")
	}
}

// TestControlTrafficKeepsEntry pins the other side of the Snoop
// exhaustiveness fix: data-free acknowledgments must not invalidate.
func TestControlTrafficKeepsEntry(t *testing.T) {
	kinds := []mesg.Kind{mesg.InvalAck, mesg.WBAck, mesg.Nack, mesg.Retry}
	for _, k := range kinds {
		f := MustNew(tp16, DefaultConfig())
		f.Snoop(top0(), reply(0x40, 3, 7), 0)
		f.Snoop(top0(), &mesg.Message{Kind: k, Addr: 0x40, Src: mesg.P(1), Dst: mesg.P(3), Requester: 1}, 1)
		if _, ok := f.Lookup(top0(), 0x40); !ok {
			t.Fatalf("%v invalidated a clean entry it says nothing about", k)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	f := MustNew(tp16, Config{Entries: 4}) // one 4-way set
	for i := uint64(0); i < 4; i++ {
		f.Snoop(top0(), reply(i*0x20, 1, i+1), sim.Cycle(i))
	}
	f.Snoop(top0(), rreq(0x00, 3), 4) // touch 0x00: 0x20 is now the LRU
	f.Snoop(top0(), reply(0x80, 3, 5), 5)
	if _, ok := f.Lookup(top0(), 0x20); ok {
		t.Fatal("LRU entry survived")
	}
	for _, b := range []uint64{0x00, 0x40, 0x60, 0x80} {
		if _, ok := f.Lookup(top0(), b); !ok {
			t.Fatalf("entry %#x evicted in place of the LRU", b)
		}
	}
	if f.TotalStats().Evictions != 1 {
		t.Fatalf("stats %+v", f.TotalStats())
	}
}

// TestRepeatedReplyKeepsOneCopy: two read replies for one block pass
// the switch when two readers' requests both missed it. The second must
// update the cached copy in place, even with an invalid way ahead of
// it, so that one invalidation leaves no copy to serve a stale version.
func TestRepeatedReplyKeepsOneCopy(t *testing.T) {
	f := MustNew(tp16, Config{Entries: 4}) // one 4-way set
	f.Snoop(top0(), reply(0x00, 1, 1), 0)
	f.Snoop(top0(), reply(0x20, 2, 2), 1)
	f.Snoop(top0(), &mesg.Message{Kind: mesg.Inval, Addr: 0x00, Src: mesg.M(0), Dst: mesg.P(1)}, 2)
	f.Snoop(top0(), reply(0x20, 3, 2), 3)
	f.Snoop(top0(), &mesg.Message{Kind: mesg.WriteReq, Addr: 0x20, Src: mesg.P(4), Dst: mesg.M(0), Requester: 4}, 4)
	if a := f.Snoop(top0(), rreq(0x20, 5), 5); a.Sink {
		t.Fatal("a read hit a copy of 0x20 that outlived the write's invalidation")
	}
	if st := f.TotalStats(); st.Inserts != 3 || st.Invalidates != 2 || st.Evictions != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// stubSnooper is a scripted xbar.Snooper.
type stubSnooper struct {
	calls int
	act   xbar.Action
}

func (s *stubSnooper) Snoop(sw topo.SwitchID, m *mesg.Message, now sim.Cycle) xbar.Action {
	s.calls++
	return s.act
}

func TestCombinedCacheOnly(t *testing.T) {
	f := MustNew(tp16, DefaultConfig())
	c := Combined{Cache: f}
	f.Snoop(top0(), reply(0x40, 3, 9), 0)
	a := c.Snoop(top0(), rreq(0x40, 5), 1)
	if !a.Sink || len(a.Generated) != 2 {
		t.Fatalf("combined cache-only action = %+v", a)
	}
}

func TestCombinedDirSinkShadowsCache(t *testing.T) {
	f := MustNew(tp16, DefaultConfig())
	f.Snoop(top0(), reply(0x40, 3, 9), 0)
	dir := &stubSnooper{act: xbar.Action{Sink: true}}
	c := Combined{Dir: dir, Cache: f}
	a := c.Snoop(top0(), rreq(0x40, 5), 1)
	if !a.Sink || len(a.Generated) != 0 {
		t.Fatalf("action = %+v", a)
	}
	if dir.calls != 1 {
		t.Fatalf("dir calls = %d", dir.calls)
	}
	if f.TotalStats().Hits != 0 {
		t.Fatal("cache served a message the directory sank")
	}
}

func TestCombinedDelaysAdd(t *testing.T) {
	f := MustNew(tp16, DefaultConfig())
	dir := &stubSnooper{act: xbar.Action{ExtraDelay: 3}}
	c := Combined{Dir: dir, Cache: f}
	f.Snoop(top0(), reply(0x40, 3, 9), 0)
	a := c.Snoop(top0(), rreq(0x40, 5), 1)
	if a.ExtraDelay != 3 || !a.Sink {
		t.Fatalf("action = %+v", a)
	}
}
