package sdir

import (
	"testing"

	"dresar/internal/mesg"
	"dresar/internal/topo"
)

// TestFailOrdinalLosesEverything: whole-switch death destroys the
// directory SRAM — every entry is invalidated with the losses tallied,
// waiting requesters of TRANSIENT entries become home fallbacks, and
// the directory never processes another snoop.
func TestFailOrdinalLosesEverything(t *testing.T) {
	f := newFab(t, Config{Entries: 1024, Ways: 4, Policy: PolicyBitVector})
	sw := top0()
	ord := tp16.SwitchOrdinal(sw)

	// Three MODIFIED entries; two go TRANSIENT, one with two waiting
	// requesters in its bit vector.
	f.Snoop(sw, wreply(0x40, 7), 0)
	f.Snoop(sw, wreply(0x80, 5), 0)
	f.Snoop(sw, wreply(0xc0, 2), 0)
	f.Snoop(sw, rreq(0x40, 3), 10)
	f.Snoop(sw, rreq(0x40, 4), 11) // bit-vector add: second waiter on 0x40
	f.Snoop(sw, rreq(0x80, 6), 12)
	if f.TotalStats().Hits != 2 || f.TotalStats().BitVectorAdds != 1 {
		t.Fatalf("setup stats: %+v", f.TotalStats())
	}
	if n := f.TransientCount(sw); n != 2 {
		t.Fatalf("TransientCount = %d, want 2", n)
	}

	f.FailOrdinal(ord)

	if !f.Failed(sw) || !f.Disabled(sw) {
		t.Fatal("failed switch not flagged")
	}
	if f.TotalStats().EntriesLost != 3 {
		t.Errorf("EntriesLost = %d, want 3", f.TotalStats().EntriesLost)
	}
	if f.TotalStats().PendingLost != 2 {
		t.Errorf("PendingLost = %d, want 2", f.TotalStats().PendingLost)
	}
	// Requesters 3 and 4 (on 0x40) plus 6 (on 0x80) must re-home.
	if f.TotalStats().HomeFallbacks != 3 {
		t.Errorf("HomeFallbacks = %d, want 3", f.TotalStats().HomeFallbacks)
	}
	for _, addr := range []uint64{0x40, 0x80, 0xc0} {
		if st, _, vec := f.Lookup(sw, addr); st != Inv || !vec.Empty() {
			t.Errorf("addr %#x survives as %v vec=%v", addr, st, vec)
		}
	}
	if n := f.TransientCount(sw); n != 0 {
		t.Errorf("TransientCount = %d after failure", n)
	}

	// The dead directory is a full bypass: inserts do not land, drains
	// do not process, every snoop counts as bypassed.
	before := f.TotalStats().Bypassed
	if a := f.Snoop(sw, wreply(0x100, 9), 20); a.Sink || len(a.Generated) != 0 {
		t.Fatalf("dead directory acted: %+v", a)
	}
	cb := &mesg.Message{Kind: mesg.CopyBack, Addr: 0x40, Src: mesg.P(7), Dst: mesg.M(0), Requester: 3, Data: 1}
	if a := f.Snoop(sw, cb, 21); a.Sink || len(a.Generated) != 0 {
		t.Fatalf("dead directory drained: %+v", a)
	}
	if st, _, _ := f.Lookup(sw, 0x100); st != Inv {
		t.Fatal("dead directory inserted")
	}
	if f.TotalStats().Bypassed != before+2 {
		t.Errorf("Bypassed = %d, want %d", f.TotalStats().Bypassed, before+2)
	}

	// Idempotent: a second failure report must not double-count losses.
	f.FailOrdinal(ord)
	if f.TotalStats().EntriesLost != 3 || f.TotalStats().PendingLost != 2 || f.TotalStats().HomeFallbacks != 3 {
		t.Errorf("second FailOrdinal changed loss counters: %+v", f.TotalStats())
	}

	// Other switches are untouched.
	leaf := topo.SwitchID{Stage: 0, Index: 1}
	f.Snoop(leaf, wreply(0x40, 7), 30)
	if st, owner, _ := f.Lookup(leaf, 0x40); st != Mod || owner != 7 {
		t.Fatalf("healthy switch entry = %v owner=%d", st, owner)
	}
}

// TestFailSwitchDelegates: the SwitchID form addresses the same state
// as the ordinal form.
func TestFailSwitchDelegates(t *testing.T) {
	f := newFab(t, DefaultConfig())
	sw := top0()
	f.Snoop(sw, wreply(0x40, 7), 0)
	f.FailSwitch(sw)
	if !f.Failed(sw) {
		t.Fatal("FailSwitch did not flag the switch")
	}
	if f.TotalStats().EntriesLost != 1 || f.TotalStats().PendingLost != 0 || f.TotalStats().HomeFallbacks != 0 {
		t.Fatalf("loss counters: %+v", f.TotalStats())
	}
}
