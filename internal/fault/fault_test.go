package fault

import (
	"testing"

	"dresar/internal/mesg"
	"dresar/internal/sdir"
	"dresar/internal/sim"
	"dresar/internal/topo"
)

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=7, drop=20,dup=10,delay=50,maxdelay=256,dropfirst=2,corrupt=500,corruptcount=4,evict=800,evictcount=5,disableall=1000,disableone=300")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{
		Seed: 7, DropPermille: 20, DupPermille: 10, DelayPermille: 50, MaxDelay: 256,
		DropFirst: 2, CorruptEvery: 500, CorruptCount: 4, EvictEvery: 800, EvictCount: 5,
		DisableAllAt: 1000, DisableOneAt: 300,
	}
	if p != want {
		t.Fatalf("ParsePlan = %+v, want %+v", p, want)
	}
	if !p.Active() {
		t.Fatalf("parsed plan should be active")
	}
}

func TestParsePlanEmptyAndErrors(t *testing.T) {
	p, err := ParsePlan("")
	if err != nil || p.Active() {
		t.Fatalf("empty spec: plan=%+v err=%v", p, err)
	}
	for _, bad := range []string{"drop", "drop=abc", "bogus=1", "drop=2000"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Fatalf("ParsePlan(%q) accepted", bad)
		}
	}
}

// sendRecorder collects messages that made it past the injector.
type sendRecorder struct{ msgs []*mesg.Message }

func (r *sendRecorder) send(m *mesg.Message) { r.msgs = append(r.msgs, m) }

func TestWrapSendDropFirst(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(Plan{Seed: 1, DropFirst: 2}, eng)
	rec := &sendRecorder{}
	send := in.WrapSend(rec.send)
	for i := 0; i < 4; i++ {
		send(&mesg.Message{Kind: mesg.ReadReq, Addr: 0x40, Requester: 0, Tx: uint64(i + 1)})
	}
	if len(rec.msgs) != 2 || in.Stats.Dropped != 2 {
		t.Fatalf("sent %d dropped %d, want 2/2", len(rec.msgs), in.Stats.Dropped)
	}
	if rec.msgs[0].Tx != 3 || rec.msgs[1].Tx != 4 {
		t.Fatalf("wrong survivors: %v", rec.msgs)
	}
}

func TestWrapSendOnlyFaultsRequests(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(Plan{Seed: 1, DropPermille: 1000, DupPermille: 1000, DelayPermille: 1000}, eng)
	rec := &sendRecorder{}
	send := in.WrapSend(rec.send)
	// Non-request kinds pass through untouched even at 100% rates.
	for _, k := range []mesg.Kind{mesg.ReadReply, mesg.CtoCReq, mesg.CopyBack, mesg.WriteBack, mesg.Inval, mesg.InvalAck, mesg.WBAck, mesg.Nack, mesg.Retry, mesg.CtoCReply, mesg.WriteReply} {
		send(&mesg.Message{Kind: k, Addr: 0x40})
	}
	if len(rec.msgs) != 11 || in.Stats.Dropped != 0 || in.Stats.Delayed != 0 {
		t.Fatalf("non-request messages faulted: sent=%d stats=%v", len(rec.msgs), in.Stats)
	}
	// A request at 100% drop never passes.
	send(&mesg.Message{Kind: mesg.ReadReq, Addr: 0x40})
	if len(rec.msgs) != 11 || in.Stats.Dropped != 1 {
		t.Fatalf("request not dropped at 100%%: sent=%d stats=%v", len(rec.msgs), in.Stats)
	}
}

func TestWrapSendDuplicateSharesTx(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(Plan{Seed: 1, DupPermille: 1000}, eng)
	rec := &sendRecorder{}
	send := in.WrapSend(rec.send)
	send(&mesg.Message{ID: 9, Kind: mesg.WriteReq, Addr: 0x40, Tx: 55})
	if len(rec.msgs) != 2 || in.Stats.Duplicated != 1 {
		t.Fatalf("sent %d, stats=%v", len(rec.msgs), in.Stats)
	}
	dup, orig := rec.msgs[0], rec.msgs[1]
	if dup.Tx != 55 || orig.Tx != 55 {
		t.Fatalf("duplicate lost the transaction ID: %v / %v", dup, orig)
	}
	if dup.ID != 0 {
		t.Fatalf("duplicate must take a fresh network ID, has %d", dup.ID)
	}
	if orig.ID != 9 {
		t.Fatalf("original mutated: %v", orig)
	}
}

func TestWrapSendDelayHoldsMessage(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(Plan{Seed: 3, DelayPermille: 1000, MaxDelay: 64}, eng)
	rec := &sendRecorder{}
	send := in.WrapSend(rec.send)
	send(&mesg.Message{Kind: mesg.ReadReq, Addr: 0x40})
	if len(rec.msgs) != 0 {
		t.Fatalf("delayed message sent immediately")
	}
	eng.Run(0)
	if len(rec.msgs) != 1 || in.Stats.Delayed != 1 {
		t.Fatalf("delayed message lost: sent=%d stats=%v", len(rec.msgs), in.Stats)
	}
	if eng.Now() == 0 || eng.Now() > 64 {
		t.Fatalf("delay %d outside (0, 64]", eng.Now())
	}
}

func TestWrapSendDeterministicBySeed(t *testing.T) {
	outcome := func(seed uint64) []bool {
		eng := sim.NewEngine()
		in := NewInjector(Plan{Seed: seed, DropPermille: 500}, eng)
		rec := &sendRecorder{}
		send := in.WrapSend(rec.send)
		var kept []bool
		for i := 0; i < 64; i++ {
			before := len(rec.msgs)
			send(&mesg.Message{Kind: mesg.ReadReq, Addr: uint64(i) * 32})
			kept = append(kept, len(rec.msgs) > before)
		}
		return kept
	}
	a, b := outcome(42), outcome(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at message %d", i)
		}
	}
	c := outcome(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds produced identical fault pattern")
	}
}

func TestAttachSDirDisableSchedules(t *testing.T) {
	tp, err := topo.New(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := sdir.New(tp, sdir.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	in := NewInjector(Plan{Seed: 2, DisableOneAt: 100, DisableAllAt: 200}, eng)
	in.AttachSDir(f, 16)
	eng.Drain(150)
	if f.DisabledCount() != 1 {
		t.Fatalf("disable-one at 100: %d disabled at cycle 150", f.DisabledCount())
	}
	eng.Drain(250)
	if f.DisabledCount() != f.DirCount() {
		t.Fatalf("disable-all at 200: %d/%d disabled", f.DisabledCount(), f.DirCount())
	}
	if in.Stats.Disabled != uint64(f.DirCount()) {
		t.Fatalf("Disabled stat %d, want %d", in.Stats.Disabled, f.DirCount())
	}
}

func TestPeriodicFaultsAreCountBounded(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(Plan{Seed: 2, CorruptEvery: 10, CorruptCount: 3}, eng)
	fired := 0
	in.periodic(10, 3, func() { fired++ })
	eng.Run(0)
	if fired != 3 {
		t.Fatalf("periodic fired %d times, want 3", fired)
	}
	if eng.Pending() != 0 {
		t.Fatalf("periodic left %d events queued (engine can never drain)", eng.Pending())
	}
}
