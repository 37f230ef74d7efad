package xbar

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"dresar/internal/mesg"
	"dresar/internal/sim"
	"dresar/internal/topo"
)

// rig builds a 16-node radix-4 network with capture handlers.
type rig struct {
	eng *sim.Engine
	tp  *topo.T
	net *Network
	// deliveries records (endpoint, message, cycle) in delivery order.
	got []delivery
}

type delivery struct {
	at  sim.Cycle
	end mesg.End
	m   *mesg.Message
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine(), tp: topo.MustNew(16, 4)}
	r.net = New(r.eng, r.tp, cfg)
	for i := 0; i < 16; i++ {
		i := i
		r.net.AttachProc(i, func(m *mesg.Message) {
			r.got = append(r.got, delivery{r.eng.Now(), mesg.P(i), m})
		})
		r.net.AttachMem(i, func(m *mesg.Message) {
			r.got = append(r.got, delivery{r.eng.Now(), mesg.M(i), m})
		})
	}
	return r
}

func TestSingleMessageLatency(t *testing.T) {
	r := newRig(t, Config{})
	m := &mesg.Message{Kind: mesg.ReadReq, Addr: 0x1000, Src: mesg.P(0), Dst: mesg.M(15)}
	r.net.Send(m)
	r.eng.Run(0)
	if len(r.got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(r.got))
	}
	d := r.got[0]
	if d.end != mesg.M(15) || d.m != m {
		t.Fatalf("delivered %v at %v", d.m, d.end)
	}
	// 1-flit message: injection 4, two switch hops of core(4)+ser(4)
	// each = 16, total 20 cycles on an idle network.
	want := sim.Cycle(4 + 2*(4+4))
	if d.at != want {
		t.Fatalf("latency = %d, want %d", d.at, want)
	}
}

func TestDataMessageLatency(t *testing.T) {
	r := newRig(t, Config{})
	m := &mesg.Message{Kind: mesg.ReadReply, Addr: 0x40, Src: mesg.M(3), Dst: mesg.P(9), Data: 7}
	r.net.Send(m)
	r.eng.Run(0)
	if len(r.got) != 1 {
		t.Fatal("no delivery")
	}
	// 5-flit message: injection 20, two hops of 4+20 each = 68.
	want := sim.Cycle(20 + 2*(4+20))
	if r.got[0].at != want {
		t.Fatalf("latency = %d, want %d", r.got[0].at, want)
	}
}

func TestTurnaroundDelivery(t *testing.T) {
	r := newRig(t, Config{})
	// Cross-leaf processor-to-processor (CtoC reply): 3 switch hops.
	m := &mesg.Message{Kind: mesg.CtoCReply, Addr: 0x40, Src: mesg.P(0), Dst: mesg.P(15)}
	r.net.Send(m)
	// Same-leaf: 1 switch hop.
	m2 := &mesg.Message{Kind: mesg.CtoCReply, Addr: 0x40, Src: mesg.P(1), Dst: mesg.P(2)}
	r.net.Send(m2)
	r.eng.Run(0)
	if len(r.got) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(r.got))
	}
	var at15, at2 sim.Cycle
	for _, d := range r.got {
		switch d.end {
		case mesg.P(15):
			at15 = d.at
		case mesg.P(2):
			at2 = d.at
		}
	}
	if at15 == 0 || at2 == 0 {
		t.Fatalf("missing deliveries: %+v", r.got)
	}
	if at2 >= at15 {
		t.Fatalf("same-leaf (%d) should beat cross-leaf (%d)", at2, at15)
	}
	want2 := sim.Cycle(20 + 1*(4+20))
	want15 := sim.Cycle(20 + 3*(4+20))
	if at2 != want2 || at15 != want15 {
		t.Fatalf("latencies = %d,%d want %d,%d", at2, at15, want2, want15)
	}
}

func TestAllPairsDelivered(t *testing.T) {
	r := newRig(t, Config{})
	n := 0
	for p := 0; p < 16; p++ {
		for m := 0; m < 16; m++ {
			r.net.Send(&mesg.Message{Kind: mesg.ReadReq, Addr: uint64(m * 32), Src: mesg.P(p), Dst: mesg.M(m)})
			n++
		}
	}
	r.eng.Run(0)
	if len(r.got) != n {
		t.Fatalf("delivered %d of %d", len(r.got), n)
	}
	if !r.net.Quiesced() {
		t.Fatal("network not quiesced after drain")
	}
	if r.net.TotalStats().Sent != uint64(n) || r.net.TotalStats().Delivered != uint64(n) {
		t.Fatalf("stats: %+v", r.net.TotalStats())
	}
}

func TestPointToPointOrder(t *testing.T) {
	r := newRig(t, Config{})
	// Many messages from P0 to M15 must arrive in send order, even
	// with cross traffic creating contention.
	const k = 50
	for i := 0; i < k; i++ {
		r.net.Send(&mesg.Message{Kind: mesg.ReadReq, Addr: uint64(i), Src: mesg.P(0), Dst: mesg.M(15), Requester: i})
	}
	for p := 1; p < 16; p++ {
		for i := 0; i < 10; i++ {
			r.net.Send(&mesg.Message{Kind: mesg.WriteReq, Addr: uint64(p*1000 + i), Src: mesg.P(p), Dst: mesg.M(15)})
		}
	}
	r.eng.Run(0)
	last := -1
	for _, d := range r.got {
		if d.end == mesg.M(15) && d.m.Kind == mesg.ReadReq && d.m.Src == mesg.P(0) {
			if d.m.Requester != last+1 {
				t.Fatalf("P0->M15 reordered: got %d after %d", d.m.Requester, last)
			}
			last = d.m.Requester
		}
	}
	if last != k-1 {
		t.Fatalf("only %d of %d ordered messages arrived", last+1, k)
	}
}

func TestContentionSerializes(t *testing.T) {
	r := newRig(t, Config{})
	// 4 processors on different leaves all send a 5-flit message to
	// M0: the final link M-side must serialize them 20 cycles apart.
	for _, p := range []int{0, 4, 8, 12} {
		r.net.Send(&mesg.Message{Kind: mesg.WriteBack, Addr: 0, Src: mesg.P(p), Dst: mesg.M(0), Data: 1})
	}
	r.eng.Run(0)
	if len(r.got) != 4 {
		t.Fatalf("deliveries = %d", len(r.got))
	}
	for i := 1; i < len(r.got); i++ {
		gap := r.got[i].at - r.got[i-1].at
		if gap < 20 {
			t.Fatalf("deliveries %d and %d only %d cycles apart, want >= 20 (serialization)", i-1, i, gap)
		}
	}
}

func TestAgeArbitrationPrefersOlder(t *testing.T) {
	r := newRig(t, Config{})
	// Fill the path so arbitration actually has a choice: send a
	// message from P0 (injected earlier) and P1 (later) racing for the
	// same up-link output... P0 and P1 share a leaf and contend for
	// the up port toward M15's top switch.
	a := &mesg.Message{Kind: mesg.ReadReq, Addr: 1, Src: mesg.P(0), Dst: mesg.M(15)}
	b := &mesg.Message{Kind: mesg.ReadReq, Addr: 2, Src: mesg.P(1), Dst: mesg.M(15)}
	r.net.Send(a)
	r.eng.RunUntil(1)
	r.net.Send(b)
	r.eng.Run(0)
	if len(r.got) != 2 {
		t.Fatalf("deliveries = %d", len(r.got))
	}
	if r.got[0].m != a {
		t.Fatalf("younger message beat older: first delivery %v", r.got[0].m)
	}
}

// sinkSnooper sinks every ReadReq at the top stage and counts snoops.
type sinkSnooper struct {
	snooped int
	gen     func(sw topo.SwitchID, m *mesg.Message) []*mesg.Message
}

func (s *sinkSnooper) Snoop(sw topo.SwitchID, m *mesg.Message, now sim.Cycle) Action {
	s.snooped++
	if sw.Stage == 1 && m.Kind == mesg.ReadReq {
		var g []*mesg.Message
		if s.gen != nil {
			g = s.gen(sw, m)
		}
		return Action{Sink: true, Generated: g}
	}
	return Action{}
}

func TestSnooperSinkAndGenerate(t *testing.T) {
	s := &sinkSnooper{}
	s.gen = func(sw topo.SwitchID, m *mesg.Message) []*mesg.Message {
		// Generate a marked CtoC request back down to processor 2.
		return []*mesg.Message{{
			Kind: mesg.CtoCReq, Addr: m.Addr, Src: m.Src, Dst: mesg.P(2),
			Requester: m.Requester, Marked: true,
		}}
	}
	r := newRig(t, Config{Snoop: s})
	r.net.Send(&mesg.Message{Kind: mesg.ReadReq, Addr: 0x40, Src: mesg.P(0), Dst: mesg.M(15), Requester: 0})
	r.eng.Run(0)
	// The ReadReq must never reach M15; P2 must get the CtoCReq.
	if len(r.got) != 1 {
		t.Fatalf("deliveries = %d, want 1 (read sunk, ctoc delivered)", len(r.got))
	}
	d := r.got[0]
	if d.end != mesg.P(2) || d.m.Kind != mesg.CtoCReq || !d.m.Marked {
		t.Fatalf("got %v at %v", d.m, d.end)
	}
	// Snooped at leaf stage and top stage: 2 snoops for the ReadReq,
	// plus 1 for the generated CtoCReq passing the leaf of P2.
	if s.snooped != 3 {
		t.Fatalf("snooped = %d, want 3", s.snooped)
	}
	if r.net.TotalStats().Sunk != 1 || r.net.TotalStats().Generated != 1 {
		t.Fatalf("stats: %+v", r.net.TotalStats())
	}
}

func TestSnooperSeesAllKindsAndFilters(t *testing.T) {
	// The network presents every message to the snooper (the switch
	// cache extension watches data replies and invalidations); the
	// snooper itself filters. A passive snooper must not disturb
	// delivery.
	s := &sinkSnooper{}
	r := newRig(t, Config{Snoop: s})
	r.net.Send(&mesg.Message{Kind: mesg.ReadReply, Addr: 0x40, Src: mesg.M(0), Dst: mesg.P(5)})
	r.net.Send(&mesg.Message{Kind: mesg.Inval, Addr: 0x40, Src: mesg.M(0), Dst: mesg.P(6)})
	r.eng.Run(0)
	if s.snooped != 4 { // two messages x two switches
		t.Fatalf("snooped %d times, want 4", s.snooped)
	}
	if len(r.got) != 2 {
		t.Fatalf("deliveries = %d", len(r.got))
	}
}

// delaySnooper charges directory port contention.
type delaySnooper struct{ d sim.Cycle }

func (s *delaySnooper) Snoop(sw topo.SwitchID, m *mesg.Message, now sim.Cycle) Action {
	return Action{ExtraDelay: s.d}
}

func TestSnooperExtraDelay(t *testing.T) {
	base := newRig(t, Config{})
	base.net.Send(&mesg.Message{Kind: mesg.ReadReq, Addr: 1, Src: mesg.P(0), Dst: mesg.M(15)})
	base.eng.Run(0)

	slow := newRig(t, Config{Snoop: &delaySnooper{d: 10}})
	slow.net.Send(&mesg.Message{Kind: mesg.ReadReq, Addr: 1, Src: mesg.P(0), Dst: mesg.M(15)})
	slow.eng.Run(0)

	diff := slow.got[0].at - base.got[0].at
	if diff != 20 { // 10 extra at each of 2 switches
		t.Fatalf("extra delay = %d, want 20", diff)
	}
}

func TestBackpressureDoesNotDropOrDeadlock(t *testing.T) {
	r := newRig(t, Config{VCQueueMsgs: 1})
	const per = 40
	n := 0
	// Heavy many-to-one data traffic through tiny buffers.
	for p := 0; p < 16; p++ {
		for i := 0; i < per; i++ {
			r.net.Send(&mesg.Message{Kind: mesg.WriteBack, Addr: uint64(i * 32), Src: mesg.P(p), Dst: mesg.M(0), Data: 1})
			n++
		}
	}
	r.eng.Run(0)
	if len(r.got) != n {
		t.Fatalf("delivered %d of %d under backpressure", len(r.got), n)
	}
	if !r.net.Quiesced() {
		t.Fatal("not quiesced")
	}
}

// replySnooper stands in for a switch directory: at the top rank it
// sinks every ReadReq for an odd block and answers it from the switch
// with a ReadReply to the requester after a directory-port delay. The
// replies enter through the switch's internal injection block, the
// input queues numbered from 2·Radix·VCsPerPort up.
type replySnooper struct{ top int }

func (s replySnooper) Snoop(sw topo.SwitchID, m *mesg.Message, now sim.Cycle) Action {
	if sw.Stage != s.top || m.Kind != mesg.ReadReq || m.Addr>>5&1 == 0 {
		return Action{}
	}
	return Action{Sink: true, ExtraDelay: 2, Generated: []*mesg.Message{{
		Kind: mesg.ReadReply, Addr: m.Addr, Src: m.Dst, Dst: m.Src,
	}}}
}

// TestRandomTrafficAllConfigs drives seeded random traffic, with
// switch-generated replies, through every switch shape the arbiter
// must handle and pins its decisions: a hash over every delivery's
// (cycle, endpoint, message ID) and the final TotalStats changes if
// any grant moves by one cycle. The shapes cover radix 4 and 8 at two
// stages, the three-stage 512/8 fabric, radix 16 (66 input queues: the
// injection block's two fall past the first 64-bit word) and radix 33
// (66 outputs). The 33/33 fabric pins no hash: it only has to drain, which
// an arbiter that cannot grant output ports 64 and up fails.
func TestRandomTrafficAllConfigs(t *testing.T) {
	for _, c := range []struct {
		nodes, radix int
		want         uint64 // 0: assert full delivery only
	}{
		{16, 4, 0x35d083d98d2642b4},
		{16, 8, 0x5787636f27080205},
		{64, 8, 0x995d8a14e97e2e34},
		{512, 8, 0x4833ad3108eb0073},
		{32, 16, 0x36dba9bace636327},
		{33, 33, 0},
	} {
		tp := topo.MustNew(c.nodes, c.radix)
		eng := sim.NewEngine()
		net := New(eng, tp, Config{Snoop: replySnooper{top: tp.Stages - 1}})
		h := fnv.New64a()
		var buf [8]byte
		word := func(x uint64) {
			binary.LittleEndian.PutUint64(buf[:], x)
			h.Write(buf[:])
		}
		delivered := 0
		deliver := func(e mesg.End) Handler {
			return func(m *mesg.Message) {
				delivered++
				word(uint64(eng.Now()))
				word(endArg(e))
				word(m.ID)
			}
		}
		for i := 0; i < tp.Nodes; i++ {
			net.AttachProc(i, deliver(mesg.P(i)))
			net.AttachMem(i, deliver(mesg.M(i)))
		}
		rng := sim.NewRNG(99)
		for i := 0; i < 2000; i++ {
			src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
			var m *mesg.Message
			switch rng.Intn(3) {
			case 0:
				m = &mesg.Message{Kind: mesg.ReadReq, Src: mesg.P(src), Dst: mesg.M(dst)}
			case 1:
				m = &mesg.Message{Kind: mesg.ReadReply, Src: mesg.M(src), Dst: mesg.P(dst)}
			default:
				m = &mesg.Message{Kind: mesg.CtoCReply, Src: mesg.P(src), Dst: mesg.P(dst)}
			}
			m.Addr = uint64(rng.Intn(1<<20)) * 32
			eng.At(sim.Cycle(rng.Intn(1000)), func() { net.Send(m) })
		}
		eng.Run(0)
		st := net.TotalStats()
		if st.Generated == 0 {
			t.Fatalf("%v: snooper generated nothing", tp)
		}
		if want := st.Sent - st.Sunk + st.Generated; uint64(delivered) != want {
			t.Fatalf("%v: delivered %d of %d", tp, delivered, want)
		}
		if !net.Quiesced() {
			t.Fatalf("%v: not quiesced", tp)
		}
		for _, x := range []uint64{st.Sent, st.Delivered, st.Sunk, st.Generated, st.FlitHops,
			st.QueueWait, st.Retransmits, st.Reroutes, st.Unroutable, st.DegradedHops} {
			word(x)
		}
		if got := h.Sum64(); c.want != 0 && got != c.want {
			t.Errorf("%v: delivery hash %#x, want %#x (arbitration decisions changed)", tp, got, c.want)
		}
	}
}

func BenchmarkNetworkThroughput(b *testing.B) {
	tp := topo.MustNew(16, 4)
	eng := sim.NewEngine()
	net := New(eng, tp, Config{})
	for i := 0; i < 16; i++ {
		net.AttachProc(i, func(m *mesg.Message) {})
		net.AttachMem(i, func(m *mesg.Message) {})
	}
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(&mesg.Message{
			Kind: mesg.ReadReq,
			Src:  mesg.P(rng.Intn(16)),
			Dst:  mesg.M(rng.Intn(16)),
			Addr: uint64(i * 32),
		})
		if i%64 == 63 {
			eng.Run(0)
		}
	}
	eng.Run(0)
}

// BenchmarkNetworkThroughputRadix8 prices the xbar layer at the radix of
// the 64–1024-node scalability cells: random read requests and
// data replies through the 64-node two-stage and 512-node three-stage
// radix-8 fabrics, drained after every Nodes sends so that heads
// contend for outputs. Messages are pooled, so the time is the
// network's own. It reports host time per message and per flit-hop.
func BenchmarkNetworkThroughputRadix8(b *testing.B) {
	for _, nodes := range []int{64, 512} {
		tp := topo.MustNew(nodes, 8)
		b.Run(fmt.Sprintf("%dnodes-%dstage", nodes, tp.Stages), func(b *testing.B) {
			eng := sim.NewEngine()
			net := New(eng, tp, Config{})
			pool := &mesg.Pool{}
			for i := 0; i < nodes; i++ {
				net.AttachProc(i, pool.Release)
				net.AttachMem(i, pool.Release)
			}
			rng := sim.NewRNG(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := pool.Get()
				src, dst := rng.Intn(nodes), rng.Intn(nodes)
				if i%2 == 0 {
					*m = mesg.Message{Kind: mesg.ReadReq, Src: mesg.P(src), Dst: mesg.M(dst)}
				} else {
					*m = mesg.Message{Kind: mesg.ReadReply, Src: mesg.M(src), Dst: mesg.P(dst), Data: 1}
				}
				m.Addr = uint64(i) * 32
				net.Send(m)
				if i%nodes == nodes-1 {
					eng.Run(0)
				}
			}
			eng.Run(0)
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(b.N), "ns/msg")
			b.ReportMetric(ns/float64(net.TotalStats().FlitHops), "ns/flit-hop")
		})
	}
}
