package xbar

import (
	"testing"

	"dresar/internal/mesg"
	"dresar/internal/sim"
	"dresar/internal/topo"
)

// TestRoundTripZeroAlloc pins the steady-state budget of a full
// request/reply round trip through the 4x4 (16-node, radix-4) fabric:
// with the message pool and the network's tx freelist warm, it must be
// allocation-free. The per-hop objects this guards: pooled
// mesg.Message (endpoints), recycled tx wrappers (Send/injectAt), and
// the injection pending queues' shift-down pop.
func TestRoundTripZeroAlloc(t *testing.T) {
	tp := topo.MustNew(16, 4)
	eng := sim.NewEngine()
	net := New(eng, tp, Config{})
	pool := &mesg.Pool{}
	for i := 0; i < 16; i++ {
		net.AttachProc(i, func(m *mesg.Message) { pool.Release(m) })
	}
	for i := 0; i < 16; i++ {
		i := i
		net.AttachMem(i, func(m *mesg.Message) {
			r := pool.Get()
			*r = mesg.Message{Kind: mesg.ReadReply, Src: mesg.M(i), Dst: mesg.P(m.Src.Node), Addr: m.Addr, Tx: m.Tx}
			pool.Release(m)
			net.Send(r)
		})
	}
	roundTrip := func() {
		m := pool.Get()
		*m = mesg.Message{Kind: mesg.ReadReq, Src: mesg.P(3), Dst: mesg.M(12), Addr: 0x1240}
		net.Send(m)
		eng.Run(0)
	}
	for i := 0; i < 200; i++ {
		roundTrip() // warm pools, queues, and the engine's buckets
	}
	if allocs := testing.AllocsPerRun(500, roundTrip); allocs != 0 {
		t.Fatalf("round trip through 4x4 switch allocates %v per op, want 0", allocs)
	}
	if got := net.TotalStats().Delivered; got == 0 {
		t.Fatal("no deliveries recorded")
	}
}

// walkEnd is the k-th value of an endpoint walk over nodes endpoints
// with stride mul: (k/nodes + mul·k) mod nodes. Paired with k mod
// nodes, any odd mul gives every (source, destination) pair once per
// nodes² steps.
func walkEnd(k, nodes, mul int) int { return (k/nodes + mul*k) % nodes }

// genSnooper intercepts every ReadReq once, at the rank its block
// address picks, and generates one message there: an Inval toward a
// processor or an InvalAck toward a memory, alternating, so routes from
// every rank to both sides go through injectAt. The destination walks
// with the block address, so routes from a switch do not recur either.
type genSnooper struct {
	nodes, stages int
	pool          *mesg.Pool
	gen           [1]*mesg.Message
}

func (s *genSnooper) Snoop(sw topo.SwitchID, m *mesg.Message, now sim.Cycle) Action {
	k := int(m.Addr >> 5)
	if m.Kind != mesg.ReadReq || sw.Stage != k%s.stages {
		return Action{}
	}
	g := s.pool.Get()
	if k/s.stages%2 == 0 {
		*g = mesg.Message{Kind: mesg.Inval, Src: m.Dst, Dst: mesg.P(walkEnd(k, s.nodes, 5)), Addr: m.Addr}
	} else {
		*g = mesg.Message{Kind: mesg.InvalAck, Src: m.Src, Dst: mesg.M(walkEnd(k, s.nodes, 7)), Addr: m.Addr}
	}
	s.gen[0] = g
	return Action{Generated: s.gen[:]}
}

// TestRoundTripZeroAllocManyRoutes is TestRoundTripZeroAlloc on a
// 1024-node radix-8 fabric whose endpoints never repeat a pair soon:
// round trip k sends a ReadReq from processor k%1024 to memory
// (k/1024+3k)%1024, whose ReadReply returns to the processor, which
// then sends a CtoCReply turnaround to processor (k/1024+3k)%1024, and
// the snooper generates one more message per request. Every walk's
// period is 1M pairs and the block address (and so the turnaround and
// from-switch path selector) is k, so routing must be allocation-free
// for every route, not only for recurring ones. Routes are built in
// each tx's own buffer, which recycles with the tx.
func TestRoundTripZeroAllocManyRoutes(t *testing.T) {
	const nodes = 1024
	tp := topo.MustNew(nodes, 8)
	eng := sim.NewEngine()
	pool := &mesg.Pool{}
	net := New(eng, tp, Config{Snoop: &genSnooper{nodes: nodes, stages: tp.Stages, pool: pool}})
	for i := 0; i < nodes; i++ {
		i := i
		net.AttachProc(i, func(m *mesg.Message) {
			if m.Kind == mesg.ReadReply {
				r := pool.Get()
				*r = mesg.Message{Kind: mesg.CtoCReply, Src: mesg.P(i), Dst: mesg.P(walkEnd(int(m.Addr>>5), nodes, 3)), Addr: m.Addr}
				net.Send(r)
			}
			pool.Release(m)
		})
		net.AttachMem(i, func(m *mesg.Message) {
			if m.Kind == mesg.ReadReq {
				r := pool.Get()
				*r = mesg.Message{Kind: mesg.ReadReply, Src: mesg.M(i), Dst: mesg.P(m.Src.Node), Addr: m.Addr}
				net.Send(r)
			}
			pool.Release(m)
		})
	}
	k := 0
	roundTrip := func() {
		m := pool.Get()
		*m = mesg.Message{Kind: mesg.ReadReq, Src: mesg.P(k % nodes), Dst: mesg.M(walkEnd(k, nodes, 3)), Addr: uint64(k) << 5}
		k = (k + 1) % (nodes * nodes)
		net.Send(m)
		eng.Run(0)
	}
	// Warm the pools, the engine's buckets, every endpoint's injection
	// queue and the switch queues the walk reaches.
	for i := 0; i < 1<<14; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(2000, roundTrip); allocs != 0 {
		t.Fatalf("round trip through the 1024-node fabric allocates %v per op, want 0", allocs)
	}
	st := net.TotalStats()
	if want := uint64(k) * 4; st.Delivered != want || st.Generated != uint64(k) {
		t.Fatalf("delivered %d, generated %d after %d round trips, want %d and %d", st.Delivered, st.Generated, k, want, k)
	}
}
