// Package xbar implements the wormhole-routed crossbar-switch
// interconnect of Section 4: input-buffered switches with two virtual
// channels per link (partitioned by destination so point-to-point
// message order is preserved), age-based arbitration as in the SGI
// SPIDER, a bypass path when buffers are empty, a 4-cycle switch core,
// and 16-bit links that serialize one 8-byte flit every four 200MHz
// cycles (Intel Cavallino parameters).
//
// Timing is modeled at message granularity with flit-accurate
// serialization: a message that wins arbitration occupies its output
// link for flits×4 cycles and is available at the next switch after
// the 4-cycle core delay plus serialization. Bounded per-VC input
// queues exert backpressure on upstream switches via sender-side
// credit counters: a switch holds VCQueueMsgs credits per downstream
// (link, VC), consumes one per grant, and regains it CreditLatency
// cycles after the downstream slot drains (credit-flit serialization
// plus the receiving switch core). This preserves the paper-relevant
// behaviour — ordering, contention, serialization, and where each
// message is processed — without simulating individual flit hops (see
// DESIGN.md substitution 4).
//
// Every coupling between two switches therefore carries a minimum
// latency: message arrivals pay core + serialization, credit returns
// pay CreditLatency = core + one flit time (HopLatency). Arbitration
// is coalesced: arrivals and credits only land state and arm a
// per-switch arbitration pass that runs after every landing of that
// cycle (the engine fires same-cycle events in scheduling order, so a
// pass armed *during* cycle T runs after everything pre-scheduled for
// T). The pass therefore sees the cycle's complete state, whatever
// order that cycle's landings were scheduled in.
//
// A Snooper (the switch directory, package sdir) may be attached to
// every switch. It observes each Table-1 message as the message is
// selected by the arbiter — in parallel with the switch core, as in
// DRESAR — and can sink the message, inject newly generated messages
// at this switch, and charge directory-port contention delay.
package xbar

import (
	"fmt"
	"math/bits"

	"dresar/internal/mesg"
	"dresar/internal/sim"
	"dresar/internal/topo"
)

// Timing and buffering defaults (Table 2).
const (
	// DefaultCoreCycles is the switch-internal pipeline delay.
	DefaultCoreCycles = 4
	// DefaultVCQueueMsgs bounds each input virtual-channel queue, in
	// messages. The paper buffers 4 flits per VC and lets wormhole
	// spill across switches; two messages per VC is the equivalent
	// capacity at message granularity.
	DefaultVCQueueMsgs = 2
	// VCsPerPort is the number of virtual channels per input link.
	VCsPerPort = 2
)

// Action is a Snooper's verdict on one message.
type Action struct {
	// Sink consumes the message at this switch; it does not proceed.
	Sink bool
	// Generated messages are injected at this switch (the "extra input
	// block" that grows the crossbar from 8×4 to 10×4 in Figure 5) and
	// routed onward from here.
	Generated []*mesg.Message
	// ExtraDelay charges directory-port contention: the message (or,
	// if sunk, its generated successors) is delayed this many cycles.
	ExtraDelay sim.Cycle
}

// Snooper is the switch-directory hook. Snoop is called once per
// switch traversal for every message kind in Table 1 (see
// mesg.Kind.SnoopsSwitchDir); other kinds bypass the directory.
type Snooper interface {
	Snoop(sw topo.SwitchID, m *mesg.Message, now sim.Cycle) Action
}

// Handler consumes a message delivered to an endpoint.
type Handler func(*mesg.Message)

// Config parameterizes a Network.
type Config struct {
	CoreCycles  sim.Cycle // switch pipeline delay; 0 means default
	VCQueueMsgs int       // per-VC input queue capacity; 0 means default
	// Snoop, when non-nil, is attached to every switch.
	Snoop Snooper
}

// Stats aggregates network-level counters.
type Stats struct {
	Sent      uint64 // messages injected by endpoints
	Delivered uint64 // messages handed to endpoint handlers
	Sunk      uint64 // messages consumed by the snooper
	Generated uint64 // messages injected by the snooper
	FlitHops  uint64 // flit×hop units transmitted (network load)
	QueueWait uint64 // total cycles messages spent queued in switches

	// Fault-recovery counters (see faults.go); all zero on a healthy
	// fabric.
	Retransmits  uint64 // link-level replays after checksum-detected corruption
	Reroutes     uint64 // messages routed around a dead link or switch
	Unroutable   uint64 // messages dropped because no path survived
	DegradedHops uint64 // traversals of a dead (degraded-forwarding) switch
}

// newTx hands out a recycled (zeroed) tx, or a fresh one when the
// freelist is dry. Either way its hop buffer is empty and, unless a
// fault detour replaced it, holds any canonical route (topo.T.MaxHops).
func (n *Network) newTx() *tx {
	if len(n.txFree) == 0 {
		return &tx{hops: make([]topo.Hop, 0, n.tp.MaxHops())}
	}
	t := n.txFree[len(n.txFree)-1]
	n.txFree = n.txFree[:len(n.txFree)-1]
	return t
}

// freeTx returns a finished tx to the freelist, keeping its hop
// buffer's backing array. The caller must hold the only reference (the
// tx has left every queue).
func (n *Network) freeTx(t *tx) {
	*t = tx{hops: t.hops[:0]}
	n.txFree = append(n.txFree, t)
}

// assignID gives m a fresh network ID. The low byte is always 1: IDs
// are only ever compared for equality (dedup maps), so the encoding is
// unobservable in simulation results, but message traces and their
// hashes record it.
func (n *Network) assignID(m *mesg.Message) {
	if m.ID == 0 {
		n.nextID++
		m.ID = n.nextID<<8 | 1
	}
}

// tx is a message in flight with its route. hops is the tx's own
// buffer, filled in place when the message enters the fabric and
// recycled with the tx; hopIdx is the current hop. A fault detour
// replaces hops with a freshly built slice (see faults.go), so no two
// live messages ever share a route's backing array.
type tx struct {
	m        *mesg.Message
	hops     []topo.Hop
	hopIdx   int
	injected sim.Cycle // for age-based arbitration
	enqueued sim.Cycle // when it entered the current queue
	// skipSnoopOnce exempts a snooper-generated message from being
	// re-snooped at the switch that generated it: the directory has
	// already processed the transaction there.
	skipSnoopOnce bool
	// canon holds the switch set of the message's canonical
	// (fault-free) route, captured when a detour replaces it; nil on a
	// healthy fabric. A switch off the canonical route must not snoop
	// the message: the directory protocol's clearing messages
	// (copybacks, writebacks) travel canonical paths, so interception
	// state created at a detour-only switch would never resolve and
	// would bounce its requesters forever.
	canon []topo.SwitchID
}

// onCanon reports whether sw may snoop this message.
func (t *tx) onCanon(sw topo.SwitchID) bool {
	if t.canon == nil {
		return true
	}
	for _, c := range t.canon {
		if c == sw {
			return true
		}
	}
	return false
}

// vcq is one virtual-channel FIFO. An endpoint-fed queue holds at most
// Config.VCQueueMsgs entries (pumpInjection checks before reserving a
// slot), a switch-fed one is bounded by its sender's credits, and the
// internal injection block is unbounded: snooper messages must not be
// droppable (coherence-critical); the paper's feedback mechanism
// blocks the arbiter instead, which the unbounded block stands in for.
type vcq struct {
	q []*tx
	// out is the output port whose candidate set holds this queue (see
	// swc.cand), or -1 while the queue has no landed head.
	out int
}

func (v *vcq) empty() bool { return len(v.q) == 0 }
func (v *vcq) head() *tx   { return v.q[0] }
func (v *vcq) push(t *tx)  { v.q = append(v.q, t) }
func (v *vcq) pop() *tx {
	t := v.q[0]
	copy(v.q, v.q[1:])
	v.q = v.q[:len(v.q)-1]
	return t
}

// upstream identifies who feeds a given switch input port, so a
// freed buffer slot can return credit to the upstream arbiter.
// fromSwitch == -1 means an endpoint injection link.
type upstream struct {
	fromSwitch int // ordinal; -1 for endpoint
	fromPort   topo.Port
	end        mesg.End // valid when fromSwitch == -1
}

// outLink is one output port's link state and its destination.
type outLink struct {
	freeAt   sim.Cycle
	toSwitch int       // ordinal of downstream switch; -1 if endpoint
	toPort   topo.Port // input port on downstream switch
	toEnd    mesg.End  // endpoint, when toSwitch == -1
	// credit counts free downstream buffer slots per VC for
	// switch-to-switch links (sender-side flow control). Endpoint
	// delivery links are uncredited: the NI always accepts.
	credit [VCsPerPort]int
	// down marks a hard link failure (see faults.go); corrupt, when
	// non-nil, decides per transmission attempt whether the receiver's
	// checksum rejects it and forces a link-level retransmit.
	down    bool
	corrupt func() bool
}

// swc is one switch instance. Input ports 0..2R-1 are the physical
// links; port 2R is the internal injection block used by the snooper.
type swc struct {
	id  topo.SwitchID
	ord int               // topo.SwitchOrdinal(id), for event-arg encoding
	in  [][VCsPerPort]vcq // indexed by input port
	out []outLink         // indexed by output port
	ups []upstream        // indexed by input port
	// arbArmed/arbAt coalesce arbitration: the first landing (arrival,
	// credit, injection, link-free) of a cycle schedules one opArb pass
	// for this switch at that cycle; later landings see it armed. The
	// pass therefore always observes the cycle's complete state, which
	// makes same-cycle landing order unobservable.
	arbArmed bool
	arbAt    sim.Cycle
	// cand is the candidate index the arbiter grants from, kept current
	// by reindex at every queue-head change. Words
	// [out*Network.candWords, (out+1)*Network.candWords) hold output
	// out's candidate set: bit p*VCsPerPort+v is set while input queue
	// (p, v) has a landed head whose next hop leaves on out. live has bit
	// out set while that set is non-empty, and sweep is runArb's
	// snapshot of live. Placeholders never lead landed entries within a
	// queue, so an all-zero live means nothing is queued at all.
	cand  []uint64
	live  []uint64
	sweep []uint64
	// down marks whole-switch failure: the directory snoop is dead and
	// traversals pay DegradedPenalty (see faults.go).
	down bool
}

// Network is the full BMIN with endpoint attachment points.
type Network struct {
	eng       *sim.Engine
	tp        *topo.T
	cfg       Config
	core      sim.Cycle
	creditLat sim.Cycle
	// candWords is the length of one candidate set (swc.cand) in 64-bit
	// words, enough for a switch's (2·Radix+1)·VCsPerPort input queues.
	candWords int
	// switches holds every switch by ordinal (stage-major: all of rank
	// 0, then rank 1, …) as a flat value slice; port arrays are carved
	// from shared slabs so one rank's state is contiguous in memory.
	switches []swc
	procH    []Handler
	memH     []Handler
	// injq serializes endpoint injection: per endpoint-link pending
	// messages (unbounded: the NI's outbound queue) plus link state.
	injProc []injLink
	injMem  []injLink

	stats Stats
	// txFree recycles tx wrappers and their hop buffers: one is live per
	// in-flight message, dying at final-hop delivery or a snoop sink, so
	// the steady-state send path allocates nothing.
	txFree []*tx
	// nextID feeds message-ID assignment (assignID).
	nextID uint64

	// Fault state (see faults.go). nFaults gates every fault-aware
	// branch: while zero, behaviour is bit-identical to the
	// fault-oblivious fabric.
	nFaults      int
	downLinks    []topo.Link
	downSwitches []topo.SwitchID

	// Fail, when set, receives the structured *UnroutableError for
	// messages dropped because the fabric partitioned. Unset, such an
	// error panics — a partition must never silently eat traffic.
	Fail func(error)

	// Trace, when set, observes every message lifecycle event:
	// "send", "sink", "gen", "deliver". For debugging protocols and
	// the protocol monitor (check.Monitor).
	Trace func(event string, at sim.Cycle, m *mesg.Message)
}

type injLink struct {
	freeAt  sim.Cycle
	pending []*tx
}

// New builds the network for the given topology.
func New(eng *sim.Engine, tp *topo.T, cfg Config) *Network {
	if cfg.CoreCycles == 0 {
		cfg.CoreCycles = DefaultCoreCycles
	}
	if cfg.VCQueueMsgs == 0 {
		cfg.VCQueueMsgs = DefaultVCQueueMsgs
	}
	n := &Network{
		eng:       eng,
		tp:        tp,
		cfg:       cfg,
		core:      cfg.CoreCycles,
		creditLat: cfg.CoreCycles + mesg.LinkCyclesPerFlit,
		procH:     make([]Handler, tp.Nodes),
		memH:      make([]Handler, tp.Nodes),
		injProc:   make([]injLink, tp.Nodes),
		injMem:    make([]injLink, tp.Nodes),
	}
	n.build()
	return n
}

// HopLatency reports the minimum latency of any switch-to-switch
// coupling, message arrival or credit return: the switch core plus one
// flit time.
func (n *Network) HopLatency() sim.Cycle { return n.creditLat }

// TotalStats reports the network's counters.
func (n *Network) TotalStats() Stats { return n.stats }

// build wires switches and links from the topology's Peer oracle, so
// the same code covers every stage count. Port arrays and candidate
// index words are carved from fabric-wide slabs in ordinal
// (stage-major) order: a rank's switch state is contiguous in memory,
// and construction allocates per fabric instead of per switch.
func (n *Network) build() {
	tp := n.tp
	r := tp.Radix
	total := tp.NumSwitches()
	nin, nout := 2*r+1, 2*r
	n.candWords = (nin*VCsPerPort + 63) / 64
	nc, nl := nout*n.candWords, (nout+63)/64
	n.switches = make([]swc, total)
	inSlab := make([][VCsPerPort]vcq, total*nin)
	outSlab := make([]outLink, total*nout)
	upsSlab := make([]upstream, total*nin)
	candSlab := make([]uint64, total*nc)
	liveSlab := make([]uint64, 2*total*nl)
	for ord := 0; ord < total; ord++ {
		s := &n.switches[ord]
		s.id = tp.OrdinalSwitch(ord)
		s.ord = ord
		s.in = inSlab[ord*nin : (ord+1)*nin : (ord+1)*nin]
		s.out = outSlab[ord*nout : (ord+1)*nout : (ord+1)*nout]
		s.ups = upsSlab[ord*nin : (ord+1)*nin : (ord+1)*nin]
		s.cand = candSlab[ord*nc : (ord+1)*nc : (ord+1)*nc]
		s.live = liveSlab[2*ord*nl : (2*ord+1)*nl : (2*ord+1)*nl]
		s.sweep = liveSlab[(2*ord+1)*nl : (2*ord+2)*nl : (2*ord+2)*nl]
		for p := range s.in {
			for v := 0; v < VCsPerPort; v++ {
				s.in[p][v].out = -1
			}
		}
	}
	for ord := 0; ord < total; ord++ {
		s := &n.switches[ord]
		for p := range s.out {
			pp := tp.Peer(s.id, topo.Port(p))
			if pp.Switch < 0 {
				e := mesg.P(pp.Node)
				if pp.MemSide {
					e = mesg.M(pp.Node)
				}
				s.out[p] = outLink{toSwitch: -1, toEnd: e}
				// Endpoint links are paired: the delivery out-port number
				// doubles as the endpoint's injection in-port.
				s.ups[p] = upstream{fromSwitch: -1, end: e}
				continue
			}
			s.out[p] = outLink{toSwitch: pp.Switch, toPort: pp.In}
			// Seed sender-side credits on the switch-to-switch link.
			for v := 0; v < VCsPerPort; v++ {
				s.out[p].credit[v] = n.cfg.VCQueueMsgs
			}
			// The wiring is symmetric: our output port p feeds the peer's
			// input pp.In, so that queue's drained slots credit us here.
			n.switches[pp.Switch].ups[pp.In] = upstream{fromSwitch: ord, fromPort: topo.Port(p)}
		}
	}
}

// AttachProc registers the handler for node i's processor interface.
func (n *Network) AttachProc(i int, h Handler) { n.procH[i] = h }

// AttachMem registers the handler for node i's memory interface.
func (n *Network) AttachMem(i int, h Handler) { n.memH[i] = h }

// route appends the canonical hop sequence for a message between
// endpoints to buf, computed arithmetically by topo. The block address
// selects the turnaround pivot for processor-to-processor messages so
// a transaction's reply stays in its home's subtree.
func (n *Network) route(buf []topo.Hop, m *mesg.Message) []topo.Hop {
	s, d := m.Src, m.Dst
	switch {
	case s.Side == mesg.ProcSide && d.Side == mesg.MemSide:
		return n.tp.AppendForward(buf, s.Node, d.Node)
	case s.Side == mesg.MemSide && d.Side == mesg.ProcSide:
		return n.tp.AppendBackward(buf, s.Node, d.Node)
	case s.Side == mesg.ProcSide && d.Side == mesg.ProcSide:
		return n.tp.AppendTurnaround(buf, s.Node, d.Node, int(m.Addr>>5))
	default:
		panic(fmt.Sprintf("xbar: unsupported route %v -> %v", s, d))
	}
}

// vcFor selects the virtual channel: partitioned by destination node
// (paper: "virtual channels are also partitioned based on the
// destination node", avoiding out-of-order arrival).
func vcFor(m *mesg.Message) int { return m.Dst.Node % VCsPerPort }

// Event opcodes for the closure-free scheduling path (sim.Actor). Each
// former per-hop closure becomes an opcode plus a packed integer
// argument, so the steady-state hop pipeline schedules without
// allocating.
const (
	// opArrive lands a message in an input queue: data is the *tx, arg
	// packs ordinal<<32 | port<<16 | vc of the receiving queue. For
	// endpoint-fed ports it fills the slot reserved at injection; for
	// switch-fed ports it pushes (space is guaranteed by the sender's
	// credit).
	opArrive = iota
	// opDeliver hands a message to an endpoint handler: data is the
	// *mesg.Message, arg packs node<<1 | side.
	opDeliver
	// opArbTrigger arms the coalesced arbitration pass for a switch
	// when its output link frees: arg packs ordinal<<32 | port (the
	// port is informational; the pass sweeps every output).
	opArbTrigger
	// opArb runs one coalesced arbitration pass: arg is the ordinal.
	// Scheduled at the current cycle by armArb, so it fires after
	// every landing already scheduled for this cycle.
	opArb
	// opCredit returns one buffer credit to an upstream output link:
	// arg packs ordinal<<32 | outPort<<16 | vc.
	opCredit
	// opInjArrive lands a snooper-generated message in its switch's
	// internal injection block: data is the *tx, arg is the ordinal.
	opInjArrive
)

// qArg packs the coordinates of one input virtual-channel queue (or,
// for opCredit, one output link and VC).
func qArg(ord int, p topo.Port, vc int) uint64 {
	return uint64(ord)<<32 | uint64(uint16(p))<<16 | uint64(uint16(vc))
}

// endArg packs an endpoint identity.
func endArg(e mesg.End) uint64 {
	arg := uint64(e.Node) << 1
	if e.Side == mesg.MemSide {
		arg |= 1
	}
	return arg
}

// OnEvent dispatches the network's scheduled events (sim.Actor).
func (n *Network) OnEvent(op int, arg uint64, data any) {
	switch op {
	case opArrive:
		sw := &n.switches[arg>>32]
		p := topo.Port(uint16(arg >> 16))
		n.arrive(sw, p, int(uint16(arg)), data.(*tx))
	case opDeliver:
		e := mesg.End{Side: mesg.ProcSide, Node: int(arg >> 1)}
		if arg&1 != 0 {
			e.Side = mesg.MemSide
		}
		n.deliverEnd(e, data.(*mesg.Message))
	case opArbTrigger:
		n.armArb(&n.switches[arg>>32])
	case opArb:
		n.runArb(&n.switches[arg])
	case opCredit:
		sw := &n.switches[arg>>32]
		sw.out[uint16(arg>>16)].credit[uint16(arg)]++
		n.armArb(sw)
	case opInjArrive:
		t := data.(*tx)
		sw := &n.switches[arg]
		t.enqueued = n.eng.Now()
		p, v := len(sw.in)-1, vcFor(t.m)
		sw.in[p][v].push(t)
		n.reindex(sw, p, v)
		n.armArb(sw)
	}
}

// Send injects m at its source endpoint. Delivery is asynchronous via
// the attached handler. The message's ID is assigned if zero.
func (n *Network) Send(m *mesg.Message) {
	n.assignID(m)
	n.stats.Sent++
	if n.Trace != nil {
		n.Trace("send", n.eng.Now(), m)
	}
	t := n.newTx()
	t.hops = n.route(t.hops, m)
	hops, canon, ok := n.routeOrFail(t.hops, m)
	if !ok {
		n.freeTx(t)
		return
	}
	t.m, t.hops, t.canon, t.injected = m, hops, canon, n.eng.Now()
	var il *injLink
	if m.Src.Side == mesg.ProcSide {
		il = &n.injProc[m.Src.Node]
	} else {
		il = &n.injMem[m.Src.Node]
	}
	il.pending = append(il.pending, t)
	n.pumpInjection(il)
}

// pumpInjection moves pending endpoint messages onto the first
// switch's input queue as link time and buffer space allow.
func (n *Network) pumpInjection(il *injLink) {
	for len(il.pending) > 0 {
		t := il.pending[0]
		h := t.hops[0]
		sw := &n.switches[n.tp.SwitchOrdinal(h.Sw)]
		vc := vcFor(t.m)
		q := &sw.in[h.In][vc]
		if len(q.q) >= n.cfg.VCQueueMsgs {
			return // retried when the queue drains (credit return)
		}
		now := n.eng.Now()
		start := now
		if il.freeAt > start {
			start = il.freeAt
		}
		ser := sim.Cycle(t.m.Flits() * mesg.LinkCyclesPerFlit)
		il.freeAt = start + ser
		// Shift down instead of reslicing forward: the backing array is
		// reused for the life of the link, so steady-state injection
		// never reallocates. Pending queues are a handful deep.
		copy(il.pending, il.pending[1:])
		il.pending = il.pending[:len(il.pending)-1]
		arrive := start + ser
		// Reserve the buffer slot now so concurrent senders see it.
		q.push(nil) // placeholder; replaced at arrival
		n.eng.AtEvent(arrive, n, opArrive, qArg(sw.ord, h.In, vc), t)
	}
}

// arrive lands t in input queue (p, v) of sw: endpoint-fed ports fill
// the placeholder reserved at injection, switch-fed ports push into
// space the sender's credit guaranteed. It then arms arbitration; the
// decision itself runs in the coalesced end-of-landings pass.
func (n *Network) arrive(sw *swc, p topo.Port, v int, t *tx) {
	q := &sw.in[p][v]
	t.enqueued = n.eng.Now()
	if sw.ups[p].fromSwitch < 0 {
		for i, e := range q.q {
			if e == nil {
				q.q[i] = t
				break
			}
		}
	} else {
		q.push(t)
	}
	if n.faulty() && !n.fixRoute(t) {
		// A fault landed while the message was on the wire and its
		// destination did not survive it.
		n.dropUnroutable(sw, p, v, t)
		return
	}
	n.reindex(sw, int(p), v)
	n.armArb(sw)
}

// reindex brings input queue (p, v)'s membership in sw's candidate
// index up to date with the queue's head. Call it after every change
// to a queue head: a push onto an empty queue, a placeholder fill, a
// pop, a splice, or a route rewrite of a queued head.
func (n *Network) reindex(sw *swc, p, v int) {
	q := &sw.in[p][v]
	out := -1
	if !q.empty() && q.head() != nil {
		h := q.head()
		out = int(h.hops[h.hopIdx].Out)
	}
	if out == q.out {
		return
	}
	qi := p*VCsPerPort + v
	w, bit := qi>>6, uint64(1)<<(qi&63)
	if q.out >= 0 {
		set := sw.cand[q.out*n.candWords : (q.out+1)*n.candWords]
		set[w] &^= bit
		if none(set) {
			sw.live[q.out>>6] &^= 1 << (q.out & 63)
		}
	}
	if out >= 0 {
		sw.cand[out*n.candWords+w] |= bit
		sw.live[out>>6] |= 1 << (out & 63)
	}
	q.out = out
}

// none reports whether a bit set is empty.
func none(set []uint64) bool {
	for _, w := range set {
		if w != 0 {
			return false
		}
	}
	return true
}

// armArb schedules sw's coalesced arbitration pass for the current
// cycle, once: the first landing of the cycle arms it, later landings
// find it armed. Because the engine fires same-cycle events in
// scheduling order, the pass runs after every landing of this cycle,
// so it always sees the cycle's complete queue/credit/link state.
func (n *Network) armArb(sw *swc) {
	if none(sw.live) {
		return // no candidate can exist; nothing to arbitrate
	}
	now := n.eng.Now()
	if sw.arbArmed && sw.arbAt == now {
		return
	}
	sw.arbArmed, sw.arbAt = true, now
	n.eng.AtEvent(now, n, opArb, uint64(sw.ord), nil)
}

// runArb is one coalesced arbitration pass over sw's outputs that have
// a candidate, in ascending port order, iterated to a fixpoint: a
// grant may free a queue whose new head wants a different output, so
// sweeping until no output grants is the event-coupled equivalent of
// the old grant-chain recursion. Each sweep visits the outputs live at
// its start; decisions stay lazy per output (tryOutput consults the
// index at its turn), so heads exposed by an earlier grant in the same
// sweep are seen by later outputs in it, and a head exposed for an
// output not in the snapshot is caught by the next sweep at the same
// cycle.
func (n *Network) runArb(sw *swc) {
	sw.arbArmed = false
	now := n.eng.Now()
	for {
		copy(sw.sweep, sw.live)
		granted := false
		for w, word := range sw.sweep {
			for ; word != 0; word &= word - 1 {
				out := w<<6 | bits.TrailingZeros64(word)
				if sw.out[out].freeAt > now {
					continue
				}
				if n.tryOutput(sw, topo.Port(out)) {
					granted = true
				}
			}
		}
		if !granted {
			return
		}
	}
}

// tryOutput runs arbitration for one output port of one switch: while
// the link is free, grant the oldest head-of-queue message wanting
// this output whose downstream buffer credit allows it. It reports
// whether at least one message was granted.
func (n *Network) tryOutput(sw *swc, out topo.Port) bool {
	ol := &sw.out[out]
	any := false
	for {
		if ol.freeAt > n.eng.Now() {
			// Busy: an opArbTrigger is already scheduled for freeAt.
			return any
		}
		p, v, ok := n.pickOldest(sw, out)
		if !ok {
			return any
		}
		if !n.grant(sw, out, p, v) {
			return any // head blocked on downstream credit; retried on credit return
		}
		any = true
	}
}

// pickOldest returns the input queue (port, vc) whose head is the
// oldest message destined for out, walking out's candidate set in
// ascending p*VCsPerPort+v order so that the first of equally old
// heads wins. Heads blocked by exhausted credit are not skipped: age
// order holds the output for them (the grant attempt fails and the
// port waits for credit), preserving the paper's age-based
// arbitration fairness.
func (n *Network) pickOldest(sw *swc, out topo.Port) (int, int, bool) {
	best := -1
	var bestAge sim.Cycle
	set := sw.cand[int(out)*n.candWords : int(out+1)*n.candWords]
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			qi := w<<6 | bits.TrailingZeros64(word)
			h := sw.in[qi/VCsPerPort][qi%VCsPerPort].head()
			if best < 0 || h.injected < bestAge {
				best, bestAge = qi, h.injected
			}
		}
	}
	return best / VCsPerPort, best % VCsPerPort, best >= 0
}

// grant moves the head of input queue (p, v) across output port out.
// It returns false if the downstream link has no buffer credit (the
// grant is abandoned and retried when credit returns).
func (n *Network) grant(sw *swc, out topo.Port, p, v int) bool {
	q := &sw.in[p][v]
	t := q.head()
	ol := &sw.out[out]
	// Check downstream credit before snooping: a blocked message has
	// not yet entered the switch pipeline.
	if ol.toSwitch >= 0 && ol.credit[vcFor(t.m)] == 0 {
		return false
	}
	q.pop()
	n.reindex(sw, p, v)
	now := n.eng.Now()
	n.stats.QueueWait += uint64(now - t.enqueued)

	// Snoop: the switch directory (and/or switch cache) observes the
	// message in parallel with the switch core (Section 4.2). The
	// snooper filters kinds itself (mesg.Kind.SnoopsSwitchDir for the
	// directory; the switch-cache extension also watches data replies
	// and invalidations).
	var extra sim.Cycle
	if sw.down {
		// Degraded forwarding (faults.go): the directory pipeline is
		// dead, so the snoop is skipped and the traversal pays the
		// maintenance-bypass penalty.
		extra = DegradedPenalty
		n.stats.DegradedHops++
		t.skipSnoopOnce = false
	} else if t.skipSnoopOnce {
		t.skipSnoopOnce = false
	} else if n.cfg.Snoop != nil && t.onCanon(sw.id) {
		act := n.cfg.Snoop.Snoop(sw.id, t.m, now)
		extra = act.ExtraDelay
		for _, g := range act.Generated {
			n.stats.Generated++
			if n.Trace != nil {
				n.Trace(fmt.Sprintf("gen@%v", sw.id), now, g)
			}
			n.injectAt(sw, g, now+extra)
		}
		if act.Sink {
			n.stats.Sunk++
			if n.Trace != nil {
				n.Trace(fmt.Sprintf("sink@%v", sw.id), now, t.m)
			}
			n.afterPop(sw, p, v)
			n.freeTx(t)
			return true
		}
	}

	start := now + extra
	ser := sim.Cycle(t.m.Flits() * mesg.LinkCyclesPerFlit)
	n.stats.FlitHops += uint64(t.m.Flits())
	if ol.corrupt != nil {
		if retries := n.linkRetries(ol); retries > 0 {
			// Corrupted transmissions are rejected by the receiver's
			// per-flit checksum and replayed from the sender's replay
			// buffer; the link stays occupied for the nack round trip
			// plus each re-serialization. The downstream credit is
			// untouched, so flow-control accounting is unaffected.
			n.stats.Retransmits += uint64(retries)
			n.stats.FlitHops += uint64(retries * t.m.Flits())
			ser += sim.Cycle(retries) * (ser + RetxRoundTrip)
		}
	}
	ol.freeAt = start + ser
	arrive := start + n.core + ser

	if ol.toSwitch < 0 {
		n.eng.AtEvent(arrive, n, opDeliver, endArg(ol.toEnd), t.m)
		n.freeTx(t) // the message travels on alone; the wrapper is done
	} else {
		t.hopIdx++
		ol.credit[vcFor(t.m)]--
		n.eng.AtEvent(arrive, n, opArrive, qArg(ol.toSwitch, ol.toPort, vcFor(t.m)), t)
	}
	// When the link frees, arm arbitration again for this switch.
	n.eng.AtEvent(ol.freeAt, n, opArbTrigger, uint64(sw.ord)<<32|uint64(uint32(out)), nil)
	n.afterPop(sw, p, v)
	return true
}

// afterPop returns the drained slot of input queue (p, v) to whoever
// feeds it: an endpoint injection link is pumped synchronously, an
// upstream switch receives a credit event after CreditLatency cycles
// (credit-flit serialization plus its core). Head re-arbitration is
// the arb pass's job.
func (n *Network) afterPop(sw *swc, p, v int) {
	if p == len(sw.in)-1 {
		// Internal injection block: the snooper's queue has no
		// upstream; nothing to notify.
		return
	}
	up := sw.ups[p]
	if up.fromSwitch < 0 {
		var il *injLink
		if up.end.Side == mesg.ProcSide {
			il = &n.injProc[up.end.Node]
		} else {
			il = &n.injMem[up.end.Node]
		}
		n.pumpInjection(il)
		return
	}
	n.eng.AtEvent(n.eng.Now()+n.creditLat, n, opCredit, qArg(up.fromSwitch, up.fromPort, v), nil)
}

// injectAt places a snooper-generated message in this switch's
// internal injection block, with its route computed from this switch.
func (n *Network) injectAt(sw *swc, m *mesg.Message, when sim.Cycle) {
	n.assignID(m)
	t := n.newTx()
	t.hops = n.routeFrom(t.hops, sw, m)
	hops, canon, ok := n.routeOrFail(t.hops, m)
	if !ok {
		n.freeTx(t)
		return
	}
	t.m, t.hops, t.canon, t.injected, t.skipSnoopOnce = m, hops, canon, when, true
	n.eng.AtEvent(when, n, opInjArrive, uint64(sw.ord), t)
}

// routeFrom appends to buf the route of a message created inside
// switch sw, entering on the internal injection pseudo-port.
func (n *Network) routeFrom(buf []topo.Hop, sw *swc, m *mesg.Message) []topo.Hop {
	inj := topo.Port(2 * n.tp.Radix)
	return n.tp.AppendRouteFrom(buf, sw.id, inj, m.Dst.Side == mesg.MemSide, m.Dst.Node, int(m.Addr>>5))
}

// deliverEnd hands a message to the endpoint handler.
func (n *Network) deliverEnd(e mesg.End, m *mesg.Message) {
	n.stats.Delivered++
	if n.Trace != nil {
		n.Trace("deliver", n.eng.Now(), m)
	}
	var h Handler
	if e.Side == mesg.ProcSide {
		h = n.procH[e.Node]
	} else {
		h = n.memH[e.Node]
	}
	if h == nil {
		panic(fmt.Sprintf("xbar: no handler attached at %v for %v", e, m))
	}
	h(m)
}

// Quiesced reports whether the network holds no in-flight messages.
func (n *Network) Quiesced() bool {
	for i := range n.injProc {
		if len(n.injProc[i].pending) > 0 || len(n.injMem[i].pending) > 0 {
			return false
		}
	}
	for i := range n.switches {
		sw := &n.switches[i]
		for p := range sw.in {
			for v := 0; v < VCsPerPort; v++ {
				if !sw.in[p][v].empty() {
					return false
				}
			}
		}
	}
	return true
}
