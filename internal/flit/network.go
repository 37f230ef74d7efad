package flit

import (
	"fmt"

	"dresar/internal/mesg"
	"dresar/internal/topo"
)

// Network composes flit-level switches into the s-stage BMIN, wiring
// each rank's up-ports to the next rank's down-ports per the topology.
// It exists for cross-model validation against the message-granularity
// network (package xbar): identical routes, flit-accurate pipelining.
// It supports snoop-sinking but not message generation (validation
// only).
type Network struct {
	tp       *topo.T
	switches []*Switch
	now      uint64

	// routes maps message ID to its hop list; each switch looks its
	// own hop up by ordinal. A delivered message's hop slice goes to
	// hopFree, and Send appends the next route into it, so steady-state
	// routing allocates nothing.
	routes  map[uint64][]topo.Hop
	hopFree [][]topo.Hop
	// msgs keeps the message object until delivery (the head flit
	// carries it through the switches; the network remembers it for
	// reassembly).
	msgs map[uint64]*mesg.Message

	// inj is the per-processor/memory injection state: pending flits
	// and the serialization clock of the injection link.
	injP, injM []injState

	// linkQ holds flits in transit between switches (wire retiming).
	linkQ map[linkKey][]Flit

	// assembly gathers delivered flits back into messages.
	assembly map[uint64]int // msgID -> flits seen

	deliverP, deliverM []func(*mesg.Message)

	// Link-level error protocol state (one linkCtl per switch output
	// link, lazily created) and the retransmission timer queue.
	links map[outKey]*linkCtl
	retx  []retxFlit

	// keyScratch is the reusable drain-order buffer of Tick step 5:
	// rebuilding it per cycle was the network's hottest steady-state
	// allocation. pktScratch is Send's packetization buffer; its flits
	// are copied into the injection queue before Send returns.
	keyScratch []linkKey
	pktScratch []Flit

	cfg NetConfig

	Stats NetStats
}

// NetStats counts network-level events.
type NetStats struct {
	Sent       uint64
	Delivered  uint64
	FlitsMoved uint64

	// Link error protocol counters.
	FlitsCorrupted  uint64 // checksum rejects at link receivers
	FlitRetransmits uint64 // flits replayed from a sender's replay buffer
}

// outKey names one switch output link.
type outKey struct {
	ord int // source switch ordinal
	out int // output port
}

// linkCtl is the per-link error protocol state. A link is a serial
// pipe: the sender stamps every fresh transmission with a link-level
// sequence number and keeps a pristine copy in a bounded replay window;
// the receiver accepts flits strictly in link order. A corrupted flit
// is nacked and replayed after a round trip; flits transmitted behind
// it are discarded on arrival (they stay in the replay window) and are
// chain-replayed once the gap closes. Total link order — not merely
// per-message order — is what the downstream wormhole invariants
// require: a single-flit message overtaking another message's pending
// tail would interleave into its locked input VC and be misrouted.
type linkCtl struct {
	nextSend uint64 // link sequence of the next fresh transmission
	nextRecv uint64 // link sequence the receiver expects
	// replay holds transmitted-but-unacknowledged flits in link order.
	replay []linkFlit
	// hold backpressures fresh transmissions while the replay window is
	// full (link-level flow control, mirroring credit exhaustion).
	hold []Flit
}

// linkFlit is a flit stamped with its link sequence number. queued
// marks a replay already sitting in the retransmission timer queue, so
// chained replays never double-schedule a sequence.
type linkFlit struct {
	seq    uint64
	f      Flit
	queued bool
}

// retxFlit is one scheduled replay.
type retxFlit struct {
	id       topo.SwitchID
	ord, out int
	lf       linkFlit
	at       uint64
}

type injState struct {
	pending []Flit
	freeAt  uint64
}

type linkKey struct {
	sw   int // downstream switch ordinal
	port int
	vc   int
}

// keyLess orders link keys by (switch, port, vc) — the fixed drain
// order determinism requires.
func keyLess(a, b linkKey) bool {
	if a.sw != b.sw {
		return a.sw < b.sw
	}
	if a.port != b.port {
		return a.port < b.port
	}
	return a.vc < b.vc
}

// NetConfig parameterizes the flit network.
type NetConfig struct {
	// SnoopPorts and Snoop configure every switch's directory hook
	// (sink-only; generation is unsupported in the flit model).
	SnoopPorts int
	Snoop      func(sw topo.SwitchID, m *mesg.Message) Verdict
	// LinkFault, when non-nil, is the wire-corruption oracle: called
	// once per flit crossing switch output link (sw, out), a true
	// return flips checksum bits in transit, exercising the link-level
	// detect/nack/replay protocol end to end.
	LinkFault func(sw topo.SwitchID, out int) bool
}

// NewNetwork builds the flit-level BMIN for tp.
func NewNetwork(tp *topo.T, cfg NetConfig) *Network {
	n := &Network{
		tp:       tp,
		routes:   make(map[uint64][]topo.Hop),
		msgs:     make(map[uint64]*mesg.Message),
		injP:     make([]injState, tp.Nodes),
		injM:     make([]injState, tp.Nodes),
		linkQ:    make(map[linkKey][]Flit),
		assembly: make(map[uint64]int),
		deliverP: make([]func(*mesg.Message), tp.Nodes),
		deliverM: make([]func(*mesg.Message), tp.Nodes),
		links:    make(map[outKey]*linkCtl),
		cfg:      cfg,
	}
	n.switches = make([]*Switch, tp.NumSwitches())
	for i := range n.switches {
		id := n.switchID(i)
		scfg := Config{Ports: 2 * tp.Radix, SnoopPorts: cfg.SnoopPorts}
		if cfg.Snoop != nil {
			scfg.Snoop = func(m *mesg.Message) Verdict { return cfg.Snoop(id, m) }
		}
		n.switches[i] = MustNew(scfg)
	}
	return n
}

func (n *Network) switchID(ord int) topo.SwitchID { return n.tp.OrdinalSwitch(ord) }

// AttachProc registers node i's processor-side delivery callback.
func (n *Network) AttachProc(i int, fn func(*mesg.Message)) { n.deliverP[i] = fn }

// AttachMem registers node i's memory-side delivery callback.
func (n *Network) AttachMem(i int, fn func(*mesg.Message)) { n.deliverM[i] = fn }

// Send queues m for injection at its source endpoint.
func (n *Network) Send(m *mesg.Message) {
	if m.ID == 0 {
		panic("flit: message needs an ID")
	}
	var hops []topo.Hop
	if k := len(n.hopFree); k > 0 {
		hops, n.hopFree = n.hopFree[k-1], n.hopFree[:k-1]
	} else {
		hops = make([]topo.Hop, 0, n.tp.MaxHops())
	}
	s, d := m.Src, m.Dst
	switch {
	case s.Side == mesg.ProcSide && d.Side == mesg.MemSide:
		hops = n.tp.AppendForward(hops, s.Node, d.Node)
	case s.Side == mesg.MemSide && d.Side == mesg.ProcSide:
		hops = n.tp.AppendBackward(hops, s.Node, d.Node)
	default:
		hops = n.tp.AppendTurnaround(hops, s.Node, d.Node, int(m.Addr>>5))
	}
	n.routes[m.ID] = hops
	n.msgs[m.ID] = m
	fs := PacketizeInto(n.pktScratch[:0], m, n.now, int(hops[0].Out))
	n.pktScratch = fs
	st := &n.injP[s.Node]
	if s.Side == mesg.MemSide {
		st = &n.injM[s.Node]
	}
	st.pending = append(st.pending, fs...)
	n.Stats.Sent++
}

// Tick advances the whole network one cycle.
func (n *Network) Tick() {
	n.now++
	// 1. Injection: one flit per LinkCyclesPerFlit per endpoint link.
	for i := range n.injP {
		n.inject(&n.injP[i], mesg.P(i))
		n.inject(&n.injM[i], mesg.M(i))
	}
	// 2. Switches.
	for _, s := range n.switches {
		s.Tick()
	}
	// 3. Due link-level retransmissions re-enter their links (and may
	// be corrupted again — the oracle sees every transmission attempt).
	n.pumpRetx()
	// 4. Inter-switch links and endpoint delivery.
	n.moveLinks()
	// 5. Drain link queues into downstream switch buffers, in fixed
	// (switch, port, vc) order: buffer space is contended, so the drain
	// order decides which flit wins a slot and must replay identically
	// from a given seed.
	keys := n.keyScratch[:0]
	for k := range n.linkQ {
		keys = append(keys, k)
	}
	n.keyScratch = keys
	// Insertion sort: the live-link set is small and an inlined sort
	// keeps the per-cycle drain allocation-free (sort.Slice's closure
	// escapes).
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keyLess(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for _, k := range keys {
		q := n.linkQ[k]
		drained := 0
		for drained < len(q) {
			if !n.switches[k.sw].Offer(k.port, k.vc, q[drained]) {
				break
			}
			drained++
		}
		if drained == len(q) {
			// Keep the entry with its warm backing array instead of
			// deleting it: the same few links carry all the traffic, and
			// a deleted key would make the next append reallocate. Empty
			// entries cost one key in the per-cycle drain scan, bounded
			// by the link count.
			n.linkQ[k] = q[:0]
		} else {
			copy(q, q[drained:])
			n.linkQ[k] = q[:len(q)-drained]
		}
	}
}

// inject pushes the next pending flit onto the first switch.
func (n *Network) inject(st *injState, end mesg.End) {
	if len(st.pending) == 0 || st.freeAt > n.now {
		return
	}
	f := st.pending[0]
	hops := n.routes[f.MsgID]
	sw := n.switches[n.tp.SwitchOrdinal(hops[0].Sw)]
	// The head flit carries Msg; body flits reuse the head's VC, which
	// destination parity determines deterministically per message.
	vc := n.vcForID(f.MsgID)
	if !sw.Offer(int(hops[0].In), vc, f) {
		return // buffer full; retry next cycle
	}
	st.pending = popFront(st.pending)
	st.freeAt = n.now + LinkCyclesPerFlit
	_ = end
}

// vcForID derives the message's VC from its destination.
func (n *Network) vcForID(id uint64) int {
	hops := n.routes[id]
	last := hops[len(hops)-1]
	return int(last.Out) % VCs
}

// moveLinks collects transmitted flits from every switch output and
// puts them on the wire: to the next switch (re-routed) or to the
// endpoint, through the link-level error protocol.
func (n *Network) moveLinks() {
	for ord, s := range n.switches {
		id := n.switchID(ord)
		for out := 0; out < 2*n.tp.Radix; out++ {
			for _, f := range s.Collect(out) {
				n.Stats.FlitsMoved++
				n.xmit(id, ord, out, f)
			}
		}
	}
}

// link returns (lazily creating) the error-protocol state of one
// switch output link.
func (n *Network) link(ord, out int) *linkCtl {
	k := outKey{ord, out}
	lc := n.links[k]
	if lc == nil {
		lc = &linkCtl{}
		n.links[k] = lc
	}
	return lc
}

// xmit sends one fresh flit across link (ord, out): it gets the next
// link sequence number and a pristine copy enters the replay window.
// When the window is full (too many unacknowledged flits in recovery)
// the flit is held instead — link-level flow control — and transmitted
// once acknowledgements free a slot.
func (n *Network) xmit(id topo.SwitchID, ord, out int, f Flit) {
	lc := n.link(ord, out)
	if len(lc.hold) > 0 || len(lc.replay) >= ReplayFlits {
		lc.hold = append(lc.hold, f)
		return
	}
	lf := linkFlit{seq: lc.nextSend, f: f}
	lc.nextSend++
	lc.replay = append(lc.replay, lf)
	n.transmit(id, ord, out, lc, lf)
}

// transmit puts one (possibly replayed) stamped flit on the wire,
// where the corruption oracle may hit it, and runs the receiver side.
func (n *Network) transmit(id topo.SwitchID, ord, out int, lc *linkCtl, lf linkFlit) {
	if n.cfg.LinkFault != nil && n.cfg.LinkFault(id, out) {
		lf.f.Sum ^= 0x5555 // wire corruption; the CRC check below rejects it
	}
	n.recv(id, ord, out, lc, lf)
}

// recv is the receiving link interface: enforce total link order, then
// verify the checksum. A flit ahead of the expected sequence is
// discarded (its pristine copy waits in the replay window); a stale
// duplicate is discarded outright; a corrupted in-order flit is nacked
// and replayed after a round trip. When a recovered flit closes the
// gap, every consecutive already-transmitted successor is chain-
// replayed immediately, so a burst discarded behind one corruption
// recovers in one extra round trip.
func (n *Network) recv(id topo.SwitchID, ord, out int, lc *linkCtl, lf linkFlit) {
	if lf.seq != lc.nextRecv {
		return
	}
	if !lf.f.SumOK() {
		n.Stats.FlitsCorrupted++
		n.scheduleReplay(id, ord, out, lc, lf.seq)
		return
	}
	lc.ack(lf.seq)
	lc.nextRecv++
	// Chain replay: successors discarded behind the recovered gap sit
	// in the replay window with no retransmission queued — schedule
	// them now (skipping any whose replay is already in flight).
	for i := range lc.replay {
		pf := &lc.replay[i]
		if pf.queued {
			continue
		}
		n.scheduleReplay(id, ord, out, lc, pf.seq)
	}
	n.forward(id, ord, out, lf.f)
}

// scheduleReplay queues the pristine copy of link sequence seq for
// retransmission one round trip from now.
func (n *Network) scheduleReplay(id topo.SwitchID, ord, out int, lc *linkCtl, seq uint64) {
	for i := range lc.replay {
		if lc.replay[i].seq == seq {
			lc.replay[i].queued = true
			n.Stats.FlitRetransmits++
			n.retx = append(n.retx, retxFlit{id: id, ord: ord, out: out, lf: lc.replay[i], at: n.now + RetxRoundTrip})
			return
		}
	}
	panic(fmt.Sprintf("flit: replay window lost link seq %d on link sw%d:out%d", seq, ord, out))
}

// pumpRetx re-transmits due replays, then drains held flits into freed
// replay-window slots. Replays go back through transmit, so they face
// the corruption oracle again; entries scheduled while pumping (a
// replay corrupted anew) are preserved for the next round trip.
func (n *Network) pumpRetx() {
	var rest []retxFlit
	for i := 0; i < len(n.retx); i++ {
		r := n.retx[i]
		if r.at > n.now {
			rest = append(rest, r)
			continue
		}
		lc := n.link(r.ord, r.out)
		for j := range lc.replay {
			if lc.replay[j].seq == r.lf.seq {
				lc.replay[j].queued = false
				break
			}
		}
		n.transmit(r.id, r.ord, r.out, lc, r.lf)
	}
	n.retx = rest
	// Deterministic drain order: by switch ordinal, then output port.
	for ord := range n.switches {
		for out := 0; out < 2*n.tp.Radix; out++ {
			lc := n.links[outKey{ord, out}]
			if lc == nil {
				continue
			}
			for len(lc.hold) > 0 && len(lc.replay) < ReplayFlits {
				f := lc.hold[0]
				lc.hold = lc.hold[1:]
				lf := linkFlit{seq: lc.nextSend, f: f}
				lc.nextSend++
				lc.replay = append(lc.replay, lf)
				n.transmit(n.switchID(ord), ord, out, lc, lf)
			}
		}
	}
}

// ack frees the replay slot of a cleanly received flit.
func (lc *linkCtl) ack(seq uint64) {
	for i, pf := range lc.replay {
		if pf.seq == seq {
			lc.replay = append(lc.replay[:i], lc.replay[i+1:]...)
			return
		}
	}
}

// forward routes one flit leaving (switch, out).
func (n *Network) forward(id topo.SwitchID, ord, out int, f Flit) {
	hops := n.routes[f.MsgID]
	// Find this switch's position on the route.
	idx := -1
	for i, h := range hops {
		if h.Sw == id {
			idx = i
			break
		}
	}
	if idx == -1 || int(hops[idx].Out) != out {
		panic(fmt.Sprintf("flit: flit of msg %d left %v port %d off its route %v", f.MsgID, id, out, hops))
	}
	if idx == len(hops)-1 {
		// Endpoint delivery: reassemble the message.
		n.assembly[f.MsgID]++
		if f.Tail {
			n.assembly[f.MsgID] = 0
			delete(n.assembly, f.MsgID)
			m := n.msgOf(f.MsgID, hops)
			n.Stats.Delivered++
			last := hops[idx]
			delete(n.routes, f.MsgID)
			n.hopFree = append(n.hopFree, hops[:0])
			n.deliver(m, last)
		}
		return
	}
	next := hops[idx+1]
	if f.Head {
		f.SetOut(int(next.Out))
	}
	k := linkKey{sw: n.tp.SwitchOrdinal(next.Sw), port: int(next.In), vc: n.vcForID(f.MsgID)}
	n.linkQ[k] = append(n.linkQ[k], f)
}

// msgOf recovers the message object stashed at Send time.
func (n *Network) msgOf(id uint64, hops []topo.Hop) *mesg.Message {
	m := n.msgs[id]
	delete(n.msgs, id)
	return m
}

// deliver hands the message to the endpoint past the final hop.
func (n *Network) deliver(m *mesg.Message, last topo.Hop) {
	if last.Sw.Stage == 0 {
		// Leaf down-port: processor endpoint.
		p := last.Sw.Index*n.tp.Radix + int(last.Out)
		n.deliverP[p](m)
		return
	}
	mem := last.Sw.Index*n.tp.Radix + int(last.Out) - n.tp.Radix
	n.deliverM[mem](m)
}

// Idle reports whether nothing is in flight.
func (n *Network) Idle() bool {
	for i := range n.injP {
		if len(n.injP[i].pending) > 0 || len(n.injM[i].pending) > 0 {
			return false
		}
	}
	if len(n.retx) > 0 {
		return false
	}
	// Drained linkQ entries persist (with empty queues) to keep their
	// backing arrays warm, so count flits, not keys.
	for _, q := range n.linkQ {
		if len(q) > 0 {
			return false
		}
	}
	for _, lc := range n.links {
		if len(lc.hold) > 0 {
			return false
		}
	}
	for _, s := range n.switches {
		if !s.Idle() {
			return false
		}
	}
	return true
}
