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
	// carries it through the switches; the network hands it to the
	// endpoint when the tail arrives).
	msgs map[uint64]*mesg.Message

	// inj is the per-processor/memory injection state: pending flits
	// and the serialization clock of the injection link.
	injP, injM []injState

	// linkQ holds flits in transit between switches (wire retiming).
	linkQ map[linkKey][]Flit

	deliverP, deliverM []func(*mesg.Message)

	// keyScratch is the reusable drain-order buffer of Tick step 4:
	// rebuilding it per cycle was the network's hottest steady-state
	// allocation. pktScratch is Send's packetization buffer; its flits
	// are copied into the injection queue before Send returns.
	keyScratch []linkKey
	pktScratch []Flit

	Stats NetStats
}

// NetStats counts network-level events.
type NetStats struct {
	Sent       uint64
	Delivered  uint64
	FlitsMoved uint64
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
		deliverP: make([]func(*mesg.Message), tp.Nodes),
		deliverM: make([]func(*mesg.Message), tp.Nodes),
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
		n.inject(&n.injP[i])
		n.inject(&n.injM[i])
	}
	// 2. Switches.
	for _, s := range n.switches {
		s.Tick()
	}
	// 3. Inter-switch links and endpoint delivery.
	n.moveLinks()
	// 4. Drain link queues into downstream switch buffers, in fixed
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
func (n *Network) inject(st *injState) {
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
}

// vcForID derives the message's VC from its destination.
func (n *Network) vcForID(id uint64) int {
	hops := n.routes[id]
	last := hops[len(hops)-1]
	return int(last.Out) % VCs
}

// moveLinks collects transmitted flits from every switch output and
// puts them on the wire: to the next switch (re-routed) or to the
// endpoint.
func (n *Network) moveLinks() {
	for ord, s := range n.switches {
		id := n.switchID(ord)
		for out := 0; out < 2*n.tp.Radix; out++ {
			for _, f := range s.Collect(out) {
				n.Stats.FlitsMoved++
				n.forward(id, out, f)
			}
		}
	}
}

// forward routes one flit leaving (switch, out).
func (n *Network) forward(id topo.SwitchID, out int, f Flit) {
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
		// Endpoint delivery: the tail completes the message.
		if f.Tail {
			m := n.msgs[f.MsgID]
			delete(n.msgs, f.MsgID)
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
	// Drained linkQ entries persist (with empty queues) to keep their
	// backing arrays warm, so count flits, not keys.
	for _, q := range n.linkQ {
		if len(q) > 0 {
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
