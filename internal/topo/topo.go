// Package topo constructs the bidirectional multistage interconnection
// network (BMIN) of Figure 3: a dance-hall butterfly with processor/
// cache interfaces at the bottom rank and memory interfaces at the top
// rank. Requests travel the forward (upward) path from a processor to
// a home memory; replies and coherence requests travel the backward
// (downward) path. Because a (processor, memory) pair always traverses
// the same switches in both directions, a directory hierarchy can be
// embedded in the switches — the property the switch directory
// framework depends on.
//
// The network is built from bidirectional crossbar switches with Radix
// ports per side (a Radix=4 switch is the paper's "8x8 crossbar": 8
// input links and 8 output links, used as 4 bidirectional down ports
// plus 4 bidirectional up ports). The paper's machine is the 2-stage
// instance; this package generalizes it to k-ary s-stage butterflies
// with s = max(2, ceil(log_radix(nodes))), so 256- and 1024-node
// machines (3 and 4 stages of 8-port switches) are representable. When
// radix^s exceeds the node count the spare fan-out becomes bundled
// parallel links, exactly as in the 2-stage layout.
//
// Routing is arithmetic: a switch index is a mixed-radix number of
// s-1 digits, and the move between rank i and rank i+1 replaces digit
// i. A route is therefore computed in O(1) per hop from the endpoint
// indices alone — no precomputed path tables and no route cache. The
// Append* forms write a route into a caller-owned buffer, so a caller
// that reuses one buffer per in-flight message routes without
// allocating; a buffer of MaxHops() hops holds any canonical route.
package topo

import "fmt"

// Dir is a traversal direction through the BMIN.
type Dir uint8

const (
	// Up is the forward direction, toward the memory rank.
	Up Dir = iota
	// Down is the backward direction, toward the processor rank.
	Down
)

func (d Dir) String() string {
	switch d {
	case Up:
		return "up"
	case Down:
		return "down"
	}
	return fmt.Sprintf("Dir(%d)", uint8(d))
}

// SwitchID names a switch: Stage 0 is the leaf (processor-side) rank,
// Stage Stages-1 the top (memory-side) rank.
type SwitchID struct {
	Stage int
	Index int
}

func (s SwitchID) String() string { return fmt.Sprintf("S%d.%d", s.Stage, s.Index) }

// Port is a switch-local bidirectional port number. Ports [0, Radix)
// face down (toward processors); ports [Radix, 2*Radix) face up
// (toward memories).
type Port int

// Hop is one switch traversal: the message enters sw on port In and
// leaves on port Out.
type Hop struct {
	Sw  SwitchID
	In  Port
	Out Port
}

// T is a concrete s-stage BMIN. It is immutable after New: every
// route is a pure function of the endpoints, so a single T may be
// shared by concurrent simulations without synchronization.
type T struct {
	// Nodes is the number of CC-NUMA nodes (processor+memory pairs).
	Nodes int
	// Radix is the number of bidirectional ports per switch side.
	Radix int
	// Stages is the rank count s: 2 for the paper's machine, and in
	// general max(2, ceil(log_radix(nodes))).
	Stages int
	// Bundle is the total parallel-path multiplicity between a
	// (processor, memory) pair: Radix^Stages / Nodes. For the 2-stage
	// machine this is the per-(leaf, top) link bundle width.
	Bundle int
	// Leaves and Tops are the per-rank switch counts (Nodes / Radix).
	// Every rank has the same width in a butterfly; the two names
	// survive from the 2-stage layout because the leaf (processor) and
	// top (memory) ranks are the ones with endpoint-visible roles.
	Leaves, Tops int

	// fan[i] is the digit base of switch-index digit i (the fan-out
	// multiplicity of the move between ranks i and i+1), and lanes[i]
	// = Radix/fan[i] is that move's bundled-link lane count. stride[i]
	// is the positional weight of digit i, so a switch index w has
	// digit_i(w) = (w/stride[i]) % fan[i]. prod(fan) = Leaves and
	// prod(lanes) = Bundle.
	fan, lanes, stride []int
	// selPeriod is Radix^(Stages-1): the number of distinct turnaround
	// paths between two leaves, and the modulus applied to Turnaround's
	// sel argument. Equals Tops*Bundle on the 2-stage machine.
	selPeriod int
}

// stagesFor derives the rank count: the smallest s with radix^s >=
// nodes, floored at the paper's 2.
func stagesFor(nodes, radix int) int {
	s, reach := 1, radix
	for reach < nodes {
		reach *= radix
		s++
	}
	if s < 2 {
		s = 2
	}
	return s
}

// factorable reports whether an s-stage butterfly exists for the
// geometry: nodes divisible by radix and switches-per-rank dividing
// radix^(s-1) (so every digit base divides the radix and the total
// bundle width is a positive integer).
func factorable(nodes, radix int) bool {
	if nodes <= 0 || radix <= 0 || nodes%radix != 0 {
		return false
	}
	s := stagesFor(nodes, radix)
	perRank := nodes / radix
	pow := 1
	for i := 0; i < s-1; i++ {
		pow *= radix
	}
	return pow%perRank == 0
}

// New builds an s-stage BMIN for nodes endpoints using switches of the
// given radix, with s derived from the geometry (2 stages up to
// radix² nodes). It returns an error when no butterfly of that shape
// exists, naming the derived stage count and the nearest valid
// geometries.
func New(nodes, radix int) (*T, error) {
	if nodes <= 0 || radix <= 0 {
		return nil, fmt.Errorf("topo: nodes (%d) and radix (%d) must be positive", nodes, radix)
	}
	s := stagesFor(nodes, radix)
	if nodes%radix != 0 {
		return nil, fmt.Errorf("topo: nodes (%d) not divisible by radix (%d) for a %d-stage butterfly; nearest valid: %s",
			nodes, radix, s, nearestValid(nodes, radix))
	}
	perRank := nodes / radix
	pow := 1
	for i := 0; i < s-1; i++ {
		pow *= radix
	}
	if pow%perRank != 0 {
		return nil, fmt.Errorf("topo: %d switches per rank do not divide radix^(stages-1)=%d (%d nodes, radix %d, %d stages); nearest valid: %s",
			perRank, pow, nodes, radix, s, nearestValid(nodes, radix))
	}
	t := &T{
		Nodes:  nodes,
		Radix:  radix,
		Stages: s,
		Bundle: pow * radix / nodes,
		Leaves: perRank,
		Tops:   perRank,
		fan:    make([]int, s-1),
		lanes:  make([]int, s-1),
		stride: make([]int, s-1),
	}
	// Factor the per-rank width into per-move digit bases by greedy
	// gcd. Each base divides the radix, and the factorable check above
	// guarantees the remainder reaches 1 within s-1 moves.
	rem := perRank
	stride := 1
	for i := 0; i < s-1; i++ {
		g := gcd(radix, rem)
		t.fan[i] = g
		t.lanes[i] = radix / g
		t.stride[i] = stride
		stride *= g
		rem /= g
	}
	if rem != 1 {
		// Unreachable given factorable's divisibility argument; kept as
		// a construction-time invariant.
		return nil, fmt.Errorf("topo: internal: rank width %d not factored over %d moves of radix %d", perRank, s-1, radix)
	}
	t.selPeriod = pow
	return t, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// nearestValid suggests valid geometries close to a rejected request:
// the nearest valid node counts for the requested radix, and any
// radices in [2, nodes] that accept the requested node count.
func nearestValid(nodes, radix int) string {
	var below, above int
	for n := nodes - 1; n >= radix; n-- {
		if factorable(n, radix) {
			below = n
			break
		}
	}
	for n := nodes + 1; n <= nodes*radix; n++ {
		if factorable(n, radix) {
			above = n
			break
		}
	}
	var radices []int
	for r := 2; r <= nodes && len(radices) < 3; r++ {
		if r != radix && factorable(nodes, r) {
			radices = append(radices, r)
		}
	}
	out := ""
	if below > 0 {
		out += fmt.Sprintf("(%d nodes, radix %d)", below, radix)
	}
	if above > 0 {
		if out != "" {
			out += ", "
		}
		out += fmt.Sprintf("(%d nodes, radix %d)", above, radix)
	}
	for _, r := range radices {
		if out != "" {
			out += ", "
		}
		out += fmt.Sprintf("(%d nodes, radix %d)", nodes, r)
	}
	if out == "" {
		return "none"
	}
	return out
}

// MustNew is New, panicking on error; for tests and tables.
func MustNew(nodes, radix int) *T {
	t, err := New(nodes, radix)
	if err != nil {
		panic(err)
	}
	return t
}

// NumSwitches reports the total switch count across all stages.
func (t *T) NumSwitches() int { return t.Stages * t.Leaves }

// SwitchOrdinal flattens a SwitchID into [0, NumSwitches) in
// stage-major order: rank 0 (leaves) first, then each rank upward.
func (t *T) SwitchOrdinal(s SwitchID) int {
	return s.Stage*t.Leaves + s.Index
}

// OrdinalSwitch is SwitchOrdinal's inverse.
func (t *T) OrdinalSwitch(ord int) SwitchID {
	return SwitchID{Stage: ord / t.Leaves, Index: ord % t.Leaves}
}

// LeafOf returns the leaf switch serving processor p.
func (t *T) LeafOf(p int) SwitchID { return SwitchID{0, p / t.Radix} }

// TopOf returns the top-rank switch serving memory m.
func (t *T) TopOf(m int) SwitchID { return SwitchID{t.Stages - 1, m / t.Radix} }

// digit extracts digit i of switch index w.
func (t *T) digit(w, i int) int { return (w / t.stride[i]) % t.fan[i] }

// setDigit returns w with digit i replaced by d.
func (t *T) setDigit(w, i, d int) int {
	return w + (d-t.digit(w, i))*t.stride[i]
}

// upPort is the rank-i switch output port reaching the rank-(i+1)
// switch whose digit i is d, on bundle lane lane.
func (t *T) upPort(i, d, lane int) Port { return Port(t.Radix + d*t.lanes[i] + lane) }

// downPort is the rank-(i+1) switch output port reaching the rank-i
// switch whose digit i is d, on bundle lane lane.
func (t *T) downPort(i, d, lane int) Port { return Port(d*t.lanes[i] + lane) }

// AppendForward appends the forward (processor-to-memory) hop sequence
// to buf and returns it. The route is exactly Stages hops: each move j
// rewrites switch-index digit j to the destination top's, on bundle
// lane (proc+mem) mod lanes[j] — the deterministic spread that keeps
// every (proc, mem) pair on a fixed lane so point-to-point order is
// preserved.
func (t *T) AppendForward(buf []Hop, proc, mem int) []Hop {
	t.checkNode(proc)
	t.checkNode(mem)
	w, top := proc/t.Radix, mem/t.Radix
	in := Port(proc % t.Radix)
	for j := 0; j < t.Stages-1; j++ {
		c := t.digit(top, j)
		lane := (proc + mem) % t.lanes[j]
		buf = append(buf, Hop{Sw: SwitchID{j, w}, In: in, Out: t.upPort(j, c, lane)})
		in = t.downPort(j, t.digit(w, j), lane)
		w = t.setDigit(w, j, c)
	}
	return append(buf, Hop{Sw: SwitchID{t.Stages - 1, w}, In: in, Out: Port(t.Radix + mem%t.Radix)})
}

// Forward returns the hop sequence for a processor-to-memory message
// (the forward path: ReadReq, WriteReq, WriteBack, CopyBack, InvalAck)
// in a freshly allocated slice. Hot paths append into a reused buffer
// with AppendForward instead.
func (t *T) Forward(proc, mem int) []Hop {
	return t.AppendForward(make([]Hop, 0, t.Stages), proc, mem)
}

// AppendBackward appends the backward (memory-to-processor) hop
// sequence to buf: the exact reverse of AppendForward(proc, mem), so a
// request and its reply see the same switches — the path-overlap
// property the switch directories depend on.
func (t *T) AppendBackward(buf []Hop, mem, proc int) []Hop {
	start := len(buf)
	buf = t.AppendForward(buf, proc, mem)
	fwd := buf[start:]
	for i, j := 0, len(fwd)-1; i < j; i, j = i+1, j-1 {
		fwd[i], fwd[j] = fwd[j], fwd[i]
	}
	for i := range fwd {
		fwd[i].In, fwd[i].Out = fwd[i].Out, fwd[i].In
	}
	return buf
}

// Backward returns the hop sequence for a memory-to-processor message
// (the backward path: replies, CtoCReq, Inval, Retry, WBAck, Nack).
func (t *T) Backward(mem, proc int) []Hop {
	return t.AppendBackward(make([]Hop, 0, t.Stages), mem, proc)
}

// MaxHops is the length of the longest canonical route, 2·Stages−1
// hops: a turnaround, or a route from a switch, that pivots at the top
// rank. A buffer of that capacity holds every route this package
// computes.
func (t *T) MaxHops() int { return 2*t.Stages - 1 }

// SelPeriod is the number of distinct turnaround path selectors:
// Radix^(Stages-1), the modulus applied to Turnaround's sel.
func (t *T) SelPeriod() int { return t.selPeriod }

// AppendTurnaround appends the processor-to-processor (CtoCReply) hop
// sequence to buf: up from the source's leaf to the lowest rank whose
// subtree contains both leaves (higher when sel disagrees there), then
// down to the destination's leaf. sel picks the pivot's free digits
// and the bundle lanes deterministically (callers pass the block's
// home node so the reply shares the transaction's tree). If src and
// dst share a leaf switch the route is a single leaf-switch hop.
func (t *T) AppendTurnaround(buf []Hop, src, dst, sel int) []Hop {
	t.checkNode(src)
	t.checkNode(dst)
	sl, dl := src/t.Radix, dst/t.Radix
	if sl == dl {
		return append(buf, Hop{Sw: SwitchID{0, sl}, In: Port(src % t.Radix), Out: Port(dst % t.Radix)})
	}
	s := sel % t.selPeriod
	if s < 0 {
		s += t.selPeriod
	}
	// The pivot rank is just above the highest differing digit: the
	// lowest rank from which a pure down path can still set every
	// mismatched digit to the destination leaf's.
	pivot := 0
	for j := 0; j < t.Stages-1; j++ {
		if t.digit(sl, j) != t.digit(dl, j) {
			pivot = j + 1
		}
	}
	// Ascend: free digits below the pivot come from sel, so a
	// transaction's turnaround shares its home subtree.
	w := sl
	in := Port(src % t.Radix)
	for j := 0; j < pivot; j++ {
		f := t.digit(s, j)
		lane := (src + s) % t.lanes[j]
		buf = append(buf, Hop{Sw: SwitchID{j, w}, In: in, Out: t.upPort(j, f, lane)})
		in = t.downPort(j, t.digit(w, j), lane)
		w = t.setDigit(w, j, f)
	}
	// Descend, rewriting each digit to the destination leaf's.
	for j := pivot - 1; j >= 0; j-- {
		d := t.digit(dl, j)
		lane := (dst + s) % t.lanes[j]
		buf = append(buf, Hop{Sw: SwitchID{j + 1, w}, In: in, Out: t.downPort(j, d, lane)})
		in = t.upPort(j, t.digit(w, j), lane)
		w = t.setDigit(w, j, d)
	}
	return append(buf, Hop{Sw: SwitchID{0, w}, In: in, Out: Port(dst % t.Radix)})
}

// Turnaround returns the processor-to-processor hop sequence; the
// route depends on sel only through sel mod SelPeriod().
func (t *T) Turnaround(src, dst, sel int) []Hop {
	return t.AppendTurnaround(make([]Hop, 0, t.MaxHops()), src, dst, sel)
}

// AppendRouteFrom appends the route of a message created inside
// switch sw (a snooper interception) to buf, entering the fabric on the
// switch-internal injection port in. Destinations below sw's subtree
// descend directly; memory-side destinations whose top rank is not
// straight above climb only as far as needed, and processor-side
// destinations outside the subtree pivot through sel-chosen free
// digits exactly like AppendTurnaround. The lane arithmetic anchors on
// sw's first endpoint (index*Radix), matching the pre-arithmetic
// implementation hop for hop on 2-stage machines.
func (t *T) AppendRouteFrom(buf []Hop, sw SwitchID, in Port, memSide bool, node, sel int) []Hop {
	t.checkNode(node)
	w, rank := sw.Index, sw.Stage
	anchor := sw.Index * t.Radix
	if memSide {
		top := node / t.Radix
		// Descend until every digit below the current rank matches the
		// destination top, then climb.
		low := rank
		for j := 0; j < rank; j++ {
			if t.digit(w, j) != t.digit(top, j) {
				low = j
				break
			}
		}
		for j := rank - 1; j >= low; j-- {
			d := t.digit(top, j)
			lane := (anchor + node) % t.lanes[j]
			buf = append(buf, Hop{Sw: SwitchID{j + 1, w}, In: in, Out: t.downPort(j, d, lane)})
			in = t.upPort(j, t.digit(w, j), lane)
			w = t.setDigit(w, j, d)
		}
		for j := low; j < t.Stages-1; j++ {
			c := t.digit(top, j)
			lane := (anchor + node) % t.lanes[j]
			buf = append(buf, Hop{Sw: SwitchID{j, w}, In: in, Out: t.upPort(j, c, lane)})
			in = t.downPort(j, t.digit(w, j), lane)
			w = t.setDigit(w, j, c)
		}
		return append(buf, Hop{Sw: SwitchID{t.Stages - 1, w}, In: in, Out: Port(t.Radix + node%t.Radix)})
	}
	dl := node / t.Radix
	if rank == 0 && dl == w {
		return append(buf, Hop{Sw: sw, In: in, Out: Port(node % t.Radix)})
	}
	pivot := rank
	for j := rank; j < t.Stages-1; j++ {
		if t.digit(w, j) != t.digit(dl, j) {
			pivot = j + 1
		}
	}
	if pivot == rank {
		// Pure down path: the destination leaf is in this subtree.
		for j := rank - 1; j >= 0; j-- {
			d := t.digit(dl, j)
			lane := (anchor + node) % t.lanes[j]
			buf = append(buf, Hop{Sw: SwitchID{j + 1, w}, In: in, Out: t.downPort(j, d, lane)})
			in = t.upPort(j, t.digit(w, j), lane)
			w = t.setDigit(w, j, d)
		}
		return append(buf, Hop{Sw: SwitchID{0, w}, In: in, Out: Port(node % t.Radix)})
	}
	s := sel % t.selPeriod
	if s < 0 {
		s += t.selPeriod
	}
	for j := rank; j < pivot; j++ {
		f := t.digit(s, j)
		lane := (anchor + s) % t.lanes[j]
		buf = append(buf, Hop{Sw: SwitchID{j, w}, In: in, Out: t.upPort(j, f, lane)})
		in = t.downPort(j, t.digit(w, j), lane)
		w = t.setDigit(w, j, f)
	}
	for j := pivot - 1; j >= 0; j-- {
		d := t.digit(dl, j)
		lane := (node + s) % t.lanes[j]
		buf = append(buf, Hop{Sw: SwitchID{j + 1, w}, In: in, Out: t.downPort(j, d, lane)})
		in = t.upPort(j, t.digit(w, j), lane)
		w = t.setDigit(w, j, d)
	}
	return append(buf, Hop{Sw: SwitchID{0, w}, In: in, Out: Port(node % t.Radix)})
}

// RouteFrom returns AppendRouteFrom's route in a freshly allocated
// slice.
func (t *T) RouteFrom(sw SwitchID, in Port, memSide bool, node, sel int) []Hop {
	return t.AppendRouteFrom(make([]Hop, 0, t.MaxHops()), sw, in, memSide, node, sel)
}

// PortPeer describes what a switch output port connects to: another
// switch's input port, or a delivery link to an endpoint.
type PortPeer struct {
	// Switch is the peer switch ordinal, or -1 for an endpoint link.
	Switch int
	// In is the peer switch's input port (switch links only).
	In Port
	// Node is the endpoint node number (endpoint links only).
	Node int
	// MemSide is true for a memory endpoint, false for a processor.
	MemSide bool
}

// Peer resolves one output port of one switch. Down ports of rank 0
// deliver to processors and up ports of the top rank to memories;
// every other port is an inter-switch link. The wiring is symmetric:
// if sw's output port p reaches peer input port q, then the peer's
// output port q reaches sw's input port p.
func (t *T) Peer(sw SwitchID, out Port) PortPeer {
	w, rank, r := sw.Index, sw.Stage, t.Radix
	if int(out) < r { // down port
		if rank == 0 {
			return PortPeer{Switch: -1, Node: w*r + int(out)}
		}
		j := rank - 1
		d := int(out) / t.lanes[j]
		lane := int(out) % t.lanes[j]
		peer := t.setDigit(w, j, d)
		return PortPeer{
			Switch: t.SwitchOrdinal(SwitchID{j, peer}),
			In:     t.upPort(j, t.digit(w, j), lane),
		}
	}
	up := int(out) - r
	if rank == t.Stages-1 {
		return PortPeer{Switch: -1, Node: w*r + up, MemSide: true}
	}
	c := up / t.lanes[rank]
	lane := up % t.lanes[rank]
	peer := t.setDigit(w, rank, c)
	return PortPeer{
		Switch: t.SwitchOrdinal(SwitchID{rank + 1, peer}),
		In:     t.downPort(rank, t.digit(w, rank), lane),
	}
}

// Link names one directional link by its source switch ordinal (see
// SwitchOrdinal) and output port. This covers both inter-switch links
// and endpoint delivery links; injection links (endpoint into switch)
// are not separately addressable.
type Link struct {
	Sw  int  // source switch ordinal
	Out Port // output port on the source switch
}

func (l Link) String() string { return fmt.Sprintf("sw%d:out%d", l.Sw, l.Out) }

// InterSwitchLinks enumerates every directional inter-switch link in
// deterministic order: each rank's up-links from the bottom upward,
// then each rank's down-links from the top downward (on the 2-stage
// machine: all leaf up-links, then all top down-links). Endpoint
// delivery links are excluded — severing one isolates its endpoint
// outright (a partition), whereas any single inter-switch link loss
// leaves the fabric connected.
func (t *T) InterSwitchLinks() []Link {
	var out []Link
	for rank := 0; rank < t.Stages-1; rank++ {
		for w := 0; w < t.Leaves; w++ {
			ord := t.SwitchOrdinal(SwitchID{Stage: rank, Index: w})
			for p := t.Radix; p < 2*t.Radix; p++ {
				out = append(out, Link{Sw: ord, Out: Port(p)})
			}
		}
	}
	for rank := t.Stages - 1; rank >= 1; rank-- {
		for w := 0; w < t.Leaves; w++ {
			ord := t.SwitchOrdinal(SwitchID{Stage: rank, Index: w})
			for p := 0; p < t.Radix; p++ {
				out = append(out, Link{Sw: ord, Out: Port(p)})
			}
		}
	}
	return out
}

// AppendSwitchesForward appends just the switches on the forward path,
// in traversal order; used by the trace-driven simulator, which models
// directory placement but not link timing.
func (t *T) AppendSwitchesForward(buf []SwitchID, proc, mem int) []SwitchID {
	t.checkNode(proc)
	t.checkNode(mem)
	w, top := proc/t.Radix, mem/t.Radix
	for j := 0; j < t.Stages-1; j++ {
		buf = append(buf, SwitchID{j, w})
		w = t.setDigit(w, j, t.digit(top, j))
	}
	return append(buf, SwitchID{t.Stages - 1, w})
}

// SwitchesForward lists just the switches on the forward path.
func (t *T) SwitchesForward(proc, mem int) []SwitchID {
	return t.AppendSwitchesForward(make([]SwitchID, 0, t.Stages), proc, mem)
}

// AppendSwitchesBackward appends the switches on the backward path in
// order: the forward path reversed.
func (t *T) AppendSwitchesBackward(buf []SwitchID, mem, proc int) []SwitchID {
	start := len(buf)
	buf = t.AppendSwitchesForward(buf, proc, mem)
	fwd := buf[start:]
	for i, j := 0, len(fwd)-1; i < j; i, j = i+1, j-1 {
		fwd[i], fwd[j] = fwd[j], fwd[i]
	}
	return buf
}

// SwitchesBackward lists the switches on the backward path in order.
func (t *T) SwitchesBackward(mem, proc int) []SwitchID {
	return t.AppendSwitchesBackward(make([]SwitchID, 0, t.Stages), mem, proc)
}

func (t *T) checkNode(n int) {
	if n < 0 || n >= t.Nodes {
		panic(fmt.Sprintf("topo: node %d out of range [0,%d)", n, t.Nodes))
	}
}

func (t *T) String() string {
	return fmt.Sprintf("BMIN(%d nodes, %d stages of %dx%d switches, %d per rank, bundle %d)",
		t.Nodes, t.Stages, 2*t.Radix, 2*t.Radix, t.Leaves, t.Bundle)
}
