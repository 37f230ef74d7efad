// Package flit is a cycle-accurate, flit-level model of one DRESAR
// crossbar switch, implementing Section 4 at the granularity the
// hardware is specified at: wormhole routing with per-message output
// locks, input blocks with two 4-flit virtual-channel FIFOs per link,
// SPIDER-style age-based arbitration granting at most four flits per
// cycle, a 4-cycle switch core, link transmitters serializing one
// 8-byte flit every four 200MHz cycles, credit-based backpressure, and
// the switch-directory pipeline (snoop at header arrival, two
// directory ports per cycle, sink signals to the output transmitter).
//
// The full-machine simulator (package xbar) models switches at message
// granularity with flit-serialization timing; this package exists to
// validate that substitution (DESIGN.md #4): the equivalence tests in
// flit_test.go show both models agree on idle-path latency and
// saturation throughput, and characterize where they diverge
// (sub-message pipelining under contention).
package flit

import (
	"fmt"

	"dresar/internal/mesg"
)

// Geometry and timing (Table 2 / Section 4.1).
const (
	// BufFlits is the per-VC input FIFO capacity.
	BufFlits = 4
	// LinkCyclesPerFlit serializes an 8-byte flit over a 16-bit link.
	LinkCyclesPerFlit = 4
	// CoreCycles is the input-to-output-transmitter pipeline depth.
	CoreCycles = 4
	// MaxGrants bounds arbitration: "a maximum of 4 highest age flits
	// are selected from 8 possible arbitration candidates".
	MaxGrants = 4
	// VCs is the virtual channel count per link.
	VCs = 2
)

// Flit is one 8-byte flow-control unit. The head flit carries the
// message header (and the pointer to the whole message, standing in
// for the encoded fields); body/tail flits carry payload.
type Flit struct {
	MsgID uint64
	Head  bool
	Tail  bool
	Msg   *mesg.Message // non-nil on the head flit
	Age   uint64        // injection timestamp (age-based arbitration)

	out int // output port, routed at the head
}

// SetOut re-routes the flit for its next switch; only the head flit's
// port matters (body flits follow the wormhole allocation).
func (f *Flit) SetOut(o int) { f.out = o }

// popFront removes the first element by shifting the rest down, so the
// backing array — and the queue's warm capacity — is kept. The plain
// s[1:] reslice walks the array forward until every append reallocates;
// with shift-down the steady-state hot path never does. Queues here are
// a few flits deep, so the copy is cheaper than the allocation churn.
func popFront[T any](s []T) []T {
	copy(s, s[1:])
	return s[:len(s)-1]
}

// Packetize splits a message into flits: one header flit plus four
// data flits for data-carrying kinds. out is the switch output port
// the message must leave through; age is its injection time.
func Packetize(m *mesg.Message, age uint64, out int) []Flit {
	return PacketizeInto(nil, m, age, out)
}

// PacketizeInto is Packetize appending into dst, for callers that
// recycle a scratch buffer across messages (the flits are copied into
// per-link queues immediately, so the buffer can be reused).
func PacketizeInto(dst []Flit, m *mesg.Message, age uint64, out int) []Flit {
	n := m.Flits()
	base := len(dst)
	for i := 0; i < n; i++ {
		dst = append(dst, Flit{MsgID: m.ID, Age: age, out: out})
	}
	fs := dst[base:]
	fs[0].Head = true
	fs[0].Msg = m
	fs[n-1].Tail = true
	return dst
}

// Verdict is the switch directory's decision for one header.
type Verdict struct {
	// Sink consumes the whole message inside the switch: its flits
	// are drained from the input FIFO but never reach an output.
	Sink bool
}

// Config parameterizes the switch.
type Config struct {
	// Ports is the link count per side (4 = the base "4x4" switch; 8
	// = the scaled design of Section 4.3).
	Ports int
	// SnoopPorts is the number of directory lookups per cycle (the
	// 2-way multiported SRAM). 0 disables snooping entirely.
	SnoopPorts int
	// Snoop is the directory hook, called once per header flit when a
	// directory port is available.
	Snoop func(*mesg.Message) Verdict
}

// vcFIFO is one input virtual channel.
type vcFIFO struct {
	q []Flit
	// lockedOut is the wormhole output allocation: once a head is
	// granted, every following flit of the message uses it until the
	// tail passes. -1 when free.
	lockedOut int
	// sinking drains the current message without an output.
	sinking bool
	// snooped marks that the head at the front has already been
	// presented to the directory.
	snooped bool
}

// outPort is one output link.
type outPort struct {
	// owner is the (in, vc) holding the wormhole allocation, or nil.
	owner *vcFIFO
	// pipeline holds granted flits until the switch core delay
	// elapses; the transmitter then serializes them onto the link.
	pipeline []timedFlit
	// linkFreeAt is when the transmitter can accept the next flit.
	linkFreeAt uint64
	// outbox holds flits on the wire; each becomes collectable when
	// its serialization completes.
	outbox []timedFlit
	// cscratch is Collect's reusable return buffer.
	cscratch []Flit
}

type timedFlit struct {
	f       Flit
	readyAt uint64
}

// Switch is one crossbar switch instance. Drive it by Offer-ing flits
// to input VCs and calling Tick once per 200MHz cycle; collect output
// with Collect.
type Switch struct {
	cfg Config
	in  [][]vcFIFO // [port][vc]
	out []outPort
	now uint64
	// snoopBudget is the per-cycle directory port count remaining.
	snoopBudget int
	// cands is arbitrate's reusable candidate buffer (per-Tick scratch).
	cands []candidate

	Stats Stats
}

// Stats counts switch events.
type Stats struct {
	Offered   uint64
	Refused   uint64 // backpressured offers
	Granted   uint64
	Sunk      uint64 // messages consumed by the directory
	Delivered uint64 // flits fully transmitted
	SnoopWait uint64 // header cycles stalled for a directory port
}

// New builds a switch.
func New(cfg Config) (*Switch, error) {
	if cfg.Ports <= 0 {
		return nil, fmt.Errorf("flit: ports must be positive")
	}
	s := &Switch{cfg: cfg, in: make([][]vcFIFO, cfg.Ports), out: make([]outPort, cfg.Ports)}
	for p := range s.in {
		s.in[p] = make([]vcFIFO, VCs)
		for v := range s.in[p] {
			s.in[p][v].lockedOut = -1
		}
	}
	for o := range s.out {
		s.out[o].owner = nil
	}
	return s, nil
}

// MustNew panics on error.
func MustNew(cfg Config) *Switch {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Credits reports free buffer slots of input (port, vc): the credit
// count the upstream transmitter is allowed to consume.
func (s *Switch) Credits(port, vc int) int {
	return BufFlits - len(s.in[port][vc].q)
}

// Offer presents one flit to input (port, vc). It returns false when
// the FIFO is full (the upstream must hold the flit — credit-based
// flow control).
func (s *Switch) Offer(port, vc int, f Flit) bool {
	s.Stats.Offered++
	fifo := &s.in[port][vc]
	if len(fifo.q) >= BufFlits {
		s.Stats.Refused++
		return false
	}
	fifo.q = append(fifo.q, f)
	return true
}

// Tick advances one cycle: arbitration, grant, core pipeline movement,
// and link transmission.
func (s *Switch) Tick() {
	s.now++
	s.snoopBudget = s.cfg.SnoopPorts
	s.arbitrate()
	s.transmit()
}

// candidate is one head-of-FIFO flit competing for an output.
type candidate struct {
	fifo *vcFIFO
	out  int
}

// arbitrate selects up to MaxGrants flits, oldest first.
func (s *Switch) arbitrate() {
	cands := s.cands[:0]
	for p := range s.in {
		for v := range s.in[p] {
			fifo := &s.in[p][v]
			if len(fifo.q) == 0 {
				continue
			}
			f := fifo.q[0]
			if f.Head && !fifo.sinking && fifo.lockedOut == -1 {
				// A new message: the directory must see the header
				// before the flit can be switched (processing runs in
				// parallel with the core, modeled as same-cycle here;
				// port contention delays it to a later cycle).
				if s.cfg.Snoop != nil && s.cfg.SnoopPorts > 0 && !fifo.snooped {
					if s.snoopBudget == 0 {
						s.Stats.SnoopWait++
						continue
					}
					s.snoopBudget--
					fifo.snooped = true
					if s.cfg.Snoop(f.Msg).Sink {
						fifo.sinking = true
						s.Stats.Sunk++
					}
				}
			}
			if fifo.sinking {
				// Drain without arbitration: the sink signal keeps the
				// flits away from the output transmitter.
				s.drainSunk(fifo)
				continue
			}
			out := fifo.lockedOut
			if out == -1 {
				out = f.out
			}
			cands = append(cands, candidate{fifo: fifo, out: out})
		}
	}
	// Oldest-first selection (stable across ports by scan order).
	for g := 0; g < MaxGrants && len(cands) > 0; {
		best := -1
		for i, c := range cands {
			if !s.outputAvailable(c) {
				continue
			}
			if best == -1 || c.fifo.q[0].Age < cands[best].fifo.q[0].Age {
				best = i
			}
		}
		if best == -1 {
			break
		}
		s.grant(cands[best])
		cands = append(cands[:best], cands[best+1:]...)
		g++
	}
	s.cands = cands[:0]
}

// outputAvailable reports whether c's output can accept its flit this
// cycle: the wormhole allocation must be free or owned by c.
func (s *Switch) outputAvailable(c candidate) bool {
	op := &s.out[c.out]
	return op.owner == nil || op.owner == c.fifo
}

// grant moves one flit into the output core pipeline.
func (s *Switch) grant(c candidate) {
	fifo := c.fifo
	f := fifo.q[0]
	fifo.q = popFront(fifo.q)
	s.Stats.Granted++
	op := &s.out[c.out]
	if f.Head {
		op.owner = fifo
		fifo.lockedOut = c.out
		fifo.snooped = false
	}
	op.pipeline = append(op.pipeline, timedFlit{f: f, readyAt: s.now + CoreCycles})
	if f.Tail {
		op.owner = nil
		fifo.lockedOut = -1
	}
}

// drainSunk consumes flits of a sunk message; the tail clears the
// sinking state.
func (s *Switch) drainSunk(fifo *vcFIFO) {
	f := fifo.q[0]
	fifo.q = popFront(fifo.q)
	if f.Tail {
		fifo.sinking = false
		fifo.snooped = false
	}
}

// transmit moves core-pipeline flits onto the serial links.
func (s *Switch) transmit() {
	for o := range s.out {
		op := &s.out[o]
		for len(op.pipeline) > 0 {
			tf := op.pipeline[0]
			if tf.readyAt > s.now {
				break
			}
			start := s.now
			if op.linkFreeAt > start {
				break // link busy this cycle; retry next Tick
			}
			op.linkFreeAt = start + LinkCyclesPerFlit
			op.pipeline = popFront(op.pipeline)
			// The flit finishes serializing LinkCyclesPerFlit later.
			op.outbox = append(op.outbox, timedFlit{f: tf.f, readyAt: start + LinkCyclesPerFlit})
			s.Stats.Delivered++
		}
	}
}

// Collect drains flits whose serialization has completed at output out.
// The returned slice is valid until the next Collect on the same
// output; callers consume it before ticking again.
func (s *Switch) Collect(out int) []Flit {
	op := &s.out[out]
	fs := op.cscratch[:0]
	n := 0
	for _, tf := range op.outbox {
		if tf.readyAt <= s.now {
			fs = append(fs, tf.f)
			n++
		} else {
			break
		}
	}
	copy(op.outbox, op.outbox[n:])
	op.outbox = op.outbox[:len(op.outbox)-n]
	op.cscratch = fs
	return fs
}

// Now reports the switch-local cycle count.
func (s *Switch) Now() uint64 { return s.now }

// Idle reports whether no flits remain anywhere in the switch.
func (s *Switch) Idle() bool {
	for p := range s.in {
		for v := range s.in[p] {
			if len(s.in[p][v].q) > 0 {
				return false
			}
		}
	}
	for o := range s.out {
		if len(s.out[o].pipeline) > 0 || len(s.out[o].outbox) > 0 {
			return false
		}
	}
	return true
}
