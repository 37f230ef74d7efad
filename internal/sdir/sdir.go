// Package sdir implements DRESAR, the DiRectory Embedded Switch
// ARchitecture of Sections 3 and 4: a small set-associative SRAM
// directory cache inside every crossbar switch that captures ownership
// information from passing write replies and re-routes subsequent read
// requests straight to the owner's cache, skipping the home node's
// DRAM directory, its controller occupancy, and the extra network
// hops.
//
// The per-block state machine is Figure 4: entries move between
// INVALID, MODIFIED (owner known) and TRANSIENT (a switch-initiated
// cache-to-cache transfer is in flight). Each switch's directory is a
// cache.Cache of 32-byte blocks whose Modified and Transient lines are
// the MODIFIED and TRANSIENT entries; the array never displaces a
// Transient line. Both of the paper's policies for reads that hit a
// TRANSIENT entry are implemented: bounce the requester with a Retry
// (the paper's choice, PolicyRetry) or accumulate requester pids in a
// bit vector and serve them from the copyback/writeback data
// (PolicyBitVector).
//
// Port contention is modeled after the hardware design: a 2-way
// multiported directory serves two snoops per cycle (four messages in
// the 4-cycle switch window); extra messages in the same cycle are
// delayed. The 8×8 design's pending buffer is supported: when enabled,
// transient-state-only message kinds (CtoC, CopyBack, WriteBack,
// Retry) consult the replication-cheap pending buffer and do not
// consume main-directory ports.
package sdir

import (
	"fmt"

	"dresar/internal/cache"
	"dresar/internal/check"
	"dresar/internal/mesg"
	"dresar/internal/sim"
	"dresar/internal/topo"
	"dresar/internal/xbar"
)

// Policy selects the read-in-TRANSIENT behaviour.
type Policy uint8

const (
	// PolicyRetry bounces a read that hits a TRANSIENT entry back to
	// the requester (the paper's design choice: communication
	// intensive blocks have few sharers).
	PolicyRetry Policy = iota
	// PolicyBitVector records the requester in the entry's bit vector;
	// the requesters are served from the copyback or writeback data
	// when it passes the switch.
	PolicyBitVector
)

func (p Policy) String() string {
	if p == PolicyRetry {
		return "retry"
	}
	return "bitvector"
}

// EntryState is the Figure 4 per-block switch-directory state.
type EntryState uint8

const (
	// Inv means not present.
	Inv EntryState = iota
	// Mod means the block is dirty at Owner.
	Mod
	// Trans means this switch initiated a CtoC transfer and awaits the
	// copyback/writeback.
	Trans
)

func (s EntryState) String() string {
	switch s {
	case Inv:
		return "INVALID"
	case Mod:
		return "MODIFIED"
	case Trans:
		return "TRANSIENT"
	}
	return fmt.Sprintf("EntryState(%d)", uint8(s))
}

// Config parameterizes every switch directory in the fabric.
type Config struct {
	// Entries is the total entry count per switch (256–2048 in the
	// evaluation; 0 disables the directory entirely).
	Entries int
	// Ways is the set associativity (4 in the evaluation).
	Ways int
	// Policy is the read-in-TRANSIENT policy.
	Policy Policy
	// PendingEntries enables the 8×8 design's pending buffer: a small
	// multiported store for TRANSIENT blocks (8–16 entries). 0 keeps
	// every lookup on the main array. When enabled, TRANSIENT blocks
	// live in the pending buffer and transient-only message kinds do
	// not consume main-directory ports.
	PendingEntries int
	// StageMask selects which BMIN stages carry directories: bit s set
	// means stage s participates. 0 means all stages.
	StageMask uint
}

// Validate reports why New would reject cfg's geometry: the entries
// must be a cache the size of that many blocks.
func (cfg Config) Validate() error {
	if cfg.Entries == 0 {
		return fmt.Errorf("sdir: zero entries; omit the snooper instead")
	}
	if err := cfg.array().Validate(); err != nil {
		return fmt.Errorf("sdir: %w", err)
	}
	return nil
}

// array is one switch's directory, of the machine's 32-byte blocks.
func (cfg Config) array() cache.Config {
	return cache.Config{SizeBytes: cfg.Entries * 32, Ways: cfg.Ways, BlockBytes: 32}
}

// DefaultConfig returns the evaluation's 1K-entry 4-way configuration.
func DefaultConfig() Config {
	return Config{Entries: 1024, Ways: 4, Policy: PolicyRetry}
}

// Stats aggregates switch-directory counters. Each switch's directory
// keeps its own instance; TotalStats folds them into the fabric-wide
// roll-up the figures read.
type Stats struct {
	Inserts        uint64 // entries created by write replies
	Hits           uint64 // reads intercepted in MODIFIED state
	LeafHits       uint64 // interceptions at stage 0 (intra-cluster)
	TopHits        uint64 // interceptions at stage 1 (memory side)
	TransientHits  uint64 // reads arriving in TRANSIENT state
	RetriesSent    uint64
	BitVectorAdds  uint64
	ServedFromCB   uint64 // bit-vector requesters served from copyback data
	ServedFromWB   uint64 // requesters served from writeback data (TRANSIENT)
	WriteNacks     uint64 // writes bounced in TRANSIENT state
	CtoCSunk       uint64 // home CtoC requests sunk in TRANSIENT state
	Invalidates    uint64 // entries killed by writes/writebacks/copybacks
	Evictions      uint64 // entries displaced by inserts
	InsertBlocked  uint64 // inserts abandoned (set full of TRANSIENT)
	PendingFull    uint64 // interceptions abandoned (pending buffer full)
	PortDelayTotal uint64 // cycles of directory-port contention charged
	Bypassed       uint64 // snoops skipped at disabled (faulty) directories

	// Switch-loss accounting (FailOrdinal): a killed switch takes its
	// directory SRAM with it.
	EntriesLost   uint64 // live entries destroyed by switch failures
	PendingLost   uint64 // TRANSIENT entries (pending transfers) destroyed
	HomeFallbacks uint64 // intercepted requesters re-homed after a switch loss
}

// add folds o into s.
func (s *Stats) add(o *Stats) {
	s.Inserts += o.Inserts
	s.Hits += o.Hits
	s.LeafHits += o.LeafHits
	s.TopHits += o.TopHits
	s.TransientHits += o.TransientHits
	s.RetriesSent += o.RetriesSent
	s.BitVectorAdds += o.BitVectorAdds
	s.ServedFromCB += o.ServedFromCB
	s.ServedFromWB += o.ServedFromWB
	s.WriteNacks += o.WriteNacks
	s.CtoCSunk += o.CtoCSunk
	s.Invalidates += o.Invalidates
	s.Evictions += o.Evictions
	s.InsertBlocked += o.InsertBlocked
	s.PendingFull += o.PendingFull
	s.PortDelayTotal += o.PortDelayTotal
	s.Bypassed += o.Bypassed
	s.EntriesLost += o.EntriesLost
	s.PendingLost += o.PendingLost
	s.HomeFallbacks += o.HomeFallbacks
}

// snoopPorts is the directory lookups per cycle: Section 4.2's 2-way
// multiported SRAM.
const snoopPorts = 2

// word is a directory line's data word: the owner in its low 32 bits
// and, in a TRANSIENT line, the first intercepted requester in its
// high 32.
func word(owner, first int) uint64 { return uint64(uint32(owner)) | uint64(uint32(first))<<32 }

func ownerOf(data uint64) int { return int(uint32(data)) }
func firstOf(data uint64) int { return int(data >> 32) }

// dir is one switch's directory instance. Its array c holds a MODIFIED
// entry as a Modified line and a TRANSIENT entry as a Transient line,
// each with a word as its data, and holds no lines until the switch's
// first insert: on a big machine most switches never see a write
// reply.
type dir struct {
	c cache.Cache

	// extra holds, by block address, the requesters a TRANSIENT entry
	// intercepted after its first (PolicyBitVector only); nil until
	// the first such requester.
	extra map[uint64]mesg.NodeSet

	// port accounting: snoops already charged in the current cycle.
	portCycle sim.Cycle
	portUsed  int

	// pendingCount tracks resident TRANSIENT entries. The pending-
	// buffer mode bounds interceptions with it; the disabled-directory
	// drain path uses it to know when the last obligation resolved.
	pendingCount int

	// stats is this switch's share of the fabric roll-up.
	stats Stats
}

// Fabric implements xbar.Snooper for every switch in a topology.
type Fabric struct {
	cfg      Config
	tp       *topo.T
	dirs     []dir
	disabled []bool // per-switch faulty flag: bypassed, draining only
	failed   []bool // per-switch dead flag: bypassed entirely, state lost

	// Fail, when set, receives a structured *check.ProtocolError when a
	// message the directory state machine cannot handle reaches it,
	// instead of panicking (mirrors dirctl.Controller.Fail).
	Fail func(error)
}

// protoFail reports an unhandled snooped message through Fail, or
// panics when no sink is installed.
func (f *Fabric) protoFail(sw topo.SwitchID, m *mesg.Message) {
	err := &check.ProtocolError{
		Where: fmt.Sprintf("sdir %v", sw),
		Op:    "unhandled snooped message kind", Msg: m.String(),
	}
	if f.Fail == nil {
		panic(err.Error())
	}
	f.Fail(err)
}

// New builds the switch-directory fabric for tp. Every switch's array
// is a copy of one unbuilt cache, so until its first insert it holds
// no lines of its own.
func New(tp *topo.T, cfg Config) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := tp.NumSwitches()
	f := &Fabric{cfg: cfg, tp: tp, dirs: make([]dir, n), disabled: make([]bool, n), failed: make([]bool, n)}
	c := cache.MustNew(cfg.array())
	for i := range f.dirs {
		f.dirs[i].c = *c
	}
	return f, nil
}

// MustNew panics on error.
func MustNew(tp *topo.T, cfg Config) *Fabric {
	f, err := New(tp, cfg)
	if err != nil {
		panic(err)
	}
	return f
}

func (f *Fabric) active(sw topo.SwitchID) bool {
	if f.cfg.StageMask == 0 {
		return true
	}
	return f.cfg.StageMask&(1<<uint(sw.Stage)) != 0
}

// waiters lists a TRANSIENT entry's intercepted requesters in
// ascending order: the first, from its data word, plus any in the side
// table.
func (d *dir) waiters(addr, data uint64) []int {
	extra, ok := d.extra[addr]
	if !ok {
		return []int{firstOf(data)}
	}
	all := mesg.NodeSetOf(firstOf(data))
	all.Or(extra)
	return mesg.SharerList(all)
}

// chargePort models the 2-way multiported SRAM: the first snoopPorts
// lookups in a cycle are free; later ones wait.
func (f *Fabric) chargePort(d *dir, now sim.Cycle) sim.Cycle {
	if d.portCycle != now {
		d.portCycle = now
		d.portUsed = 0
	}
	d.portUsed++
	delay := sim.Cycle((d.portUsed - 1) / snoopPorts)
	d.stats.PortDelayTotal += uint64(delay)
	return delay
}

// transientOnly reports whether kind needs only the TRANSIENT check
// (serviceable by the pending buffer in the 8×8 design).
func transientOnly(k mesg.Kind) bool {
	switch k {
	case mesg.CtoCReq, mesg.CopyBack, mesg.WriteBack, mesg.Retry:
		return true
	case mesg.ReadReq, mesg.ReadReply, mesg.WriteReq, mesg.WriteReply,
		mesg.CtoCReply, mesg.Inval, mesg.InvalAck, mesg.WBAck, mesg.Nack:
		// Reads/writes/write-replies need full directory service; the
		// rest never reach a directory (SnoopsSwitchDir is false).
		return false
	}
	return false
}

// Snoop implements xbar.Snooper: the heart of the DRESAR protocol.
// Kinds outside Table 1 bypass the directory entirely.
//
// A directory flagged faulty (DisableOrdinal) is bypassed: it inserts
// nothing, intercepts nothing, and charges no port contention, so all
// traffic through the switch falls back to the base home protocol.
// The only messages it still processes are the TRANSIENT-draining
// kinds (CtoCReq, CopyBack, WriteBack, Retry), so transfers the
// directory initiated before the fault resolve their obligations
// instead of orphaning their waiting requesters.
func (f *Fabric) Snoop(sw topo.SwitchID, m *mesg.Message, now sim.Cycle) xbar.Action {
	if !m.Kind.SnoopsSwitchDir() || !f.active(sw) {
		return xbar.Action{}
	}
	ord := f.tp.SwitchOrdinal(sw)
	d := &f.dirs[ord]
	if f.failed[ord] {
		// A dead switch has no directory left at all: nothing to drain,
		// nothing to intercept. (The xbar also stops snooping at dead
		// switches; this guard covers fabrics driven without one.)
		d.stats.Bypassed++
		return xbar.Action{}
	}
	if f.disabled[ord] {
		d.stats.Bypassed++
		if !transientOnly(m.Kind) || d.pendingCount == 0 {
			return xbar.Action{}
		}
		return f.process(d, sw, m)
	}
	var delay sim.Cycle
	if f.cfg.PendingEntries == 0 || !transientOnly(m.Kind) {
		delay = f.chargePort(d, now)
	}
	act := f.process(d, sw, m)
	act.ExtraDelay += delay
	return act
}

func (f *Fabric) process(d *dir, sw topo.SwitchID, m *mesg.Message) xbar.Action {
	switch m.Kind {
	case mesg.WriteReply:
		f.insert(d, m)
		return xbar.Action{}
	case mesg.ReadReq:
		return f.readReq(d, sw, m)
	case mesg.WriteReq:
		return f.writeReq(d, m)
	case mesg.CtoCReq:
		return f.ctocReq(d, m)
	case mesg.CopyBack:
		return f.copyBack(d, m)
	case mesg.WriteBack:
		return f.writeBack(d, m)
	case mesg.Retry:
		return f.retry(d, m)
	case mesg.ReadReply, mesg.CtoCReply, mesg.Inval, mesg.InvalAck,
		mesg.WBAck, mesg.Nack:
		// Unreachable: Snoop admits only SnoopsSwitchDir kinds. Listed
		// so a new snoopable kind fails kindswitch until it is wired in.
		f.protoFail(sw, m)
		return xbar.Action{}
	}
	return xbar.Action{}
}

// insert records ownership from a passing write reply (home → writer).
func (f *Fabric) insert(d *dir, m *mesg.Message) {
	st, _ := d.c.Probe(m.Addr)
	if st == cache.Transient {
		// An in-flight transfer still owns this entry; do not clobber
		// its obligations. (Rare: the home granted new ownership while
		// our copyback is still travelling.)
		d.stats.InsertBlocked++
		return
	}
	switch v, had := d.c.Insert(m.Addr, cache.Modified, word(m.Requester, 0)); {
	case st == cache.Modified:
		// Updated in place: a new owner, not a new entry.
	case !had:
		d.stats.Inserts++
	case v.Addr == m.Addr:
		// Every way of the set is TRANSIENT: nothing was placed.
		d.stats.InsertBlocked++
	default:
		d.stats.Evictions++
		d.stats.Inserts++
	}
}

// readReq intercepts reads to blocks with known dirty owners.
func (f *Fabric) readReq(d *dir, sw topo.SwitchID, m *mesg.Message) xbar.Action {
	st, data := d.c.Probe(m.Addr)
	switch st {
	case cache.Invalid, cache.Shared:
		// Not present: the read passes.
	case cache.Modified:
		// Re-route: sink the read, fire a marked CtoC request at the
		// owner, go TRANSIENT until the copyback passes.
		if f.cfg.PendingEntries > 0 && d.pendingCount >= f.cfg.PendingEntries {
			d.stats.PendingFull++
			return xbar.Action{} // no room to track: let the home serve it
		}
		d.stats.Hits++
		if sw.Stage == 0 {
			d.stats.LeafHits++
		} else {
			d.stats.TopHits++
		}
		o := ownerOf(data)
		d.c.Insert(m.Addr, cache.Transient, word(o, m.Requester))
		d.pendingCount++
		return xbar.Action{
			Sink: true,
			Generated: []*mesg.Message{{
				Kind: mesg.CtoCReq, Addr: m.Addr, Src: m.Src, Dst: mesg.P(o),
				Requester: m.Requester, Owner: o, Marked: true, Issued: m.Issued,
			}},
		}
	case cache.Transient:
		d.stats.TransientHits++
		if f.cfg.Policy == PolicyBitVector {
			if p, extra := m.Requester, d.extra[m.Addr]; p != firstOf(data) && !extra.Has(p) {
				d.stats.BitVectorAdds++
				extra.Add(p)
				if d.extra == nil {
					d.extra = make(map[uint64]mesg.NodeSet)
				}
				d.extra[m.Addr] = extra
			}
			return xbar.Action{Sink: true}
		}
		d.stats.RetriesSent++
		return xbar.Action{
			Sink: true,
			Generated: []*mesg.Message{{
				Kind: mesg.Retry, Addr: m.Addr, Src: m.Src, Dst: mesg.P(m.Requester),
				Requester: m.Requester, Marked: true, Issued: m.Issued,
			}},
		}
	}
	return xbar.Action{}
}

// writeReq invalidates MODIFIED entries; in TRANSIENT the write is
// bounced so the in-flight transfer can finish.
func (f *Fabric) writeReq(d *dir, m *mesg.Message) xbar.Action {
	switch st, _ := d.c.Probe(m.Addr); st {
	case cache.Invalid, cache.Shared:
		// Not present: the write passes.
	case cache.Modified:
		d.stats.Invalidates++
		d.c.Invalidate(m.Addr)
	case cache.Transient:
		d.stats.WriteNacks++
		return xbar.Action{
			Sink: true,
			Generated: []*mesg.Message{{
				Kind: mesg.Nack, Addr: m.Addr, Src: m.Src, Dst: mesg.P(m.Requester),
				Requester: m.Requester, ForWrite: true, Marked: true, Issued: m.Issued,
			}},
		}
	}
	return xbar.Action{}
}

// ctocReq handles home-forwarded (or foreign-switch) transfer requests
// travelling the backward path.
func (f *Fabric) ctocReq(d *dir, m *mesg.Message) xbar.Action {
	switch st, _ := d.c.Probe(m.Addr); st {
	case cache.Invalid, cache.Shared:
		// Not present: the request passes.
	case cache.Modified:
		// The transfer will move/downgrade the owner; our entry is stale.
		d.stats.Invalidates++
		d.c.Invalidate(m.Addr)
	case cache.Transient:
		if m.ForWrite {
			// An ownership transfer must reach the owner: the writer
			// completes through the owner's CtoC reply, and sinking
			// the forward would orphan the home's record of the new
			// owner. The owner resolves the interleaving with our
			// in-flight read transfer either way (serving from S, or
			// bouncing with a NoData copyback that clears this entry).
			return xbar.Action{}
		}
		// A read transfer is already in flight from this switch; the
		// home's pending read completes via the marked copyback (the
		// home controller re-drives its stalled request then).
		d.stats.CtoCSunk++
		return xbar.Action{Sink: true}
	}
	return xbar.Action{}
}

// release drops the entry for addr, if any. A MODIFIED entry counts
// as invalidated; a TRANSIENT one ends its tracking and returns its
// waiting requesters.
func (d *dir) release(addr uint64) []int {
	st, data, ok := d.c.Invalidate(addr)
	if !ok {
		return nil
	}
	if st != cache.Transient {
		d.stats.Invalidates++
		return nil
	}
	waiters := d.waiters(addr, data)
	d.pendingCount--
	delete(d.extra, addr)
	return waiters
}

// copyBack observes the data returning home and drops the block's
// entry. A TRANSIENT entry's extra bit-vector requesters are served
// straight from the copyback data with marked replies, and their pids
// ride home on the message's sharer vector.
func (f *Fabric) copyBack(d *dir, m *mesg.Message) xbar.Action {
	waiters := d.release(m.Addr)
	var gen []*mesg.Message
	if m.NoData {
		// Transient-clear from a node that could not serve a marked
		// CtoC request: bounce every waiting requester back to the
		// home. (A MODIFIED entry naming that node is stale too, and
		// is dropped all the same.)
		for _, p := range waiters {
			d.stats.RetriesSent++
			gen = append(gen, &mesg.Message{
				Kind: mesg.Retry, Addr: m.Addr, Src: m.Src, Dst: mesg.P(p),
				Requester: p, Marked: true,
			})
		}
		return xbar.Action{Generated: gen}
	}
	for _, p := range waiters {
		if p == m.Requester {
			continue // served by the owner's CtoC reply
		}
		d.stats.ServedFromCB++
		m.AddSharer(p)
		gen = append(gen, &mesg.Message{
			Kind: mesg.ReadReply, Addr: m.Addr, Src: m.Src, Dst: mesg.P(p),
			Requester: p, Data: m.Data, Marked: true,
		})
	}
	return xbar.Action{Generated: gen}
}

// writeBack invalidates MODIFIED entries. In TRANSIENT state the
// owner replaced the line before our CtoC request arrived: serve the
// waiting requesters from the writeback data, mark the message and
// attach the requester pid so the home's map stays exact (Section 3.2).
func (f *Fabric) writeBack(d *dir, m *mesg.Message) xbar.Action {
	if m.ForWrite {
		// Ownership-transfer ack: carries no data and is not a real
		// replacement; invalidate any stale MODIFIED entry and pass.
		if st, _ := d.c.Probe(m.Addr); st == cache.Modified {
			d.stats.Invalidates++
			d.c.Invalidate(m.Addr)
		}
		return xbar.Action{}
	}
	var gen []*mesg.Message
	for i, p := range d.release(m.Addr) {
		d.stats.ServedFromWB++
		if i == 0 {
			m.Marked = true
			m.Requester = p
		} else {
			m.AddSharer(p)
		}
		gen = append(gen, &mesg.Message{
			Kind: mesg.ReadReply, Addr: m.Addr, Src: m.Src, Dst: mesg.P(p),
			Requester: p, Data: m.Data, Marked: true,
		})
	}
	return xbar.Action{Generated: gen}
}

// retry re-routes a passing retry to all waiting bit-vector
// requesters so none of them hangs.
func (f *Fabric) retry(d *dir, m *mesg.Message) xbar.Action {
	st, data := d.c.Probe(m.Addr)
	if st != cache.Transient || f.cfg.Policy != PolicyBitVector {
		return xbar.Action{}
	}
	var gen []*mesg.Message
	for _, p := range d.waiters(m.Addr, data) {
		if p == m.Requester {
			continue
		}
		gen = append(gen, &mesg.Message{
			Kind: mesg.Retry, Addr: m.Addr, Src: m.Src, Dst: mesg.P(p),
			Requester: p, Marked: true,
		})
	}
	return xbar.Action{Generated: gen}
}

// TotalStats folds every switch's counters into the fabric-wide
// roll-up.
func (f *Fabric) TotalStats() Stats {
	var s Stats
	for i := range f.dirs {
		s.add(&f.dirs[i].stats)
	}
	return s
}

// Lookup exposes a switch's entry state for tests and invariants.
func (f *Fabric) Lookup(sw topo.SwitchID, addr uint64) (EntryState, int, mesg.NodeSet) {
	d := &f.dirs[f.tp.SwitchOrdinal(sw)]
	switch st, data := d.c.Probe(addr); st {
	case cache.Invalid, cache.Shared:
		// Not present.
	case cache.Modified:
		return Mod, ownerOf(data), mesg.NodeSet{}
	case cache.Transient:
		return Trans, ownerOf(data), mesg.NodeSetOf(d.waiters(addr, data)...)
	}
	return Inv, 0, mesg.NodeSet{}
}

// DisableOrdinal flags the directory of the switch with ordinal i
// faulty: it is bypassed from now on (see Snoop) and its MODIFIED
// entries are discarded — stale optimization state a faulty array
// cannot be trusted to hold. TRANSIENT entries survive so their
// in-flight transfers drain.
func (f *Fabric) DisableOrdinal(i int) {
	if f.disabled[i] {
		return
	}
	f.disabled[i] = true
	c := &f.dirs[i].c
	c.Lines(func(addr uint64, st cache.State, _ uint64) {
		if st == cache.Modified {
			c.Invalidate(addr)
		}
	})
}

// FailSwitch models whole-switch death (as opposed to DisableOrdinal's
// graceful degradation): the directory SRAM is gone, so every entry —
// including TRANSIENT ones and their pending-buffer state — is
// invalidated and the directory never processes another snoop.
// Requesters whose transfers were intercepted here are orphaned with
// the entry; they recover by retransmitting to the home node (the NI
// timeout path), which remains the fallback authority. The loss is
// tallied in Stats: EntriesLost, PendingLost, and one HomeFallback per
// requester recorded in a lost TRANSIENT entry's bit vector.
func (f *Fabric) FailSwitch(sw topo.SwitchID) { f.FailOrdinal(f.tp.SwitchOrdinal(sw)) }

// FailOrdinal is FailSwitch by switch ordinal (fault-plan addressing).
func (f *Fabric) FailOrdinal(i int) {
	if f.failed[i] {
		return
	}
	f.failed[i] = true
	f.disabled[i] = true
	d := &f.dirs[i]
	d.c.Lines(func(addr uint64, st cache.State, data uint64) {
		d.stats.EntriesLost++
		if st == cache.Transient {
			d.stats.PendingLost++
			d.stats.HomeFallbacks += uint64(len(d.waiters(addr, data)))
		}
		d.c.Invalidate(addr)
	})
	d.extra = nil
	d.pendingCount = 0
}

// Failed reports whether a switch's directory died with its switch.
func (f *Fabric) Failed(sw topo.SwitchID) bool { return f.failed[f.tp.SwitchOrdinal(sw)] }

// DisableAll flags every switch directory faulty, degrading the whole
// machine to the base home protocol.
func (f *Fabric) DisableAll() {
	for i := range f.dirs {
		f.DisableOrdinal(i)
	}
}

// DirCount reports the number of switch directories in the fabric
// (fault plans pick disable targets by ordinal in [0, DirCount)).
func (f *Fabric) DirCount() int { return len(f.dirs) }

// Disabled reports whether a switch's directory is flagged faulty.
func (f *Fabric) Disabled(sw topo.SwitchID) bool { return f.disabled[f.tp.SwitchOrdinal(sw)] }

// DisabledCount reports how many switch directories are flagged faulty.
func (f *Fabric) DisabledCount() int {
	n := 0
	for _, d := range f.disabled {
		if d {
			n++
		}
	}
	return n
}

// modEntry walks the live MODIFIED entries across enabled switches in
// deterministic (ordinal, set, way) order. It returns their count and,
// when there are more than k, the k-th's array, block and data word.
func (f *Fabric) modEntry(k int) (c *cache.Cache, addr, data uint64, n int) {
	for i := range f.dirs {
		if f.disabled[i] {
			continue
		}
		arr := &f.dirs[i].c
		arr.Lines(func(b uint64, st cache.State, v uint64) {
			if st == cache.Modified {
				if n == k {
					c, addr, data = arr, b, v
				}
				n++
			}
		})
	}
	return c, addr, data, n
}

// CorruptRandom flips one pseudo-randomly chosen MODIFIED entry's
// owner to a different node, modeling a soft error in the directory
// SRAM. The next read intercepted through the entry fires a marked
// CtoC request at a non-owner, exercising the NoData-copyback
// recovery path end to end. Reports whether an entry was corrupted.
func (f *Fabric) CorruptRandom(rng *sim.RNG, nodes int) bool {
	_, _, _, n := f.modEntry(-1)
	if n == 0 || nodes < 2 {
		return false
	}
	c, addr, data, _ := f.modEntry(rng.Intn(n))
	c.SetData(addr, word((ownerOf(data)+1+rng.Intn(nodes-1))%nodes, 0))
	return true
}

// EvictRandom invalidates one pseudo-randomly chosen MODIFIED entry,
// modeling a lost or scrubbed line. Purely an optimization loss: the
// next read falls through to the home. Reports whether an entry was
// evicted.
func (f *Fabric) EvictRandom(rng *sim.RNG) bool {
	_, _, _, n := f.modEntry(-1)
	if n == 0 {
		return false
	}
	c, addr, _, _ := f.modEntry(rng.Intn(n))
	c.Invalidate(addr)
	return true
}

// TransientCount reports resident TRANSIENT entries at a switch.
func (f *Fabric) TransientCount(sw topo.SwitchID) int {
	return f.dirs[f.tp.SwitchOrdinal(sw)].pendingCount
}
