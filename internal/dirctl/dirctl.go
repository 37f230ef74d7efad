// Package dirctl implements one node's home memory module: the DRAM
// array (block versions), the full-map three-state directory
// (UNCACHED / SHARED / MODIFIED with a sharer bit vector), the
// directory controller with its occupancy and pending queue, and the
// home-side protocol of Section 3.2 — including the minor modification
// the paper requires: handling *marked* writeback and copyback
// messages generated when a switch directory intercepted the
// transaction, which carry the requester pid so the full map can be
// restored without the home ever seeing the original read.
package dirctl

import (
	"fmt"
	"slices"

	"dresar/internal/check"
	"dresar/internal/mesg"
	"dresar/internal/sim"
)

// DirState is the home directory state of one block.
type DirState uint8

const (
	// Uncached blocks live only in memory.
	Uncached DirState = iota
	// SharedSt blocks have clean copies at the sharers.
	SharedSt
	// ModifiedSt blocks are dirty in exactly one cache.
	ModifiedSt
)

func (s DirState) String() string {
	switch s {
	case Uncached:
		return "U"
	case SharedSt:
		return "S"
	case ModifiedSt:
		return "M"
	}
	return fmt.Sprintf("DirState(%d)", uint8(s))
}

// Config parameterizes the controller (Table 2 defaults).
type Config struct {
	// DRAMCycles is the directory lookup + memory access time.
	DRAMCycles sim.Cycle
	// OccCycles is the controller occupancy charged per serviced
	// message beyond the DRAM time.
	OccCycles sim.Cycle
	// PendingCap bounds the per-block pending queue; overflow requests
	// receive a Retry.
	PendingCap int
}

// DefaultConfig returns Table 2's memory parameters.
func DefaultConfig() Config {
	return Config{DRAMCycles: 40, OccCycles: 6, PendingCap: 16}
}

// Stats counts home-node protocol events. HomeCtoCForwards is the
// paper's Figure 8 metric: cache-to-cache transfers serviced through
// the home node.
type Stats struct {
	Reads            uint64 // ReadReqs serviced (not retried/queued)
	ReadsClean       uint64 // served directly from memory
	Writes           uint64 // WriteReqs serviced
	HomeCtoCForwards uint64 // CtoCReqs the home forwarded to owners
	Invalidations    uint64 // Inval messages sent
	Retries          uint64 // Retry/Nack messages sent
	WriteBacks       uint64
	CopyBacks        uint64
	MarkedWB         uint64 // marked writebacks/copybacks (switch-dir assisted)
	DupRequests      uint64 // requests dropped as duplicates of completed transactions
	Redrives         uint64 // stalled forwards re-processed after a marked message
	BusyCycles       uint64 // controller occupancy
	PendingPeak      int
}

// block is one block's directory record plus its memory version. It
// is a value in the controller's blocks arena, found through dir; the
// payload that matters only while the home works on the block lives in
// an activity record, and its completed transactions in doneRings.
// Node IDs are stored in 32 bits (machines have at most 1024 nodes).
type block struct {
	version uint64
	sharers mesg.NodeSet
	owner   int32
	// busyReq is the requester of the transaction that set busy.
	busyReq  int32
	acksLeft int32
	// strayAcks counts invalidations sent outside an ownership
	// transaction (purging stale fills); their acks are absorbed.
	strayAcks int32
	// act is the block's activity record as an index into acts plus
	// one; 0 means none.
	act   uint32
	state DirState
	// busy marks an outstanding home-mediated transaction; busyWrite
	// says it is an ownership transaction.
	busy, busyWrite bool
}

// activity is the part of a block's record that matters only while
// the home has work in hand for the block: a forwarded request it may
// re-drive, parked requests, held writeback acknowledgments. It is
// taken from acts when that work starts and returned, cleared, when a
// service leaves it empty, so idle blocks keep no message reachable.
type activity struct {
	// busyMsg is the original request of a forwarded (CtoC) busy
	// transaction, kept so the home can re-drive it if a switch
	// directory sinks the forward (Section 3.2: "the directory
	// controller can serve any requests held ... for the block").
	busyMsg *mesg.Message
	// pending holds the requests parked on the busy block, oldest
	// first; during a shared write's invalidation phase its head is
	// that write.
	pending []*mesg.Message
	// deferredAcks holds WBAck destinations for writebacks that
	// arrived while the block was busy: acknowledging immediately
	// would let the evictor release its victim-buffer entry while a
	// forwarded CtoC request still needs it.
	deferredAcks []*mesg.Message
}

// idle reports whether a holds nothing.
func (a *activity) idle() bool {
	return a.busyMsg == nil && len(a.pending) == 0 && len(a.deferredAcks) == 0
}

// pop removes and returns the oldest parked request. The vacated slot
// is cleared and an emptied queue drops its storage, so a request
// stays reachable from the queue only while it is parked there.
func (a *activity) pop() *mesg.Message {
	m := a.pending[0]
	a.pending[0] = nil
	a.pending = a.pending[1:]
	if len(a.pending) == 0 {
		a.pending = nil
	}
	return m
}

// arenaChunk is the number of elements in one arena chunk.
const arenaChunk = 32

// arena is a growable array of fixed-size chunks: an element never
// moves, so pointers into it stay valid as it grows, and at most one
// chunk's worth of elements is allocated but unused.
type arena[T any] struct {
	chunks []*[arenaChunk]T
	n      uint32
}

// add appends a zero element and returns its index.
func (a *arena[T]) add() uint32 {
	if a.n%arenaChunk == 0 {
		a.chunks = append(a.chunks, new([arenaChunk]T))
	}
	a.n++
	return a.n - 1
}

// at returns element i.
func (a *arena[T]) at(i uint32) *T { return &a.chunks[i/arenaChunk][i%arenaChunk] }

// doneTxDepth bounds the per-requester completed-transaction ring. A
// requester has at most two concurrent transactions per block (one
// read, one write), so a stale duplicate is always within a few
// completions of the present.
const doneTxDepth = 8

// doneRing holds the last doneTxDepth transactions completed for one
// (block, requester), newest last. The machine numbers a requester's
// transactions (requester+1)<<32 | sequence, so a ring stores each Tx
// as its low 32 bits and needs no high half; a Tx of any other form
// turns the ring wide (see Controller.wide). A new ring fills every
// slot with its first Tx, so a slot not yet written repeats the oldest
// recorded Tx and no value has to mean "unused".
type doneRing [doneTxDepth]uint32

// doneKey names requester's ring on the block whose record is blocks
// element blk.
func doneKey(blk uint32, requester int) uint64 { return uint64(blk)<<32 | uint64(uint32(requester)) }

// narrowTx reports whether tx has the machine's form for requester, so
// its low 32 bits identify it.
func narrowTx(requester int, tx uint64) bool { return tx>>32 == uint64(requester)+1 }

// markDone records the completion of requester's transaction tx on
// block blk.
func (c *Controller) markDone(blk uint32, requester int, tx uint64) {
	if tx == 0 {
		return
	}
	i, ok := c.done[doneKey(blk, requester)]
	if !ok {
		if c.done == nil {
			c.done = make(map[uint64]uint32)
		}
		i = c.rings.add()
		c.done[doneKey(blk, requester)] = i
		r := c.rings.at(i)
		for k := range r {
			r[k] = uint32(tx)
		}
		if !narrowTx(requester, tx) {
			w := c.widen(i, requester)
			for k := range w {
				w[k] = tx
			}
		}
		return
	}
	w := c.wide[i]
	if w == nil && !narrowTx(requester, tx) {
		w = c.widen(i, requester)
	}
	if w != nil {
		copy(w[:], w[1:])
		w[doneTxDepth-1] = tx
		return
	}
	r := c.rings.at(i)
	copy(r[:], r[1:])
	r[doneTxDepth-1] = uint32(tx)
}

// widen gives ring i, whose Tx so far all had the machine's form for
// requester, a full 64-bit copy in wide and returns it. Only a caller
// that numbers transactions some other way (a test driving the
// controller by hand) ever needs one.
func (c *Controller) widen(i uint32, requester int) *[doneTxDepth]uint64 {
	w := new([doneTxDepth]uint64)
	for k, lo := range c.rings.at(i) {
		w[k] = (uint64(requester)+1)<<32 | uint64(lo)
	}
	if c.wide == nil {
		c.wide = make(map[uint32]*[doneTxDepth]uint64)
	}
	c.wide[i] = w
	return w
}

// isDup reports whether m duplicates a transaction already completed
// on block blk.
func (c *Controller) isDup(blk uint32, m *mesg.Message) bool {
	if m.Tx == 0 {
		return false
	}
	i, ok := c.done[doneKey(blk, m.Requester)]
	if !ok {
		return false
	}
	if w := c.wide[i]; w != nil {
		for _, tx := range w {
			if tx == m.Tx {
				return true
			}
		}
		return false
	}
	if !narrowTx(m.Requester, m.Tx) {
		return false
	}
	for _, lo := range c.rings.at(i) {
		if lo == uint32(m.Tx) {
			return true
		}
	}
	return false
}

// Controller is one home node's directory controller.
type Controller struct {
	eng  *sim.Engine
	node int
	cfg  Config
	send func(*mesg.Message)

	// dir maps each block the home has served to its record in
	// blocks (nil until the first).
	dir    map[uint64]uint32
	blocks arena[block]
	// acts holds the activity records; freeActs lists the free ones
	// by index plus one.
	acts     []activity
	freeActs []uint32

	// done, rings and wide are the duplicate filter: done maps each
	// (block, requester) with a completed transaction, by doneKey, to
	// its ring in rings (nil until the first). A request carrying an
	// already-completed Tx is a duplicate (an NI retransmission whose
	// original got through, or a fault-injected copy), and re-running
	// the state machine for it could double-grant ownership; it is
	// dropped. A ring, not just the latest Tx, is kept because a
	// congested network can deliver a duplicate long after newer
	// transactions from the same requester have completed. wide holds
	// the full Tx of the rings (by index) that met a Tx not of the
	// machine's form; the machine never makes one. The rings hold no
	// pointer, so the collector never scans them.
	done  map[uint64]uint32
	rings arena[doneRing]
	wide  map[uint32]*[doneTxDepth]uint64

	// pool recycles Message structs (nil: plain heap allocation).
	// Handlers that retain the serviced message past process() — a
	// parked pending request, a busyMsg held for re-drive — set keep;
	// everything else is released when service completes.
	pool *mesg.Pool
	keep bool

	nextFree sim.Cycle
	Stats    Stats

	// Debug, when set, receives a line per protocol decision; used by
	// the deadlock/coherence diagnosis tests.
	Debug func(format string, args ...interface{})

	// Fail, when set, receives a structured *check.ProtocolError when a
	// message arrives that the home state machine cannot handle,
	// instead of panicking. The machine wires it to stop the run and
	// report the failing cycle, component, and message.
	Fail func(error)
}

// protoFail reports an unhandled message through Fail, or panics when
// no sink is installed (standalone controller use).
func (c *Controller) protoFail(op string, m *mesg.Message) {
	err := &check.ProtocolError{
		Cycle: c.eng.Now(), Where: fmt.Sprintf("home %d", c.node),
		Op: op, Msg: m.String(),
	}
	if c.Fail == nil {
		panic(err.Error())
	}
	c.Fail(err)
}

func (c *Controller) debugf(format string, args ...interface{}) {
	if c.Debug != nil {
		c.Debug(format, args...)
	}
}

// New builds the controller for home node id. send injects a message
// into the network from this node's memory interface.
func New(eng *sim.Engine, node int, cfg Config, send func(*mesg.Message)) *Controller {
	if cfg.DRAMCycles == 0 {
		cfg = DefaultConfig()
	}
	return &Controller{eng: eng, node: node, cfg: cfg, send: send}
}

// SetPool attaches a message freelist. Must not be enabled when an
// observer that retains message pointers is attached; core gates this.
func (c *Controller) SetPool(p *mesg.Pool) { c.pool = p }

// newMsg returns a pool-backed copy of v.
func (c *Controller) newMsg(v mesg.Message) *mesg.Message {
	m := c.pool.Get()
	*m = v
	return m
}

// ent returns the index of addr's record in blocks, starting one in
// the Uncached state if the home has not served the block before.
func (c *Controller) ent(addr uint64) uint32 {
	i, ok := c.dir[addr]
	if !ok {
		if c.dir == nil {
			c.dir = make(map[uint64]uint32)
		}
		i = c.blocks.add()
		c.dir[addr] = i
	}
	return i
}

// peek returns a copy of addr's record, or the zero (Uncached) record
// if the home has not served the block; it starts no record.
func (c *Controller) peek(addr uint64) block {
	if i, ok := c.dir[addr]; ok {
		return *c.blocks.at(i)
	}
	return block{}
}

// Version returns the memory version of a block (0 if never written
// back); used by tests and invariant checks.
func (c *Controller) Version(addr uint64) uint64 { return c.peek(addr).version }

// State returns a block's directory view, for invariant checks.
func (c *Controller) State(addr uint64) (DirState, int, mesg.NodeSet) {
	e := c.peek(addr)
	return e.state, int(e.owner), e.sharers
}

// Busy reports whether a home transaction is outstanding for addr.
func (c *Controller) Busy(addr uint64) bool { return c.peek(addr).busy }

// act returns e's activity record, taking a free one if e has none.
// The pointer is valid until the next act call for another block.
func (c *Controller) act(e *block) *activity {
	if e.act == 0 {
		if n := len(c.freeActs); n > 0 {
			e.act = c.freeActs[n-1]
			c.freeActs = c.freeActs[:n-1]
		} else {
			c.acts = append(c.acts, activity{})
			e.act = uint32(len(c.acts))
		}
	}
	return &c.acts[e.act-1]
}

// busyMsg returns the forwarded request e's busy transaction holds for
// re-drive, if any.
func (c *Controller) busyMsg(e *block) *mesg.Message {
	if e.act == 0 {
		return nil
	}
	return c.acts[e.act-1].busyMsg
}

// takeBusyMsg clears and returns e's held forwarded request, if any.
func (c *Controller) takeBusyMsg(e *block) *mesg.Message {
	m := c.busyMsg(e)
	if m != nil {
		c.acts[e.act-1].busyMsg = nil
	}
	return m
}

// tidy returns e's activity record to the free list once it holds
// nothing.
func (c *Controller) tidy(e *block) {
	if e.act != 0 && c.acts[e.act-1].idle() {
		c.acts[e.act-1] = activity{}
		c.freeActs = append(c.freeActs, e.act)
		e.act = 0
	}
}

// Handle accepts a message delivered to this memory interface. It
// serializes service through the controller (occupancy) and charges
// DRAM access time for operations that touch the directory array.
func (c *Controller) Handle(m *mesg.Message) {
	now := c.eng.Now()
	start := now
	if c.nextFree > start {
		start = c.nextFree
	}
	service := c.cfg.OccCycles + c.cfg.DRAMCycles
	c.nextFree = start + service
	c.Stats.BusyCycles += uint64(service)
	c.eng.AtEvent(start+service, c, 0, 0, m)
}

// OnEvent runs the deferred service of a queued message (sim.Actor).
func (c *Controller) OnEvent(_ int, _ uint64, data any) {
	c.process(data.(*mesg.Message))
}

// process applies the protocol once DRAM lookup completes.
func (c *Controller) process(m *mesg.Message) {
	if c.Debug != nil {
		e := c.blocks.at(c.ent(m.Addr))
		c.debugf("process %v | st=%v owner=%d sharers=%v busy=%v(w=%v req=%d acks=%d)",
			m, e.state, e.owner, e.sharers, e.busy, e.busyWrite, e.busyReq, e.acksLeft)
	}
	var handle func(*Controller, uint32, *mesg.Message)
	switch m.Kind {
	case mesg.ReadReq:
		handle = (*Controller).handleRead
	case mesg.WriteReq:
		handle = (*Controller).handleWrite
	case mesg.CopyBack:
		handle = (*Controller).handleCopyBack
	case mesg.WriteBack:
		handle = (*Controller).handleWriteBack
	case mesg.InvalAck:
		handle = (*Controller).handleInvalAck
	default:
		c.protoFail("unhandled message kind", m)
		return
	}
	blk := c.ent(m.Addr)
	c.keep = false
	handle(c, blk, m)
	e := c.blocks.at(blk)
	// Keep the pending queue moving: if the block ended this service
	// not busy, the next parked request gets its turn.
	c.drain(e)
	c.tidy(e)
	if !c.keep {
		// No handler stashed the message (pending queue, busyMsg): the
		// home was its final consumer.
		c.pool.Release(m)
	}
}

// queueOrRetry either parks a request on a busy block or bounces it.
func (c *Controller) queueOrRetry(e *block, m *mesg.Message) {
	if a := c.act(e); len(a.pending) < c.cfg.PendingCap {
		c.keep = true
		a.pending = append(a.pending, m)
		if len(a.pending) > c.Stats.PendingPeak {
			c.Stats.PendingPeak = len(a.pending)
		}
		return
	}
	c.Stats.Retries++
	c.send(c.newMsg(mesg.Message{
		Kind: mesg.Retry, Addr: m.Addr, Src: mesg.M(c.node), Dst: mesg.P(m.Requester),
		Requester: m.Requester, Issued: m.Issued, ForWrite: m.Kind == mesg.WriteReq,
	}))
}

func (c *Controller) handleRead(blk uint32, m *mesg.Message) {
	e := c.blocks.at(blk)
	if c.isDup(blk, m) {
		c.Stats.DupRequests++
		return
	}
	if e.busy {
		c.queueOrRetry(e, m)
		return
	}
	c.Stats.Reads++
	switch e.state {
	case Uncached, SharedSt:
		c.Stats.ReadsClean++
		e.state = SharedSt
		e.sharers.Add(m.Requester)
		c.markDone(blk, m.Requester, m.Tx)
		c.send(c.newMsg(mesg.Message{
			Kind: mesg.ReadReply, Addr: m.Addr, Src: mesg.M(c.node), Dst: mesg.P(m.Requester),
			Requester: m.Requester, Data: e.version, Issued: m.Issued,
		}))
	case ModifiedSt:
		// Forward to the owner; the block is busy until CopyBack.
		c.Stats.HomeCtoCForwards++
		c.keep = true
		e.busy, e.busyWrite, e.busyReq = true, false, int32(m.Requester)
		c.act(e).busyMsg = m
		c.send(c.newMsg(mesg.Message{
			Kind: mesg.CtoCReq, Addr: m.Addr, Src: mesg.M(c.node), Dst: mesg.P(int(e.owner)),
			Requester: m.Requester, Owner: int(e.owner), Issued: m.Issued,
		}))
	}
}

func (c *Controller) handleWrite(blk uint32, m *mesg.Message) {
	e := c.blocks.at(blk)
	if c.isDup(blk, m) {
		c.Stats.DupRequests++
		return
	}
	if e.busy {
		c.queueOrRetry(e, m)
		return
	}
	c.Stats.Writes++
	switch e.state {
	case Uncached:
		e.state, e.owner, e.sharers = ModifiedSt, int32(m.Requester), mesg.NodeSet{}
		c.markDone(blk, m.Requester, m.Tx)
		c.send(c.newMsg(mesg.Message{
			Kind: mesg.WriteReply, Addr: m.Addr, Src: mesg.M(c.node), Dst: mesg.P(m.Requester),
			Requester: m.Requester, Owner: m.Requester, Data: e.version, Issued: m.Issued,
		}))
	case SharedSt:
		// Invalidate every sharer except the requester, collect acks,
		// then grant ownership.
		targets := 0
		for _, p := range mesg.SharerList(e.sharers) {
			if p == m.Requester {
				continue
			}
			targets++
			c.Stats.Invalidations++
			c.send(c.newMsg(mesg.Message{
				Kind: mesg.Inval, Addr: m.Addr, Src: mesg.M(c.node), Dst: mesg.P(p),
				Requester: m.Requester,
			}))
		}
		if targets == 0 {
			e.state, e.owner, e.sharers = ModifiedSt, int32(m.Requester), mesg.NodeSet{}
			c.markDone(blk, m.Requester, m.Tx)
			c.send(c.newMsg(mesg.Message{
				Kind: mesg.WriteReply, Addr: m.Addr, Src: mesg.M(c.node), Dst: mesg.P(m.Requester),
				Requester: m.Requester, Owner: m.Requester, Data: e.version, Issued: m.Issued,
			}))
			return
		}
		e.busy, e.busyWrite, e.busyReq = true, true, int32(m.Requester)
		e.acksLeft = int32(targets)
		// The WriteReply is sent when the last InvalAck arrives; stash
		// the issue time by re-queueing a completion record.
		c.keep = true
		a := c.act(e)
		a.pending = append(a.pending, nil)
		copy(a.pending[1:], a.pending)
		a.pending[0] = m
	case ModifiedSt:
		// Ownership transfer through the current owner.
		c.Stats.HomeCtoCForwards++
		c.keep = true
		e.busy, e.busyWrite, e.busyReq = true, true, int32(m.Requester)
		c.act(e).busyMsg = m
		c.send(c.newMsg(mesg.Message{
			Kind: mesg.CtoCReq, Addr: m.Addr, Src: mesg.M(c.node), Dst: mesg.P(int(e.owner)),
			Requester: m.Requester, Owner: int(e.owner), ForWrite: true, Issued: m.Issued,
		}))
	}
}

// handleInvalAck counts acknowledgments for a busy shared-write
// transaction and completes it when all sharers have been purged.
func (c *Controller) handleInvalAck(blk uint32, m *mesg.Message) {
	e := c.blocks.at(blk)
	if e.strayAcks > 0 {
		e.strayAcks--
		return
	}
	if !e.busy || !e.busyWrite || e.acksLeft <= 0 {
		c.protoFail("stray InvalAck", m)
		return
	}
	e.acksLeft--
	if e.acksLeft > 0 {
		return
	}
	// The original WriteReq was stashed at the head of pending.
	orig := c.act(e).pop()
	e.state, e.owner, e.sharers = ModifiedSt, e.busyReq, mesg.NodeSet{}
	e.busy = false
	c.markDone(blk, int(e.busyReq), orig.Tx)
	c.send(c.newMsg(mesg.Message{
		Kind: mesg.WriteReply, Addr: m.Addr, Src: mesg.M(c.node), Dst: mesg.P(int(e.owner)),
		Requester: int(e.owner), Owner: int(e.owner), Data: e.version, Issued: orig.Issued,
	}))
	// The stashed WriteReq has served its purpose (Issued/Tx read above).
	c.pool.Release(orig)
	c.drain(e)
}

func (c *Controller) handleCopyBack(blk uint32, m *mesg.Message) {
	e := c.blocks.at(blk)
	c.Stats.CopyBacks++
	if m.NoData {
		// Transient-clear: a node bounced a marked CtoC request for a
		// block it no longer held. If the home's own forward was sunk
		// by that (now cleared) TRANSIENT entry, re-drive the stalled
		// transaction — the evictor's victim buffer is still pinned by
		// our deferred WBAck, so the retried forward will find data.
		c.redrive(e)
		return
	}
	preVersion := e.version
	e.bankVersion(m.Data)
	src := m.Src.Node
	if e.busy && !e.busyWrite && !m.Marked && m.Requester == int(e.busyReq) {
		// Completion of the home's own forwarded read transfer: the
		// old owner and the requester now share (prior sharers from
		// concurrent marked transfers remain valid).
		if e.state == ModifiedSt {
			e.state, e.sharers = SharedSt, mesg.NodeSet{}
		}
		e.sharers.Add(src)
		e.sharers.Add(int(e.busyReq))
		e.sharers.Or(m.Sharers)
		if orig := c.takeBusyMsg(e); orig != nil {
			c.markDone(blk, int(e.busyReq), orig.Tx)
			c.pool.Release(orig)
		}
		e.busy = false
		c.drain(e)
		return
	}
	if m.Marked {
		c.Stats.MarkedWB++
	}
	// Staleness rules (versions are commit-ordered):
	//   - data older than memory is provably outdated;
	//   - a copyback "from the owner" of a Modified block that does
	//     NOT carry data newer than memory was generated from the
	//     owner's earlier Shared copy, racing its own ownership grant
	//     (a genuine downgrade always carries the dirty version, which
	//     is strictly newer than memory);
	//   - a copyback from a non-owner of a Modified block serves data
	//     the owner is already overwriting.
	staleData := m.Data < preVersion
	ownerMismatch := e.state == ModifiedSt && int(e.owner) != src
	preGrant := e.state == ModifiedSt && int(e.owner) == src && m.Data <= preVersion
	if staleData || ownerMismatch || preGrant {
		// Purge every copy this transfer created. The current owner's
		// Modified copy is never purged — it holds the newest data.
		targets := append(mesg.SharerList(m.Sharers), m.Requester)
		if !(e.state == ModifiedSt && int(e.owner) == src) {
			targets = append(targets, src)
		}
		for _, p := range targets {
			e.strayAcks++
			c.Stats.Invalidations++
			c.send(c.newMsg(mesg.Message{
				Kind: mesg.Inval, Addr: m.Addr, Src: mesg.M(c.node), Dst: mesg.P(p),
				Requester: p,
			}))
		}
		// The marked message cleared the TRANSIENT switch entry that
		// may have sunk the home's own forward: re-drive it.
		if m.Marked {
			c.redrive(e)
		}
		return
	}
	// Fold the transfer's sharers into the map: the (former) owner —
	// the copyback's sender — keeps a shared copy, the requester(s)
	// gained one. (An Uncached block can receive an add-sharer note
	// from a switch cache whose entry outlived the last writeback.)
	if e.state == ModifiedSt {
		e.state = SharedSt
		e.sharers = mesg.NodeSetOf(int(e.owner))
	} else if e.state == Uncached {
		e.state, e.sharers = SharedSt, mesg.NodeSet{}
	}
	newSharers := mesg.NodeSetOf(m.Requester, src)
	newSharers.Or(m.Sharers)
	e.sharers.Or(newSharers)
	if e.busy {
		if e.busyWrite && e.acksLeft > 0 {
			// Invalidation phase of a pending write: the late sharers
			// must be purged before ownership is granted.
			for _, p := range mesg.SharerList(newSharers) {
				if p == int(e.busyReq) {
					continue
				}
				e.acksLeft++
				c.Stats.Invalidations++
				c.send(c.newMsg(mesg.Message{
					Kind: mesg.Inval, Addr: m.Addr, Src: mesg.M(c.node), Dst: mesg.P(p),
					Requester: p,
				}))
			}
			return
		}
		if m.Marked {
			// The home's forwarded read CtoC may have been sunk by the
			// TRANSIENT switch entry that produced this copyback.
			// Re-drive the stalled transaction against the fresh state;
			// a duplicate service is harmless (nodes drop duplicates).
			// Write forwards are never sunk, so they are never
			// re-driven: double-granting ownership would corrupt the
			// map while the requester completes via the owner's reply.
			c.redrive(e)
			return
		}
		return
	}
	c.drain(e)
}

func (c *Controller) handleWriteBack(blk uint32, m *mesg.Message) {
	e := c.blocks.at(blk)
	c.Stats.WriteBacks++
	if m.ForWrite {
		// Ownership-transfer completion travelling as a WriteBack-class
		// message: the new owner is the transaction requester. Memory
		// is not updated (the block stays dirty at the new owner). A
		// stale ack (transaction already re-driven) is dropped.
		if e.busy && e.busyWrite && e.acksLeft == 0 && m.Requester == int(e.busyReq) {
			// A concurrent switch-initiated transfer may have folded
			// sharers into the map while the forward was in flight;
			// purge their copies before granting exclusive ownership.
			for _, p := range mesg.SharerList(e.sharers) {
				if p == int(e.busyReq) || p == m.Src.Node {
					continue // the old owner already invalidated itself
				}
				e.strayAcks++
				c.Stats.Invalidations++
				c.send(c.newMsg(mesg.Message{
					Kind: mesg.Inval, Addr: m.Addr, Src: mesg.M(c.node), Dst: mesg.P(p),
					Requester: p,
				}))
			}
			e.state, e.owner, e.sharers = ModifiedSt, e.busyReq, mesg.NodeSet{}
			if orig := c.takeBusyMsg(e); orig != nil {
				c.markDone(blk, int(e.busyReq), orig.Tx)
				c.pool.Release(orig)
			}
			e.busy = false
			c.drain(e)
		}
		return
	}
	e.bankVersion(m.Data)
	ack := c.newMsg(mesg.Message{
		Kind: mesg.WBAck, Addr: m.Addr, Src: mesg.M(c.node), Dst: m.Src,
		Requester: m.Requester,
	})
	var newSharers mesg.NodeSet
	if m.Marked {
		// A replacement writeback that a switch directory used to serve
		// read(s) in TRANSIENT state: the carried requester(s) hold
		// shared copies now; the owner's copy is gone.
		c.Stats.MarkedWB++
		newSharers = mesg.NodeSetOf(m.Requester)
		newSharers.Or(m.Sharers)
		if (e.state == ModifiedSt && int(e.owner) != m.Src.Node) || m.Data < e.version {
			// Stale: ownership moved since, or the data predates
			// memory; purge the late readers. The marked writeback
			// still cleared TRANSIENT switch entries en route, so a
			// stalled forward must be re-driven.
			for _, p := range mesg.SharerList(newSharers) {
				e.strayAcks++
				c.Stats.Invalidations++
				c.send(c.newMsg(mesg.Message{
					Kind: mesg.Inval, Addr: m.Addr, Src: mesg.M(c.node), Dst: mesg.P(p),
					Requester: p,
				}))
			}
			c.send(ack)
			c.redrive(e)
			return
		}
		if e.state != SharedSt {
			e.state, e.sharers = SharedSt, mesg.NodeSet{}
		}
		e.sharers.Or(newSharers)
	} else if !e.busy && e.state == ModifiedSt && m.Src.Node == int(e.owner) {
		e.state, e.sharers = Uncached, mesg.NodeSet{}
	}
	if e.busy {
		if e.busyWrite && e.acksLeft > 0 {
			// Invalidation phase: late sharers from a marked writeback
			// must be purged before ownership is granted.
			for _, p := range mesg.SharerList(newSharers) {
				if p == int(e.busyReq) {
					continue
				}
				e.acksLeft++
				c.Stats.Invalidations++
				c.send(c.newMsg(mesg.Message{
					Kind: mesg.Inval, Addr: m.Addr, Src: mesg.M(c.node), Dst: mesg.P(p),
					Requester: p,
				}))
			}
			a := c.act(e)
			a.deferredAcks = append(a.deferredAcks, ack)
			return
		}
		if m.Marked && !e.busyWrite && c.busyMsg(e) != nil {
			// The home's forwarded read may have been sunk by the
			// TRANSIENT switch entry this writeback cleared, and the
			// owner has evicted: re-drive the stalled transaction.
			// (Write forwards are never sunk — see handleCopyBack.)
			c.send(ack)
			c.redrive(e)
			return
		}
		// A CtoC forward is in flight: the owner's victim buffer must
		// keep the data until that transfer completes, so hold the ack.
		a := c.act(e)
		a.deferredAcks = append(a.deferredAcks, ack)
		return
	}
	c.send(ack)
	c.drain(e)
}

// redrive re-processes a stalled forwarded transaction whose CtoC
// forward may have been sunk by the TRANSIENT switch entry that the
// just-processed marked message cleared. Only read forwards are ever
// sunk (write forwards pass through); duplicates are harmless.
// It reports whether a transaction was re-driven.
func (c *Controller) redrive(e *block) bool {
	if !e.busy || e.busyWrite {
		return false
	}
	orig := c.takeBusyMsg(e)
	if orig == nil {
		return false
	}
	e.busy = false
	c.Stats.Redrives++
	c.Handle(orig)
	return true
}

// bankVersion folds incoming data into memory. Versions are globally
// monotonic per block, so max() is the correct merge when a stale
// replacement writeback races a newer copyback.
func (e *block) bankVersion(v uint64) {
	if v > e.version {
		e.version = v
	}
}

// drain releases the writeback acknowledgments held while the block
// was busy and re-services the oldest pending request after a
// transaction completes. Further pending entries are re-examined as
// each one finishes (service may set busy again).
func (c *Controller) drain(e *block) {
	if e.busy || e.act == 0 {
		return
	}
	a := &c.acts[e.act-1]
	for _, ack := range a.deferredAcks {
		c.send(ack)
	}
	a.deferredAcks = nil
	if len(a.pending) == 0 {
		return
	}
	c.Handle(a.pop())
}

// ForEachBlock iterates directory entries for invariant checks, in
// ascending address order so callbacks observe a replayable sequence.
func (c *Controller) ForEachBlock(fn func(addr uint64, st DirState, owner int, sharers mesg.NodeSet, busy bool)) {
	addrs := make([]uint64, 0, len(c.dir))
	for a := range c.dir {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	for _, a := range addrs {
		e := c.peek(a)
		fn(a, e.state, int(e.owner), e.sharers, e.busy)
	}
}
