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
	"sort"

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

// entry is one block's directory record plus its memory version.
type entry struct {
	state   DirState
	owner   int
	sharers mesg.NodeSet
	version uint64

	// busy marks an outstanding home-mediated transaction.
	busy bool
	// busyWrite/busyReq describe the transaction that set busy.
	busyWrite bool
	busyReq   int
	// busyMsg is the original request of a forwarded (CtoC) busy
	// transaction, kept so the home can re-drive it if a switch
	// directory sinks the forward (Section 3.2: "the directory
	// controller can serve any requests held ... for the block").
	busyMsg  *mesg.Message
	acksLeft int
	// strayAcks counts invalidations sent outside an ownership
	// transaction (purging stale fills); their acks are absorbed.
	strayAcks int
	pending   []*mesg.Message
	// deferredAcks holds WBAck destinations for writebacks that
	// arrived while the block was busy: acknowledging immediately
	// would let the evictor release its victim-buffer entry while a
	// forwarded CtoC request still needs it.
	deferredAcks []*mesg.Message
}

// doneTxDepth bounds the per-requester completed-transaction ring. A
// requester has at most two concurrent transactions per block (one
// read, one write), so a stale duplicate is always within a few
// completions of the present.
const doneTxDepth = 8

// doneKey names one requester's completed transactions on one block.
type doneKey struct {
	addr      uint64
	requester int
}

// doneRing holds the last doneTxDepth transactions completed for one
// (block, requester), newest last; 0 marks an unused slot (Tx 0 means
// no transaction and is never recorded).
type doneRing [doneTxDepth]uint64

// markDone records the completion of requester's transaction tx on
// block addr.
func (c *Controller) markDone(addr uint64, requester int, tx uint64) {
	if tx == 0 {
		return
	}
	k := doneKey{addr, requester}
	i, ok := c.done[k]
	if !ok {
		i = uint32(len(c.rings))
		c.rings = append(c.rings, doneRing{})
		c.done[k] = i
	}
	r := &c.rings[i]
	copy(r[:], r[1:])
	r[doneTxDepth-1] = tx
}

// isDup reports whether m duplicates a transaction already completed.
func (c *Controller) isDup(m *mesg.Message) bool {
	if m.Tx == 0 {
		return false
	}
	i, ok := c.done[doneKey{m.Addr, m.Requester}]
	if !ok {
		return false
	}
	for _, tx := range c.rings[i] {
		if tx == m.Tx {
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
	dir  map[uint64]*entry

	// done and rings are the duplicate filter: done maps each (block,
	// requester) with a completed transaction to its ring in rings. A
	// request carrying an already-completed Tx is a duplicate (an NI
	// retransmission whose original got through, or a fault-injected
	// copy), and re-running the state machine for it could
	// double-grant ownership; it is dropped. A ring, not just the
	// latest Tx, is kept because a congested network can deliver a
	// duplicate long after newer transactions from the same requester
	// have completed. Neither holds a pointer, so the collector never
	// scans them.
	done  map[doneKey]uint32
	rings []doneRing

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
	return &Controller{eng: eng, node: node, cfg: cfg, send: send, dir: make(map[uint64]*entry),
		done: make(map[doneKey]uint32)}
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

func (c *Controller) ent(addr uint64) *entry {
	e, ok := c.dir[addr]
	if !ok {
		e = &entry{}
		c.dir[addr] = e
	}
	return e
}

// Version returns the memory version of a block (0 if never written
// back); used by tests and invariant checks.
func (c *Controller) Version(addr uint64) uint64 { return c.ent(addr).version }

// State returns a block's directory view, for invariant checks.
func (c *Controller) State(addr uint64) (DirState, int, mesg.NodeSet) {
	e := c.ent(addr)
	return e.state, e.owner, e.sharers
}

// Busy reports whether a home transaction is outstanding for addr.
func (c *Controller) Busy(addr uint64) bool { return c.ent(addr).busy }

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
		e := c.ent(m.Addr)
		c.debugf("process %v | st=%v owner=%d sharers=%v busy=%v(w=%v req=%d acks=%d)",
			m, e.state, e.owner, e.sharers, e.busy, e.busyWrite, e.busyReq, e.acksLeft)
	}
	c.keep = false
	switch m.Kind {
	case mesg.ReadReq:
		c.handleRead(m)
	case mesg.WriteReq:
		c.handleWrite(m)
	case mesg.CopyBack:
		c.handleCopyBack(m)
	case mesg.WriteBack:
		c.handleWriteBack(m)
	case mesg.InvalAck:
		c.handleInvalAck(m)
	default:
		c.protoFail("unhandled message kind", m)
		return
	}
	// Keep the pending queue moving: if the block ended this service
	// not busy, the next parked request gets its turn.
	c.drain(m.Addr, c.ent(m.Addr))
	if !c.keep {
		// No handler stashed the message (pending queue, busyMsg): the
		// home was its final consumer.
		c.pool.Release(m)
	}
}

// queueOrRetry either parks a request on a busy block or bounces it.
func (c *Controller) queueOrRetry(e *entry, m *mesg.Message) {
	if len(e.pending) < c.cfg.PendingCap {
		c.keep = true
		e.pending = append(e.pending, m)
		if len(e.pending) > c.Stats.PendingPeak {
			c.Stats.PendingPeak = len(e.pending)
		}
		return
	}
	c.Stats.Retries++
	c.send(c.newMsg(mesg.Message{
		Kind: mesg.Retry, Addr: m.Addr, Src: mesg.M(c.node), Dst: mesg.P(m.Requester),
		Requester: m.Requester, Issued: m.Issued, ForWrite: m.Kind == mesg.WriteReq,
	}))
}

func (c *Controller) handleRead(m *mesg.Message) {
	e := c.ent(m.Addr)
	if c.isDup(m) {
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
		c.markDone(m.Addr, m.Requester, m.Tx)
		c.send(c.newMsg(mesg.Message{
			Kind: mesg.ReadReply, Addr: m.Addr, Src: mesg.M(c.node), Dst: mesg.P(m.Requester),
			Requester: m.Requester, Data: e.version, Issued: m.Issued,
		}))
	case ModifiedSt:
		// Forward to the owner; the block is busy until CopyBack.
		c.Stats.HomeCtoCForwards++
		c.keep = true
		e.busy, e.busyWrite, e.busyReq, e.busyMsg = true, false, m.Requester, m
		c.send(c.newMsg(mesg.Message{
			Kind: mesg.CtoCReq, Addr: m.Addr, Src: mesg.M(c.node), Dst: mesg.P(e.owner),
			Requester: m.Requester, Owner: e.owner, Issued: m.Issued,
		}))
	}
}

func (c *Controller) handleWrite(m *mesg.Message) {
	e := c.ent(m.Addr)
	if c.isDup(m) {
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
		e.state, e.owner, e.sharers = ModifiedSt, m.Requester, mesg.NodeSet{}
		c.markDone(m.Addr, m.Requester, m.Tx)
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
			e.state, e.owner, e.sharers = ModifiedSt, m.Requester, mesg.NodeSet{}
			c.markDone(m.Addr, m.Requester, m.Tx)
			c.send(c.newMsg(mesg.Message{
				Kind: mesg.WriteReply, Addr: m.Addr, Src: mesg.M(c.node), Dst: mesg.P(m.Requester),
				Requester: m.Requester, Owner: m.Requester, Data: e.version, Issued: m.Issued,
			}))
			return
		}
		e.busy, e.busyWrite, e.busyReq = true, true, m.Requester
		e.acksLeft = targets
		// The WriteReply is sent when the last InvalAck arrives; stash
		// the issue time by re-queueing a completion record.
		c.keep = true
		e.pending = append([]*mesg.Message{m}, e.pending...)
	case ModifiedSt:
		// Ownership transfer through the current owner.
		c.Stats.HomeCtoCForwards++
		c.keep = true
		e.busy, e.busyWrite, e.busyReq, e.busyMsg = true, true, m.Requester, m
		c.send(c.newMsg(mesg.Message{
			Kind: mesg.CtoCReq, Addr: m.Addr, Src: mesg.M(c.node), Dst: mesg.P(e.owner),
			Requester: m.Requester, Owner: e.owner, ForWrite: true, Issued: m.Issued,
		}))
	}
}

// handleInvalAck counts acknowledgments for a busy shared-write
// transaction and completes it when all sharers have been purged.
func (c *Controller) handleInvalAck(m *mesg.Message) {
	e := c.ent(m.Addr)
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
	orig := e.pending[0]
	e.pending = e.pending[1:]
	e.state, e.owner, e.sharers = ModifiedSt, e.busyReq, mesg.NodeSet{}
	e.busy = false
	c.markDone(m.Addr, e.busyReq, orig.Tx)
	c.send(c.newMsg(mesg.Message{
		Kind: mesg.WriteReply, Addr: m.Addr, Src: mesg.M(c.node), Dst: mesg.P(e.owner),
		Requester: e.owner, Owner: e.owner, Data: e.version, Issued: orig.Issued,
	}))
	// The stashed WriteReq has served its purpose (Issued/Tx read above).
	c.pool.Release(orig)
	c.drain(m.Addr, e)
}

func (c *Controller) handleCopyBack(m *mesg.Message) {
	e := c.ent(m.Addr)
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
	if e.busy && !e.busyWrite && !m.Marked && m.Requester == e.busyReq {
		// Completion of the home's own forwarded read transfer: the
		// old owner and the requester now share (prior sharers from
		// concurrent marked transfers remain valid).
		if e.state == ModifiedSt {
			e.state, e.sharers = SharedSt, mesg.NodeSet{}
		}
		e.sharers.Add(src)
		e.sharers.Add(e.busyReq)
		e.sharers.Or(m.Sharers)
		if e.busyMsg != nil {
			c.markDone(m.Addr, e.busyReq, e.busyMsg.Tx)
			c.pool.Release(e.busyMsg)
		}
		e.busy, e.busyMsg = false, nil
		c.drain(m.Addr, e)
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
	ownerMismatch := e.state == ModifiedSt && e.owner != src
	preGrant := e.state == ModifiedSt && e.owner == src && m.Data <= preVersion
	if staleData || ownerMismatch || preGrant {
		// Purge every copy this transfer created. The current owner's
		// Modified copy is never purged — it holds the newest data.
		targets := append(mesg.SharerList(m.Sharers), m.Requester)
		if !(e.state == ModifiedSt && e.owner == src) {
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
		e.sharers = mesg.NodeSetOf(e.owner)
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
				if p == e.busyReq {
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
	c.drain(m.Addr, e)
}

func (c *Controller) handleWriteBack(m *mesg.Message) {
	e := c.ent(m.Addr)
	c.Stats.WriteBacks++
	if m.ForWrite {
		// Ownership-transfer completion travelling as a WriteBack-class
		// message: the new owner is the transaction requester. Memory
		// is not updated (the block stays dirty at the new owner). A
		// stale ack (transaction already re-driven) is dropped.
		if e.busy && e.busyWrite && e.acksLeft == 0 && m.Requester == e.busyReq {
			// A concurrent switch-initiated transfer may have folded
			// sharers into the map while the forward was in flight;
			// purge their copies before granting exclusive ownership.
			for _, p := range mesg.SharerList(e.sharers) {
				if p == e.busyReq || p == m.Src.Node {
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
			if e.busyMsg != nil {
				c.markDone(m.Addr, e.busyReq, e.busyMsg.Tx)
				c.pool.Release(e.busyMsg)
			}
			e.busy, e.busyMsg = false, nil
			c.drain(m.Addr, e)
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
		if (e.state == ModifiedSt && e.owner != m.Src.Node) || m.Data < e.version {
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
	} else if !e.busy && e.state == ModifiedSt && m.Src.Node == e.owner {
		e.state, e.sharers = Uncached, mesg.NodeSet{}
	}
	if e.busy {
		if e.busyWrite && e.acksLeft > 0 {
			// Invalidation phase: late sharers from a marked writeback
			// must be purged before ownership is granted.
			for _, p := range mesg.SharerList(newSharers) {
				if p == e.busyReq {
					continue
				}
				e.acksLeft++
				c.Stats.Invalidations++
				c.send(c.newMsg(mesg.Message{
					Kind: mesg.Inval, Addr: m.Addr, Src: mesg.M(c.node), Dst: mesg.P(p),
					Requester: p,
				}))
			}
			e.deferredAcks = append(e.deferredAcks, ack)
			return
		}
		if m.Marked && !e.busyWrite && e.busyMsg != nil {
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
		e.deferredAcks = append(e.deferredAcks, ack)
		return
	}
	c.send(ack)
	c.drain(m.Addr, e)
}

// flushAcks releases writeback acknowledgments held while the block
// was busy.
func (c *Controller) flushAcks(e *entry) {
	for _, a := range e.deferredAcks {
		c.send(a)
	}
	e.deferredAcks = nil
}

// redrive re-processes a stalled forwarded transaction whose CtoC
// forward may have been sunk by the TRANSIENT switch entry that the
// just-processed marked message cleared. Only read forwards are ever
// sunk (write forwards pass through); duplicates are harmless.
// It reports whether a transaction was re-driven.
func (c *Controller) redrive(e *entry) bool {
	if !e.busy || e.busyWrite || e.busyMsg == nil {
		return false
	}
	orig := e.busyMsg
	e.busy, e.busyMsg = false, nil
	c.Stats.Redrives++
	c.Handle(orig)
	return true
}

// bankVersion folds incoming data into memory. Versions are globally
// monotonic per block, so max() is the correct merge when a stale
// replacement writeback races a newer copyback.
func (e *entry) bankVersion(v uint64) {
	if v > e.version {
		e.version = v
	}
}

// drain re-services the oldest pending request after a transaction
// completes. Further pending entries are re-examined as each one
// finishes (service may set busy again).
func (c *Controller) drain(addr uint64, e *entry) {
	if e.busy {
		return
	}
	c.flushAcks(e)
	if len(e.pending) == 0 {
		return
	}
	next := e.pending[0]
	e.pending = e.pending[1:]
	c.Handle(next)
}

// ForEachBlock iterates directory entries for invariant checks, in
// ascending address order so callbacks observe a replayable sequence.
func (c *Controller) ForEachBlock(fn func(addr uint64, st DirState, owner int, sharers mesg.NodeSet, busy bool)) {
	addrs := make([]uint64, 0, len(c.dir))
	for a := range c.dir {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		e := c.dir[a]
		fn(a, e.state, e.owner, e.sharers, e.busy)
	}
}
