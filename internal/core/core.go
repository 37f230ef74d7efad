// Package core assembles the full CC-NUMA machine of the paper's
// evaluation: N nodes (processor, inclusive L1/L2 MSI hierarchy, write
// buffer) at the bottom rank of a two-stage bidirectional MIN, N home
// memory modules with full-map directories at the top rank, and —
// when configured — a DRESAR switch directory in every switch.
//
// This is the library's primary entry point: construct a Machine from
// a Config (Table 2 defaults), issue Read/Write references through the
// per-processor interface, run the event engine, and collect the
// statistics that regenerate the paper's figures. An optional
// coherence checker validates the single-writer and value-coherence
// invariants on every read and at quiesce points.
package core

import (
	"fmt"
	"sort"
	"strings"

	"dresar/internal/cache"
	"dresar/internal/check"
	"dresar/internal/dirctl"
	"dresar/internal/fault"
	"dresar/internal/mesg"
	"dresar/internal/node"
	"dresar/internal/sdir"
	"dresar/internal/sim"
	"dresar/internal/swcache"
	"dresar/internal/topo"
	"dresar/internal/xbar"
)

// Config describes a machine. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	Nodes int // processor/memory pairs
	Radix int // switch ports per side (4 = the paper's 8×8 switch)

	Node node.Config
	Dir  dirctl.Config
	Net  xbar.Config

	// SwitchDir enables DRESAR in every switch; nil is the base system.
	SwitchDir *sdir.Config

	// SwitchCache additionally enables the switch-cache extension
	// (clean data served from top-stage switches) — the combination
	// the paper's conclusion proposes. nil disables it.
	SwitchCache *swcache.Config

	// PageBytes is the home-interleaving granularity: block addresses
	// map to homes round-robin by page.
	PageBytes int

	// CheckCoherence enables the shadow checker (tests; costs memory).
	CheckCoherence bool

	// CheckProtocol attaches a message-level conformance monitor
	// (check.Monitor) to the network trace; its obligations feed the
	// watchdog's stall report and AtQuiesce validation.
	CheckProtocol bool

	// Faults is the fault-injection plan; the zero value injects
	// nothing. When the plan can drop requests and Node.RequestTimeout
	// is unset, a default NI retransmission timeout is armed so the
	// machine can recover the losses.
	Faults fault.Plan

	// NetFaults is the network-fabric fault plan (flit corruption,
	// link and switch failures); the zero value injects nothing. Plans
	// with topology faults arm the default NI retransmission timeout
	// like lossy Faults plans, since requests can die with a removed
	// fabric element.
	NetFaults fault.NetPlan

	// Watchdog bounds cycles-without-progress during Run: if no
	// processor access completes for this many cycles while events
	// still fire, the run stops with a *StallError. 0 disables.
	Watchdog sim.Cycle

	// Deprecated: ShardWorkers is read by nothing. New accepts any
	// value and ignores it, and every machine runs on one serial
	// sim.Engine. The field stays only because the repository
	// benchmark (bench/) still assigns it; the next change to the
	// benchmark removes it.
	ShardWorkers int
}

// DefaultConfig returns the Table 2 16-node system.
func DefaultConfig() Config {
	return Config{
		Nodes:     16,
		Radix:     4,
		Node:      node.DefaultConfig(),
		Dir:       dirctl.DefaultConfig(),
		PageBytes: 4096,
	}
}

// WithSwitchDir returns a copy of c with a DRESAR fabric of the given
// entry count (4-way, retry policy — the evaluation's configuration).
func (c Config) WithSwitchDir(entries int) Config {
	sd := sdir.DefaultConfig()
	sd.Entries = entries
	c.SwitchDir = &sd
	return c
}

// WithSwitchCache returns a copy of c with the switch-cache extension
// holding the given number of clean blocks per top-stage switch.
func (c Config) WithSwitchCache(entries int) Config {
	sc := swcache.DefaultConfig()
	sc.Entries = entries
	c.SwitchCache = &sc
	return c
}

// Machine is one simulated CC-NUMA system.
type Machine struct {
	// Eng is the event engine every component of the machine, and any
	// driver, schedules on.
	Eng *sim.Engine

	Cfg   Config
	Topo  *topo.T
	Net   *xbar.Network
	Nodes []*node.Node
	Homes []*dirctl.Controller
	SDir  *sdir.Fabric    // nil in the base system
	SCa   *swcache.Fabric // nil unless the switch-cache extension is on

	// Injector applies Cfg.Faults; nil when the plan is inactive.
	Injector *fault.Injector
	// Monitor is the protocol conformance monitor; nil unless
	// Cfg.CheckProtocol is set.
	Monitor *check.Monitor

	// Pool recycles protocol Message structs across this machine's
	// nodes and home controllers (the dominant allocation class). It is
	// nil — pooling off, plain heap allocation — when the protocol
	// monitor is attached, since the monitor retains message pointers
	// for its obligation report and recycling would corrupt it.
	Pool *mesg.Pool

	// Profile accumulates per-block (miss, CtoC) counts for Figure 2.
	Profile *sim.BlockProfile
	// ReadLatHist is the distribution of completed read latencies
	// (hits included), for percentile reporting.
	ReadLatHist sim.Histogram

	// Shadow-checker state (Cfg.CheckCoherence): the version each
	// processor last observed per block, keyed proc<<48|block>>5, and
	// the first violation found.
	lastSeen map[uint64]uint64
	checkErr error

	// Per-node store-version stamp state (see stampFor): cycle of the
	// last stamp and the intra-cycle counter.
	stampAt  []sim.Cycle
	stampCtr []uint64

	// stopCheck is the cooperative-cancellation probe installed via
	// SetStopCheck; Run forwards it to the engine.
	stopCheck func() bool

	// runErrs collects structured failures reported by components
	// through their Fail sinks (protocol holes, abandoned
	// transactions); the first one stops the engine.
	runErrs []error
	// stall is set when the liveness watchdog trips.
	stall *StallError

	// Per-node blocking-op completion slots and prebuilt adapters
	// (see the wiring loop in New): the caller's done callback and
	// read address for the op in flight on each node.
	rdAddr []uint64
	wrAddr []uint64
	rdDone []func(sim.Cycle)
	rdCb   []func(uint64, node.ReadClass, sim.Cycle)
	wrDone []func(sim.Cycle)
	wrCb   []func(uint64, sim.Cycle)
}

// StallError reports a liveness watchdog trip: the machine ran
// Watchdog cycles without completing a processor access while events
// were still firing (livelock) or failed to quiesce.
type StallError struct {
	Now           sim.Cycle // cycle at which the watchdog tripped
	SinceProgress sim.Cycle // cycles since the last completed access
	Pending       int       // events still queued when stopped
	// Report is the structured diagnostic: stuck node transactions,
	// busy home blocks, TRANSIENT switch-directory entries, and — when
	// the protocol monitor is attached — every unmet message-level
	// obligation.
	Report string
}

func (e *StallError) Error() string {
	return fmt.Sprintf("core: liveness watchdog: no progress for %d cycles at cycle %d (%d events pending)\n%s",
		e.SinceProgress, e.Now, e.Pending, e.Report)
}

// AbortError reports a cooperative cancellation: the stop probe
// installed with SetStopCheck tripped and Run stopped the engine
// within 64 events.
// The machine's statistics up to Now remain collectable — callers that
// want the partial run call Collect after seeing this error.
type AbortError struct {
	Now     sim.Cycle // cycle at which the run stopped
	Pending int       // events still queued when stopped
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("core: run aborted by stop check at cycle %d (%d events pending)", e.Now, e.Pending)
}

// SetStopCheck installs (or, with nil, removes) a cooperative
// cancellation probe for subsequent Run calls: the engine polls fn
// every few events and, when it reports true, stops cleanly, and Run
// returns an *AbortError with the partial state intact. fn must be
// safe to call while other goroutines flip its source; ctx.Err() != nil
// and atomic-flag loads both qualify.
func (m *Machine) SetStopCheck(fn func() bool) { m.stopCheck = fn }

// New builds a machine.
func New(cfg Config) (*Machine, error) {
	tp, err := topo.New(cfg.Nodes, cfg.Radix)
	if err != nil {
		return nil, err
	}
	if cfg.Nodes > stampNodeMax+1 {
		return nil, fmt.Errorf("core: %d nodes exceed the %d-node store-version encoding", cfg.Nodes, stampNodeMax+1)
	}
	m := &Machine{
		Cfg:      cfg,
		Topo:     tp,
		Eng:      sim.NewEngine(),
		Profile:  sim.NewBlockProfile(),
		stampAt:  make([]sim.Cycle, cfg.Nodes),
		stampCtr: make([]uint64, cfg.Nodes),
	}
	if cfg.CheckCoherence {
		m.lastSeen = make(map[uint64]uint64)
	}
	netCfg := cfg.Net
	if cfg.SwitchDir != nil {
		f, err := sdir.New(tp, *cfg.SwitchDir)
		if err != nil {
			return nil, err
		}
		m.SDir = f
		netCfg.Snoop = f
	}
	if cfg.SwitchCache != nil {
		f, err := swcache.New(tp, *cfg.SwitchCache)
		if err != nil {
			return nil, err
		}
		m.SCa = f
		if netCfg.Snoop != nil {
			netCfg.Snoop = swcache.Combined{Dir: netCfg.Snoop, Cache: f}
		} else {
			netCfg.Snoop = f
		}
	}
	if err := cfg.NetFaults.Validate(tp); err != nil {
		return nil, err
	}
	m.Net = xbar.New(m.Eng, tp, netCfg)
	m.Net.Fail = m.fail
	if cfg.CheckProtocol {
		m.Monitor = check.New()
		m.Net.Trace = m.Monitor.Observe
	}
	send := m.Net.Send
	if cfg.Faults.Active() || cfg.NetFaults.Active() {
		m.Injector = fault.NewInjector(cfg.Faults, m.Eng)
		if cfg.Faults.Active() {
			send = m.Injector.WrapSend(send)
			m.Injector.AttachSDir(m.SDir, cfg.Nodes)
		}
		m.Injector.AttachNet(cfg.NetFaults, m.Net, m.SDir)
		// A lossy plan needs NI retransmission to recover; arm a
		// default timeout only then, so loss-free plans (e.g. pure
		// directory-disable) leave timing untouched. Topology faults
		// count as lossy: requests in flight through a dying switch
		// can be sunk with its directory state.
		lossy := cfg.Faults.DropPermille > 0 || cfg.Faults.DropFirst > 0 ||
			cfg.NetFaults.TopologyFaults()
		if lossy && cfg.Node.RequestTimeout == 0 {
			cfg.Node.RequestTimeout = 2048
			m.Cfg.Node.RequestTimeout = 2048
		}
	}
	if !cfg.CheckProtocol {
		m.Pool = &mesg.Pool{}
	}
	m.Nodes = make([]*node.Node, cfg.Nodes)
	m.Homes = make([]*dirctl.Controller, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		i := i
		m.Nodes[i] = node.New(m.Eng, i, cfg.Node, send, m.Home,
			func() uint64 { return m.stampFor(i) })
		m.Homes[i] = dirctl.New(m.Eng, i, cfg.Dir, send)
		m.Nodes[i].SetPool(m.Pool)
		m.Homes[i].SetPool(m.Pool)
		m.Nodes[i].Fail = m.fail
		m.Homes[i].Fail = m.fail
		m.Net.AttachProc(i, m.Nodes[i].Deliver)
		m.Net.AttachMem(i, m.Homes[i].Handle)
	}
	// Per-node completion adapters, built once: Read/Write park the
	// caller's callback in a per-node slot and hand the node the
	// prebuilt adapter, so the per-reference fast path allocates no
	// closures (the blocking model has one outstanding op per node).
	m.rdAddr = make([]uint64, cfg.Nodes)
	m.wrAddr = make([]uint64, cfg.Nodes)
	m.rdDone = make([]func(sim.Cycle), cfg.Nodes)
	m.rdCb = make([]func(uint64, node.ReadClass, sim.Cycle), cfg.Nodes)
	m.wrDone = make([]func(sim.Cycle), cfg.Nodes)
	m.wrCb = make([]func(uint64, sim.Cycle), cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		i := i
		m.rdCb[i] = func(v uint64, class node.ReadClass, lat sim.Cycle) { m.finishRead(i, v, class, lat) }
		m.wrCb[i] = func(v uint64, stall sim.Cycle) { m.finishWrite(i, v, stall) }
	}
	return m, nil
}

// fail is the components' Fail sink: it records the structured error
// and stops the engine so the run surfaces it instead of cascading.
func (m *Machine) fail(err error) {
	m.runErrs = append(m.runErrs, err)
	m.Eng.Stop()
}

// Err returns the first structured failure recorded during the run
// (nil if none).
func (m *Machine) Err() error {
	if len(m.runErrs) > 0 {
		return m.runErrs[0]
	}
	return nil
}

// Now reports the machine clock, the cycle of the last executed event.
func (m *Machine) Now() sim.Cycle { return m.Eng.Now() }

// Pending reports scheduled-but-unexecuted events.
func (m *Machine) Pending() int { return m.Eng.Pending() }

// MustNew panics on error.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Home maps a block address to its home node (page interleaving).
func (m *Machine) Home(addr uint64) int {
	return int(addr/uint64(m.Cfg.PageBytes)) % m.Cfg.Nodes
}

// Store versions are ordered stamps, not payloads: the protocol and
// the shadow checker only ever compare them. The encoding
//
//	cycle<<stampCycleShift | node<<stampNodeShift | counter
//
// makes stamping a node-local operation, with no shared counter, while
// preserving every ordering the protocol relies on: two stamps of the
// *same* block are always separated by an ownership transfer through
// the network, so their cycle fields differ and order them; same-node
// same-cycle stamps are ordered by the counter. The node field only
// breaks ties between stamps of different blocks, which no protocol
// decision compares.
const (
	stampNodeShift  = 8
	stampCycleShift = 18 // 10-bit node field: up to 1024 nodes
	stampCtrMax     = 1<<stampNodeShift - 1
	stampNodeMax    = 1<<(stampCycleShift-stampNodeShift) - 1
)

// stampFor issues node p's next store version: strictly increasing per
// node.
func (m *Machine) stampFor(p int) uint64 {
	now := m.Eng.Now()
	if m.stampAt[p] != now {
		m.stampAt[p] = now
		m.stampCtr[p] = 0
	}
	m.stampCtr[p]++
	if m.stampCtr[p] > stampCtrMax {
		panic(fmt.Sprintf("core: P%d issued more than %d store versions in cycle %d", p, stampCtrMax, now))
	}
	return uint64(now)<<stampCycleShift | uint64(p)<<stampNodeShift | m.stampCtr[p]
}

// Read issues a blocking load on processor p. done receives the block
// version and total latency. Per-block profile and coherence checks
// are applied on completion.
func (m *Machine) Read(p int, addr uint64, done func(lat sim.Cycle)) {
	m.rdAddr[p], m.rdDone[p] = addr, done
	m.Nodes[p].Read(addr, m.rdCb[p])
}

// finishRead is the per-node read-completion adapter body. The slots
// are copied out before done runs: done typically issues the next
// reference, which reloads them.
func (m *Machine) finishRead(p int, v uint64, class node.ReadClass, lat sim.Cycle) {
	addr, done := m.rdAddr[p], m.rdDone[p]
	m.rdDone[p] = nil
	m.Eng.Progress()
	m.ReadLatHist.Observe(uint64(lat))
	if class != node.ReadHit {
		block := addr &^ 31
		ctoc := uint64(0)
		if class == node.ReadCtoCHome || class == node.ReadCtoCSwitch {
			ctoc = 1
		}
		m.Profile.Add(block, 1, ctoc)
	}
	if m.Cfg.CheckCoherence {
		m.checkRead(p, addr&^31, v)
	}
	if done != nil {
		done(lat)
	}
}

// Write issues a store on processor p. done fires when the store has
// retired into the write buffer (zero stall unless the buffer is full).
func (m *Machine) Write(p int, addr uint64, done func(stall sim.Cycle)) {
	m.wrAddr[p], m.wrDone[p] = addr, done
	m.Nodes[p].Write(addr, m.wrCb[p])
}

// finishWrite is the per-node write-completion adapter body.
func (m *Machine) finishWrite(p int, v uint64, stall sim.Cycle) {
	addr, done := m.wrAddr[p], m.wrDone[p]
	m.wrDone[p] = nil
	m.Eng.Progress()
	if m.Cfg.CheckCoherence {
		m.lastSeen[uint64(p)<<48|(addr&^31)>>5] = v
	}
	if done != nil {
		done(stall)
	}
}

// checkRead enforces per-processor per-block version monotonicity and
// boundedness: a read may never travel backwards in time for this
// processor, nor return a version stamped after the current cycle
// (stamps embed their issue cycle; see stampFor).
func (m *Machine) checkRead(p int, block, v uint64) {
	if m.checkErr != nil {
		return
	}
	if v>>stampCycleShift > uint64(m.Eng.Now()) {
		m.checkErr = fmt.Errorf("core: P%d read %#x version %#x stamped at cycle %d, beyond now %d",
			p, block, v, v>>stampCycleShift, m.Eng.Now())
		return
	}
	key := uint64(p)<<48 | block>>5
	if prev, ok := m.lastSeen[key]; ok && v < prev {
		m.checkErr = fmt.Errorf("core: P%d read %#x version %#x after observing %#x (stale read)", p, block, v, prev)
		return
	}
	m.lastSeen[key] = v
}

// Run drains the event engine. Three failure paths produce structured
// errors instead of hangs or crashes:
//
//   - if Cfg.Watchdog is set and no processor access completes for
//     that many cycles, the run stops with a *StallError carrying the
//     outstanding-work diagnostic;
//   - a component panic inside an event (protocol hole outside the
//     Fail-sink paths) is recovered and reported with the failing
//     cycle;
//   - structured failures recorded through Fail sinks (see Err) stop
//     the engine and are returned.
//
// If the engine is still busy past maxCycles, Run returns an error
// (likely protocol deadlock). maxCycles <= 0 means unbounded.
func (m *Machine) Run(maxCycles sim.Cycle) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: panic at cycle %d: %v", m.Now(), r)
		}
	}()
	if m.Cfg.Watchdog > 0 {
		m.Eng.SetWatchdog(m.Cfg.Watchdog, func(now, since sim.Cycle) {
			m.stall = &StallError{
				Now: now, SinceProgress: since, Pending: m.Pending(),
				Report: m.StallReport(),
			}
		})
	}
	m.Eng.SetStopCheck(m.stopCheck)
	if maxCycles <= 0 {
		m.Eng.Run(0)
	} else {
		m.Eng.Drain(maxCycles)
	}
	if e := m.Err(); e != nil {
		return e
	}
	if m.stall != nil {
		return m.stall
	}
	if m.Eng.Aborted() {
		return &AbortError{Now: m.Now(), Pending: m.Pending()}
	}
	if maxCycles > 0 && m.Pending() > 0 {
		return fmt.Errorf("core: watchdog: %d events still pending at cycle %d", m.Pending(), m.Now())
	}
	return m.checkErr
}

// StallReport assembles the structured liveness diagnostic: stuck
// machine state (DumpStuck) plus downed fabric elements and, when the
// protocol monitor is attached, every unmet message-level obligation.
func (m *Machine) StallReport() string {
	var b strings.Builder
	if s := m.Net.DownReport(); s != "" {
		b.WriteString(s)
	}
	if s := m.DumpStuck(); s != "" {
		b.WriteString(s)
	}
	if m.Monitor != nil {
		if s := m.Monitor.OutstandingReport(); s != "" {
			b.WriteString(s)
		}
	}
	if b.Len() == 0 {
		return "(no outstanding machine state; event queue livelock)\n"
	}
	return b.String()
}

// Quiesced reports whether the network and all nodes are idle.
func (m *Machine) Quiesced() bool {
	if !m.Net.Quiesced() {
		return false
	}
	for _, n := range m.Nodes {
		if !n.Quiesced() {
			return false
		}
	}
	return true
}

// DumpStuck describes outstanding work when the machine fails to
// quiesce: stuck node transactions, busy home blocks, and TRANSIENT
// switch-directory entries. For deadlock diagnosis.
func (m *Machine) DumpStuck() string {
	var b strings.Builder
	for _, n := range m.Nodes {
		if s := n.Outstanding(); s != "" {
			fmt.Fprintln(&b, s)
		}
	}
	for i, h := range m.Homes {
		h.ForEachBlock(func(addr uint64, st dirctl.DirState, owner int, sharers mesg.NodeSet, busy bool) {
			if busy {
				fmt.Fprintf(&b, "M%d: block %#x busy (st=%v owner=%d)\n", i, addr, st, owner)
			}
		})
	}
	if m.SDir != nil {
		for st := 0; st < m.Topo.Stages; st++ {
			for i := 0; i < m.Topo.Leaves; i++ {
				sw := topo.SwitchID{Stage: st, Index: i}
				if n := m.SDir.TransientCount(sw); n > 0 {
					fmt.Fprintf(&b, "%v: %d TRANSIENT entries\n", sw, n)
				}
			}
		}
	}
	return b.String()
}

// CheckInvariants validates system-wide coherence at a quiesce point:
//   - at most one Modified copy per block, matching the home's map;
//   - home sharer vectors are supersets of the actual shared copies;
//   - every Shared copy's version equals the home memory version, and
//     a Modified copy's version is no older than memory.
//
// Call only when Quiesced() is true.
func (m *Machine) CheckInvariants() error {
	if m.checkErr != nil {
		return m.checkErr
	}
	type holder struct {
		owner    int
		modified bool
	}
	mods := map[uint64]holder{}
	shared := map[uint64]*mesg.NodeSet{} // block -> actual sharer set
	versions := map[uint64]map[int]uint64{}
	for i, n := range m.Nodes {
		i := i
		n.Hier().L2.Lines(func(addr uint64, st cache.State, data uint64) {
			if versions[addr] == nil {
				versions[addr] = map[int]uint64{}
			}
			versions[addr][i] = data
			switch st {
			case cache.Modified:
				if prev, ok := mods[addr]; ok {
					m.checkErr = fmt.Errorf("core: block %#x Modified at both P%d and P%d", addr, prev.owner, i)
					return
				}
				mods[addr] = holder{owner: i, modified: true}
			case cache.Shared:
				ns := shared[addr]
				if ns == nil {
					ns = &mesg.NodeSet{}
					shared[addr] = ns
				}
				ns.Add(i)
			case cache.Invalid:
				// No copy here; nothing to record.
			}
		})
	}
	if m.checkErr != nil {
		return m.checkErr
	}
	modBlocks := make([]uint64, 0, len(mods))
	for b := range mods {
		modBlocks = append(modBlocks, b)
	}
	sort.Slice(modBlocks, func(i, j int) bool { return modBlocks[i] < modBlocks[j] })
	for _, b := range modBlocks {
		h := mods[b]
		home := m.Homes[m.Home(b)]
		st, owner, _ := home.State(b)
		if home.Busy(b) {
			continue
		}
		if st != dirctl.ModifiedSt || owner != h.owner {
			return fmt.Errorf("core: block %#x Modified at P%d but home says %v owner=%d", b, h.owner, st, owner)
		}
		if v := versions[b][h.owner]; v < home.Version(b) {
			return fmt.Errorf("core: block %#x M copy version %d older than memory %d", b, v, home.Version(b))
		}
	}
	sharedBlocks := make([]uint64, 0, len(shared))
	for b := range shared {
		sharedBlocks = append(sharedBlocks, b)
	}
	sort.Slice(sharedBlocks, func(i, j int) bool { return sharedBlocks[i] < sharedBlocks[j] })
	for _, b := range sharedBlocks {
		vec := shared[b]
		home := m.Homes[m.Home(b)]
		if home.Busy(b) {
			continue
		}
		st, _, sharers := home.State(b)
		if st == dirctl.Uncached {
			return fmt.Errorf("core: block %#x shared at %v but home says Uncached", b, vec)
		}
		if st == dirctl.SharedSt && !sharers.ContainsAll(*vec) {
			return fmt.Errorf("core: block %#x sharers %v not covered by home map %v", b, vec, sharers)
		}
		mv := home.Version(b)
		for _, p := range mesg.SharerList(*vec) {
			if v := versions[b][p]; st == dirctl.SharedSt && v != mv {
				return fmt.Errorf("core: block %#x S copy at P%d version %d != memory %d", b, p, v, mv)
			}
		}
	}
	return nil
}
