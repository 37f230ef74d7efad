package workload

import (
	"errors"
	"fmt"

	"dresar/internal/core"
	"dresar/internal/sim"
)

// Driver executes a Workload on a core.Machine: each processor walks
// its per-phase reference stream (loads block, stores retire through
// the write buffer), and phases are separated by barriers.
//
// Barriers are modeled as a rendezvous at a barrier variable one
// network hop away plus a fixed cost, entered only once the
// processor's write buffer has drained (a release fence), per
// DESIGN.md substitution 5: spin-wait traffic is excluded from the
// read statistics, as in the paper's methodology.
//
// The driver is a sim.Actor: processors' stepping events and the
// barrier bookkeeping all run on the machine's engine, and a
// processor's barrier arrival and its release each travel one network
// hop.
type Driver struct {
	M *core.Machine
	W Workload
	// BarrierCost is charged to every processor at each barrier
	// (default: two network round trips ≈ 160 cycles).
	BarrierCost sim.Cycle
	// MaxCycles aborts a run that exceeds this simulated time
	// (deadlock watchdog). 0 means 2^40 cycles.
	MaxCycles sim.Cycle

	// hop is the modeled distance to the barrier variable: one network
	// hop (xbar.Network.HopLatency).
	hop sim.Cycle

	// Barrier state.
	phase   int
	arrived int

	// Per-processor state (release refills refs between phases, while
	// every processor is parked in the barrier).
	refs [][]Ref // per-proc stream of the current phase
	idx  []int
	pend []Ref // reference waiting out its Gap

	// Prebuilt per-processor completion callbacks (see Run): allocated
	// once instead of once per reference — with core.Machine's adapter
	// slots this makes the whole reference fast path allocation-free.
	readDone  []func(sim.Cycle)
	writeDone []func(sim.Cycle)
}

// Driver opcodes (sim.Actor events; arg is the processor index).
const (
	opStep    = iota // issue p's next reference
	opIssue          // p's Gap elapsed, submit the reference
	opBarrier        // re-check p's write-buffer drain
	opArrived        // p reached the barrier
	opRelease        // barrier cost paid, open next phase
)

// NewDriver wires a workload onto a machine. The machine must have at
// least W.Procs() processors.
func NewDriver(m *core.Machine, w Workload) (*Driver, error) {
	if w.Procs() > m.Cfg.Nodes {
		return nil, fmt.Errorf("workload: %s needs %d procs, machine has %d", w.Name(), w.Procs(), m.Cfg.Nodes)
	}
	return &Driver{M: m, W: w, BarrierCost: 160, MaxCycles: 1 << 40}, nil
}

// Run executes all phases to completion and returns the machine's
// collected statistics.
func (d *Driver) Run() (core.Stats, error) {
	procs := d.W.Procs()
	d.hop = d.M.Net.HopLatency()
	d.idx = make([]int, procs)
	d.refs = make([][]Ref, procs)
	d.pend = make([]Ref, procs)
	d.readDone = make([]func(sim.Cycle), procs)
	d.writeDone = make([]func(sim.Cycle), procs)
	for p := 0; p < procs; p++ {
		p := p
		d.readDone[p] = func(lat sim.Cycle) { d.step(p) }
		d.writeDone[p] = func(stall sim.Cycle) { d.step(p) }
	}
	d.materialize(0)
	for p := 0; p < procs; p++ {
		d.M.Eng.AtEvent(0, d, opStep, uint64(p), nil)
	}
	// Machine.Run layers the liveness watchdog, Fail-sink errors, and
	// panic recovery over the raw engine drain.
	runErr := d.M.Run(d.MaxCycles)
	var abort *core.AbortError
	if errors.As(runErr, &abort) {
		// Cooperative cancellation, not a protocol failure: return the
		// partial statistics alongside the typed abort so the serving
		// layer can report progress-at-kill. Wrapped with %w so
		// errors.As still finds the *core.AbortError underneath.
		return d.M.Collect(), fmt.Errorf("workload: %s aborted in phase %d/%d: %w",
			d.W.Name(), d.phase, d.W.Phases(), runErr)
	}
	if runErr != nil && d.phase >= d.W.Phases() {
		// Completed despite a late error (e.g. a trailing fault event):
		// surface the error, work is done.
		return d.M.Collect(), runErr
	}
	if d.phase < d.W.Phases() {
		if runErr != nil {
			// Wrap (not render) so callers can still unwrap the
			// structured *core.StallError underneath.
			return d.M.Collect(), fmt.Errorf("workload: %s stalled in phase %d/%d at cycle %d: %w",
				d.W.Name(), d.phase, d.W.Phases(), d.M.Now(), runErr)
		}
		return d.M.Collect(), fmt.Errorf("workload: %s stalled in phase %d/%d at cycle %d:\n%s",
			d.W.Name(), d.phase, d.W.Phases(), d.M.Now(), d.M.DumpStuck())
	}
	return d.M.Collect(), nil
}

// OnEvent implements sim.Actor (see the opcode table).
func (d *Driver) OnEvent(op int, arg uint64, data any) {
	p := int(arg)
	switch op {
	case opStep:
		d.step(p)
	case opIssue:
		d.issue(p)
	case opBarrier:
		d.enterBarrier(p)
	case opArrived:
		d.arrive()
	case opRelease:
		d.release(p) // arg is the phase here, not a processor
	}
}

// materialize fills every processor's stream for phase ph. Runs before
// the engine starts (phase 0) or while all processors are parked in
// the barrier (later phases).
func (d *Driver) materialize(ph int) {
	d.phase = ph
	d.arrived = 0
	for p := 0; p < d.W.Procs(); p++ {
		d.refs[p] = d.refs[p][:0]
		p := p
		d.W.Refs(p, ph, func(r Ref) { d.refs[p] = append(d.refs[p], r) })
		d.idx[p] = 0
	}
}

// step issues processor p's next reference, or enters the barrier.
func (d *Driver) step(p int) {
	if d.idx[p] >= len(d.refs[p]) {
		d.enterBarrier(p)
		return
	}
	r := d.refs[p][d.idx[p]]
	d.idx[p]++
	d.pend[p] = r
	if r.Gap > 0 {
		d.M.Eng.AfterEvent(sim.Cycle(r.Gap), d, opIssue, uint64(p), nil)
		return
	}
	d.issue(p)
}

// issue submits p's pending reference (step parked it in pend[p]).
func (d *Driver) issue(p int) {
	r := d.pend[p]
	if r.Write {
		d.M.Write(p, r.Addr, d.writeDone[p])
	} else {
		d.M.Read(p, r.Addr, d.readDone[p])
	}
}

// enterBarrier waits for p's write buffer to drain (release), then
// notifies the barrier variable one hop away.
func (d *Driver) enterBarrier(p int) {
	eng := d.M.Eng
	if !d.M.Nodes[p].Quiesced() {
		// Poll until outstanding stores complete. The write buffer
		// drains via message events, so a short re-check is enough.
		eng.AfterEvent(16, d, opBarrier, uint64(p), nil)
		return
	}
	eng.AtEvent(eng.Now()+d.hop, d, opArrived, uint64(p), nil)
}

// arrive counts a processor into the barrier; the last arrival pays
// the barrier cost and opens the next phase.
func (d *Driver) arrive() {
	d.arrived++
	if d.arrived < d.W.Procs() {
		return
	}
	next := d.phase + 1
	if next >= d.W.Phases() {
		d.phase = next
		return // workload complete
	}
	d.M.Eng.AfterEvent(d.BarrierCost, d, opRelease, uint64(next), nil)
}

// release materializes phase ph and restarts every processor one hop
// away.
func (d *Driver) release(ph int) {
	d.materialize(ph)
	eng := d.M.Eng
	for p := 0; p < d.W.Procs(); p++ {
		eng.AtEvent(eng.Now()+d.hop, d, opStep, uint64(p), nil)
	}
}
