package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"dresar/internal/core"
	"dresar/internal/figures"
	"dresar/internal/trace"
	"dresar/internal/tracesim"
	"dresar/internal/workload"
)

// simCell is one simulation: an execution-driven kernel on a
// core.Machine, or, when Kernel is nil, a synthetic commercial trace on
// the 16-node trace-driven simulator.
type simCell struct {
	App     string
	Nodes   int
	Radix   int
	Entries int // switch-directory entries per switch; 0 is the base system
	Workers int // 1 is the serial engine, more the sharded one
	Kernel  func() (workload.Workload, error)
	Synth   trace.SynthConfig
}

// key names the cell's simulated configuration. It leaves out Workers:
// the engine never changes simulated results.
func (c simCell) key() string { return fmt.Sprintf("%s/%dn/%d", c.App, c.Nodes, c.Entries) }

// smallTraceRefs is the commercial trace length of figures.ScaleSmall.
const smallTraceRefs = 2_000_000

// sweepCells is the Figures 8–11 sweep on the paper's 16-node machine:
// every app at every directory size, kernels built by kernel, traces
// traceRefs records long.
func sweepCells(apps []string, sizes []int, kernel func(app string) (workload.Workload, error), traceRefs uint64) []simCell {
	var cells []simCell
	for _, app := range apps {
		for _, e := range sizes {
			c := simCell{App: app, Nodes: 16, Radix: 4, Entries: e, Workers: 1}
			switch {
			case app == "tpcc":
				c.Synth = trace.TPCC(traceRefs)
			case app == "tpcd":
				c.Synth = trace.TPCD(traceRefs)
			default:
				app := app
				c.Kernel = func() (workload.Workload, error) { return kernel(app) }
			}
			cells = append(cells, c)
		}
	}
	return cells
}

func smallKernel(app string) (workload.Workload, error) {
	return figures.ScientificWorkload(app, figures.ScaleSmall)
}

// fftCells runs an FFT of points on radix-8 machines of each node
// count, without and with 1K-entry switch directories.
func fftCells(points int, nodes []int, workers int) []simCell {
	var cells []simCell
	for _, n := range nodes {
		for _, e := range []int{0, 1024} {
			n := n
			cells = append(cells, simCell{
				App: "fft", Nodes: n, Radix: 8, Entries: e, Workers: workers,
				Kernel: func() (workload.Workload, error) { return workload.NewFFT(points, n), nil },
			})
		}
	}
	return cells
}

// timedRefs charges the time a kernel spends generating references to
// the refgen span.
type timedRefs struct {
	workload.Workload
	d time.Duration
}

func (w *timedRefs) Refs(p, ph int, emit func(workload.Ref)) {
	t := time.Now()
	w.Workload.Refs(p, ph, emit)
	w.d += time.Since(t)
}

// timedSource hands out trace records from batches it generates ahead,
// timing each batch: two clock reads per batch instead of per record
// keep the tracegen span from slowing the run it measures.
type timedSource struct {
	src  trace.Source
	buf  []trace.Rec
	i    int
	done bool
	d    time.Duration
}

const traceBatch = 4096

func (s *timedSource) Next() (trace.Rec, bool) {
	if s.i == len(s.buf) {
		if s.done {
			return trace.Rec{}, false
		}
		t := time.Now()
		s.buf, s.i = s.buf[:0], 0
		for len(s.buf) < traceBatch {
			rec, ok := s.src.Next()
			if !ok {
				s.done = true
				break
			}
			s.buf = append(s.buf, rec)
		}
		s.d += time.Since(t)
		if len(s.buf) == 0 {
			return trace.Rec{}, false
		}
	}
	rec := s.buf[s.i]
	s.i++
	return rec, true
}

// builtCell is a cell ready to run.
type builtCell struct {
	m    *core.Machine
	d    *workload.Driver
	refs *timedRefs

	ts   *tracesim.Sim
	src  trace.Source
	tsrc *timedSource
}

// buildCell sets a cell up and returns the set-up time: workload and
// machine construction (core.New + workload.NewDriver), or trace source
// and tracesim.New. Timed callers collect garbage first, so that one
// cell's garbage stays out of the next one's timing.
func buildCell(c simCell, traced bool) (*builtCell, time.Duration, error) {
	t0 := time.Now()
	b := &builtCell{}
	if c.Kernel == nil {
		b.src = trace.NewSynth(c.Synth)
		if traced {
			b.tsrc = &timedSource{src: b.src}
			b.src = b.tsrc
		}
		cfg := tracesim.DefaultConfig()
		if c.Entries > 0 {
			cfg = cfg.WithSDir(c.Entries)
		}
		s, err := tracesim.New(cfg)
		if err != nil {
			return nil, 0, err
		}
		b.ts = s
		return b, time.Since(t0), nil
	}
	w, err := c.Kernel()
	if err != nil {
		return nil, 0, err
	}
	if traced {
		b.refs = &timedRefs{Workload: w}
		w = b.refs
	}
	cfg := core.DefaultConfig()
	cfg.Nodes, cfg.Radix, cfg.ShardWorkers = c.Nodes, c.Radix, c.Workers
	if c.Entries > 0 {
		cfg = cfg.WithSwitchDir(c.Entries)
	}
	m, err := core.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	d, err := workload.NewDriver(m, w)
	if err != nil {
		return nil, 0, err
	}
	b.m, b.d = m, d
	return b, time.Since(t0), nil
}

// cellOut is one run of a cell.
type cellOut struct {
	setup, run time.Duration
	gen        time.Duration // traced runs: reference or trace generation inside run
	check      time.Duration
	exec       core.Stats     // execution-driven cells
	trace      tracesim.Stats // trace-driven cells
	heapMB     float64        // checked runs: live heap with the machine still reachable
}

func (o cellOut) sameResult(p cellOut) bool { return o.exec == p.exec && o.trace == p.trace }

// runCell builds and runs one cell. Every run checks that each read
// miss has exactly one service class; checked runs also validate the
// machine's coherence invariants and sample the live heap, outside the
// timed region.
func runCell(c simCell, traced, check bool) (cellOut, error) {
	b, setup, err := buildCell(c, traced)
	if err != nil {
		return cellOut{}, err
	}
	out := cellOut{setup: setup}
	t := time.Now()
	if b.ts != nil {
		st := b.ts.Run(b.src)
		out.run, out.trace = time.Since(t), st
		if b.tsrc != nil {
			out.gen = b.tsrc.d
		}
		if st.ReadMisses != st.Clean+st.CtoCHome+st.CtoCSwitch {
			return out, fmt.Errorf("%d read misses but %d+%d+%d serviced", st.ReadMisses, st.Clean, st.CtoCHome, st.CtoCSwitch)
		}
	} else {
		s, err := b.d.Run()
		out.run, out.exec = time.Since(t), s
		if err != nil {
			return out, err
		}
		if b.refs != nil {
			out.gen = b.refs.d
		}
		if s.ReadMisses != s.ReadClean+s.ReadCleanSwitch+s.ReadCtoCHome+s.ReadCtoCSwitch {
			return out, fmt.Errorf("%d read misses but %d+%d+%d+%d serviced",
				s.ReadMisses, s.ReadClean, s.ReadCleanSwitch, s.ReadCtoCHome, s.ReadCtoCSwitch)
		}
	}
	if check {
		t := time.Now()
		if b.m != nil {
			if !b.m.Quiesced() {
				return out, errors.New("machine not quiesced after the run")
			}
			if err := b.m.CheckInvariants(); err != nil {
				return out, err
			}
		}
		out.heapMB = liveHeapMB()
		runtime.KeepAlive(b)
		out.check = time.Since(t)
	}
	return out, nil
}

// liveHeapMB is the heap still reachable after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// setupPasses is how many set-up-only passes precede the timed ones,
// so that every cell's set-up time is a median over several samples.
const setupPasses = 3

// runSim measures a simulator workload: set-up-only passes, then timed
// passes over every cell, each in a seed-permuted order. The first two
// passes are whole, so that every cell's results are compared pass to
// pass; later ones run cells for as long as the next one's last time
// still fits in o.seconds, so that the run uses its length and some cells
// get a third or later sample. Each cell's times are reduced to their
// median over the passes before they are summed, or before the median
// over cells is taken, so that a burst of host noise in one pass moves no
// metric by more than that cell's share. A calibration burst precedes
// every timed cell, and the host times are reported in reference
// seconds. The first pass is checked. Cells on the sharded engine are
// also compared with a serial reference of the smallest machine, run
// once untimed.
func runSim(cells []simCell, o runOpts) *report {
	r := newReport()
	rng := rand.New(rand.NewPCG(o.seed, 0))
	var host hostSpeed
	setupS := make([][]float64, len(cells)) // set-up seconds
	jobS := make([][]float64, len(cells))   // set-up plus run seconds
	runS := make([][]float64, len(cells))   // run seconds
	for i := 0; i < setupPasses; i++ {
		for _, k := range rng.Perm(len(cells)) {
			runtime.GC()
			_, d, err := buildCell(cells[k], false)
			if err != nil {
				r.attempted++
				r.fail("%s set-up: %v", cells[k].key(), err)
				continue
			}
			setupS[k] = append(setupS[k], d.Seconds())
		}
	}

	first := make([]cellOut, len(cells))
	ok := make([]bool, len(cells))
	last := make([]time.Duration, len(cells)) // each cell's latest set-up plus run time
	start := time.Now()
passes:
	for pass := 0; ; pass++ {
		for _, k := range rng.Perm(len(cells)) {
			c := cells[k]
			if pass >= 2 && time.Since(start)+last[k] > o.seconds {
				break passes
			}
			r.attempted++
			runtime.GC()
			host.sample()
			out, err := runCell(c, o.traced, pass == 0)
			last[k] = out.setup + out.run
			if err != nil {
				r.fail("%s pass %d: %v", c.key(), pass, err)
				continue
			}
			if pass == 0 {
				first[k], ok[k] = out, true
			} else if !ok[k] || !out.sameResult(first[k]) {
				r.fail("%s pass %d: results differ from pass 0", c.key(), pass)
				continue
			}
			setupS[k] = append(setupS[k], out.setup.Seconds())
			jobS[k] = append(jobS[k], (out.setup + out.run).Seconds())
			runS[k] = append(runS[k], out.run.Seconds())
			r.span("setup", out.setup)
			r.span("check", out.check)
			if c.Kernel != nil {
				r.span("refgen", out.gen)
				r.span("drive", out.run-out.gen)
			} else {
				r.span("tracegen", out.gen)
				r.span("tracesim", out.run-out.gen)
			}
		}
	}
	checkSerialReference(cells, first, ok, r)

	var setup, job, drive, refs float64
	var cellMS, sampleMS []float64
	for k, c := range cells {
		if len(jobS[k]) == 0 {
			continue
		}
		setup += median(setupS[k])
		job += median(jobS[k])
		cellMS = append(cellMS, 1e3*median(jobS[k]))
		for _, s := range jobS[k] {
			sampleMS = append(sampleMS, 1e3*s)
		}
		if c.Kernel != nil {
			drive += median(runS[k])
			refs += float64(first[k].exec.Reads + first[k].exec.Writes)
		}
	}
	f := r.setHostTimes(&host, setup, job, refs, drive)
	r.set("req_p50_ms", f*median(cellMS))
	r.note("cell latency p50 %.1f ms, p90 %.1f ms (n=%d), measured", median(cellMS), quantile(sampleMS, 0.9), len(sampleMS))
	simResults(cells, first, ok, r)
	return r
}

// checkSerialReference reruns, untimed, the smallest machine's cells
// that ran on the sharded engine, serially, and requires identical
// statistics.
func checkSerialReference(cells []simCell, first []cellOut, ok []bool, r *report) {
	smallest := 0
	for _, c := range cells {
		if c.Workers > 1 && (smallest == 0 || c.Nodes < smallest) {
			smallest = c.Nodes
		}
	}
	for k, c := range cells {
		if c.Workers <= 1 || c.Nodes != smallest {
			continue
		}
		c.Workers = 1
		r.attempted++
		ref, err := runCell(c, false, false)
		switch {
		case err != nil:
			r.fail("%s serial reference: %v", c.key(), err)
		case !ok[k] || !ref.sameResult(first[k]):
			r.fail("%s: sharded statistics differ from the serial reference", c.key())
		}
	}
}

// simResults derives the simulated metrics, the live heap, the work
// counters and the figures digest from the first pass.
func simResults(cells []simCell, first []cellOut, ok []bool, r *report) {
	var s core.Stats
	var traceRecs uint64
	var ctocSw, ctoc uint64
	heap := map[int]float64{}
	fftCycles := map[[2]int]float64{}
	h := sha256.New()
	for k, c := range cells {
		if !ok[k] {
			continue
		}
		o := first[k]
		fmt.Fprintf(h, "%s %+v %+v\n", c.key(), o.exec, o.trace)
		heap[c.Nodes] = max(heap[c.Nodes], o.heapMB)
		if c.Kernel == nil {
			traceRecs += o.trace.Refs
			continue
		}
		e := o.exec
		s.Reads += e.Reads
		s.Writes += e.Writes
		s.Cycles += e.Cycles
		s.ReadMisses += e.ReadMisses
		s.ReadCtoCHome += e.ReadCtoCHome
		s.ReadCtoCSwitch += e.ReadCtoCSwitch
		s.SDirHits += e.SDirHits
		s.SDirInserts += e.SDirInserts
		s.SDirRetries += e.SDirRetries
		s.SDirEvictions += e.SDirEvictions
		s.HomeReads += e.HomeReads
		s.HomeOccupancy += e.HomeOccupancy
		s.Retries += e.Retries
		s.NetSent += e.NetSent
		s.NetFlitHops += e.NetFlitHops
		if c.Entries > 0 {
			ctocSw += e.ReadCtoCSwitch
			ctoc += e.CtoC()
		}
		if c.App == "fft" {
			fftCycles[[2]int{c.Nodes, c.Entries}] = float64(e.Cycles)
		}
	}
	r.note("figures_digest %x", h.Sum(nil))
	for _, kv := range []struct {
		name string
		v    uint64
	}{
		{"refs", s.Reads + s.Writes}, {"sim_cycles", uint64(s.Cycles)},
		{"read_misses", s.ReadMisses}, {"ctoc_home", s.ReadCtoCHome}, {"ctoc_switch", s.ReadCtoCSwitch},
		{"sdir_hits", s.SDirHits}, {"sdir_inserts", s.SDirInserts}, {"sdir_retries", s.SDirRetries},
		{"sdir_evictions", s.SDirEvictions}, {"home_reads", s.HomeReads},
		{"home_busy_cycles", s.HomeOccupancy}, {"node_retries", s.Retries},
		{"net_msgs", s.NetSent}, {"flit_hops", s.NetFlitHops}, {"trace_recs", traceRecs},
	} {
		r.set("count."+kv.name, float64(kv.v))
	}
	if ctoc > 0 {
		r.set("ratio.sdir_hit", float64(ctocSw)/float64(ctoc))
	}
	liveHeap := 0.0
	for n, mb := range heap {
		r.set(fmt.Sprintf("live_heap_mb.%dn", n), mb)
		liveHeap = max(liveHeap, mb)
	}
	r.set("live_heap_mb", liveHeap)
	smallest := 0
	for key, base := range fftCycles {
		sd, ok := fftCycles[[2]int{key[0], 1024}]
		if key[1] != 0 || !ok || base == 0 {
			continue
		}
		r.set(fmt.Sprintf("ratio.exec_1k.%dn", key[0]), sd/base)
		if smallest == 0 || key[0] < smallest {
			smallest = key[0]
			r.set("exec_ratio_1k", sd/base)
		}
	}
}
