// Package tracesim is the paper's trace-driven simulator (Section
// 5.1, Table 3): a single-issue processor per node, one 2MB 4-way
// set-associative cache per processor, the MSI cache protocol, the
// full-map directory protocol, constant memory-access latencies, and
// the switch-directory interconnect modeled at protocol level (which
// switches see which messages) without link timing. Writes are treated
// as cache hits (the paper's release-consistency assumption): they
// cost nothing but still drive directory and ownership state.
package tracesim

import (
	"fmt"

	"dresar/internal/cache"
	"dresar/internal/sim"
	"dresar/internal/topo"
	"dresar/internal/trace"
)

// Config mirrors Table 3.
type Config struct {
	Procs int
	Radix int

	CacheBytes int
	Ways       int
	BlockBytes int

	CacheAccess uint64 // hit latency
	LocalMem    uint64 // clean miss, home on this node
	RemoteMem   uint64 // clean miss, remote home
	CtoCLocal   uint64 // dirty miss via local home
	CtoCRemote  uint64 // dirty miss via remote home
	SDirHit     uint64 // dirty miss served by a switch directory

	// CPIGap charges non-memory work per reference (single-issue).
	CPIGap    uint64
	PageBytes int

	// SDirEntries sizes the 4-way switch directory in every switch; 0
	// is the base system, with none.
	SDirEntries int
}

// DefaultConfig returns Table 3's parameters.
func DefaultConfig() Config {
	return Config{
		Procs: 16, Radix: 4,
		CacheBytes: 2 << 20, Ways: 4, BlockBytes: 32,
		CacheAccess: 8,
		LocalMem:    100, RemoteMem: 260,
		CtoCLocal: 220, CtoCRemote: 320,
		SDirHit: 200,
		CPIGap:  2, PageBytes: 4096,
	}
}

// WithSDir returns a copy with an entries-sized 4-way switch
// directory in every switch.
func (c Config) WithSDir(entries int) Config {
	c.SDirEntries = entries
	return c
}

// Stats is the roll-up the TPC figures are built from.
type Stats struct {
	Refs        uint64
	Reads       uint64
	ReadHits    uint64
	ReadMisses  uint64
	Clean       uint64
	CtoCHome    uint64 // Figure 8 numerator
	CtoCSwitch  uint64
	StaleSDir   uint64 // switch hits bounced by a stale entry
	Writes      uint64
	ReadLatency uint64
	CtoCLatency uint64 // read latency attributable to dirty misses
	ReadStall   uint64
	ExecCycles  uint64 // max per-processor clock
}

// CtoCLatencyShare is the dirty-miss fraction of total read latency
// (the paper's Section 2: TPC-C's 38% CtoC count is a 49% latency
// component).
func (s Stats) CtoCLatencyShare() float64 {
	if s.ReadLatency == 0 {
		return 0
	}
	return float64(s.CtoCLatency) / float64(s.ReadLatency)
}

// CtoC returns total dirty-miss services.
func (s Stats) CtoC() uint64 { return s.CtoCHome + s.CtoCSwitch }

// CtoCFraction is Figure 1's dirty share of read misses.
func (s Stats) CtoCFraction() float64 {
	if s.ReadMisses == 0 {
		return 0
	}
	return float64(s.CtoC()) / float64(s.ReadMisses)
}

// AvgReadLatency is Figure 9's metric.
func (s Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ReadLatency) / float64(s.Reads)
}

// dent is one block's home-directory record.
type dent struct {
	state   uint8 // 0 uncached, 1 shared, 2 modified
	owner   int
	sharers uint64 // bit p set: processor p holds a copy
}

const (
	dUncached = iota
	dShared
	dModified
)

// Sim is one trace-driven machine instance.
type Sim struct {
	cfg    Config
	tp     *topo.T
	caches []*cache.Cache
	// dir is the home directory. Synthetic traces address a dense
	// block region starting at zero, so records live in a flat slice
	// indexed by block number and grown on demand; blocks past
	// denseDirBlocks (sparse file-driven traces) overflow into dirHi.
	dir        []dent
	dirHi      map[uint64]*dent
	blockShift uint
	// sdirs are the switch directories, indexed by switch ordinal, or
	// nil in the base system. Only MODIFIED entries exist in the
	// zero-time model (transients resolve instantaneously), so each
	// holds a block as a Modified line whose data word is the owner.
	// Lookups use Probe: a switch directory's LRU order changes only
	// when an entry is installed.
	sdirs  []*cache.Cache
	clocks []uint64

	// Profile accumulates per-block (miss, CtoC) counts for Figure 2.
	Profile *sim.BlockProfile
	Stats   Stats

	// Stop, when non-nil, is the cooperative-cancellation probe: Run
	// polls it every stopPollRefs processed records and returns early
	// with the partial Stats when it reports true (Stopped then
	// reports the truncation). Same contract as sim.Engine's stop
	// check: safe to read while another goroutine flips its source.
	Stop    func() bool
	stopped bool

	// swBuf is the reusable scratch for per-record route walks; Run
	// simulates on one goroutine, so one buffer per Sim keeps the hot
	// path allocation-free at any stage count.
	swBuf []topo.SwitchID
}

// stopPollRefs is Run's cancellation poll interval in trace records.
const stopPollRefs = 1024

// Run's reader goroutine hands it records readAheadBatch at a time, in
// readAheadBufs buffers that circulate between the two: one being
// filled, one being simulated and one queued between them.
const (
	readAheadBatch = 4096
	readAheadBufs  = 3
)

// Stopped reports whether the last Run returned early because the
// Stop probe tripped, making its Stats a partial measurement.
func (s *Sim) Stopped() bool { return s.stopped }

// New builds a simulator from cfg. It rejects machines of more than
// 64 processors, which the home directory's sharer map cannot name,
// and a switch-directory size the cache array cannot build.
func New(cfg Config) (*Sim, error) {
	if cfg.Procs > 64 {
		return nil, fmt.Errorf("tracesim: %d processors exceed the 64 a sharer map can name", cfg.Procs)
	}
	tp, err := topo.New(cfg.Procs, cfg.Radix)
	if err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:     cfg,
		tp:      tp,
		caches:  make([]*cache.Cache, cfg.Procs),
		dirHi:   make(map[uint64]*dent),
		clocks:  make([]uint64, cfg.Procs),
		Profile: sim.NewBlockProfile(cfg.BlockBytes),
	}
	for i := range s.caches {
		s.caches[i] = cache.MustNew(cache.Config{
			SizeBytes: cfg.CacheBytes, Ways: cfg.Ways,
			BlockBytes: cfg.BlockBytes, AccessCycles: cfg.CacheAccess,
		})
	}
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		s.blockShift++
	}
	if cfg.SDirEntries != 0 {
		sd := cache.Config{SizeBytes: cfg.SDirEntries * cfg.BlockBytes, Ways: 4, BlockBytes: cfg.BlockBytes}
		if err := sd.Validate(); err != nil {
			return nil, fmt.Errorf("tracesim: switch directory: %w", err)
		}
		s.sdirs = make([]*cache.Cache, tp.NumSwitches())
		for i := range s.sdirs {
			s.sdirs[i] = cache.MustNew(sd)
		}
	}
	return s, nil
}

// MustNew panics on error.
func MustNew(cfg Config) *Sim {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *Sim) home(b uint64) int { return int(b/uint64(s.cfg.PageBytes)) % s.cfg.Procs }

// denseDirBlocks bounds the flat directory at 2^21 records (~48 MiB
// fully grown); the synthetic workloads use a few hundred thousand.
const denseDirBlocks = 1 << 21

// ent returns b's directory record. The returned pointer is
// invalidated by the next ent or fill call (the dense slice may
// grow): finish with it before installing blocks.
func (s *Sim) ent(b uint64) *dent {
	if idx := b >> s.blockShift; idx < denseDirBlocks {
		for uint64(len(s.dir)) <= idx {
			s.dir = append(s.dir, dent{})
		}
		return &s.dir[idx]
	}
	e, ok := s.dirHi[b]
	if !ok {
		e = &dent{}
		s.dirHi[b] = e
	}
	return e
}

// sdInvalidate clears the switch entries for b while its home record
// is Modified with the given owner, as the record leaves Modified or
// changes owner (the zero-time equivalent of the copyback/writeback
// invalidations travelling the forward path).
//
// A block's entries exist only while its home record is Modified, and
// only on the backward path from home(b) to the record's owner:
// sdInsertBackward, the only insert, runs in write right after every
// entry for b has been cleared and the record made Modified with the
// writer as owner, and every later transition that leaves Modified or
// changes the owner (finishCtoC, a dirty eviction in fill, the next
// write) clears that path here, with the owner from before the
// transition. Replacement only removes entries. So walking that one
// path clears every entry for b (2 switches of 8 at 16 nodes and radix
// 4), and a record that is not Modified has none to clear.
func (s *Sim) sdInvalidate(b uint64, owner int) {
	s.swBuf = s.tp.AppendSwitchesBackward(s.swBuf[:0], s.home(b), owner)
	for _, sw := range s.swBuf {
		s.sdirs[s.tp.SwitchOrdinal(sw)].Invalidate(b)
	}
}

// sdInsertBackward installs ownership along the home→owner backward
// path (the write reply's route).
func (s *Sim) sdInsertBackward(b uint64, home, owner int) {
	s.swBuf = s.tp.AppendSwitchesBackward(s.swBuf[:0], home, owner)
	for _, sw := range s.swBuf {
		s.sdirs[s.tp.SwitchOrdinal(sw)].Insert(b, cache.Modified, uint64(owner))
	}
}

// Run processes the whole trace and returns the stats. When the Stop
// probe is set and trips, Run returns the partial stats accumulated so
// far and Stopped reports true.
//
// src is read ahead on another goroutine, in batches of readAheadBatch
// records, while Run simulates them in source order on its own; the
// caller must not touch src during Run. Run returns only after that
// goroutine has exited, on every path, and the reader's last act, the
// close of the channel Run receives from, orders its writes before
// Run's return; so src is safe to read once Run returns: a
// trace.ReaderSource's Err, for one. A panic in src.Next is
// raised again on Run's goroutine with the same value, once the records
// read before it have been simulated.
func (s *Sim) Run(src trace.Source) Stats {
	s.stopped = false
	if p := s.simulate(src); p != nil {
		panic(p)
	}
	for _, c := range s.clocks {
		if c > s.Stats.ExecCycles {
			s.Stats.ExecCycles = c
		}
	}
	return s.Stats
}

// simulate steps through src's records until the trace ends or the
// Stop probe trips, and returns the value src.Next panicked with, or
// nil. A reader goroutine fills batches from src while this one
// simulates the previous batch. The reader never blocks on a send:
// full holds every buffer there is. It stops when the trace ends, or
// after the batch it is filling when simulate returns, and simulate
// waits for it to exit before returning.
func (s *Sim) simulate(src trace.Source) (panicked any) {
	free := make(chan []trace.Rec, readAheadBufs)
	full := make(chan []trace.Rec, readAheadBufs)
	quit := make(chan struct{})
	for i := 0; i < readAheadBufs; i++ {
		free <- make([]trace.Rec, 0, readAheadBatch)
	}
	go func() {
		var buf []trace.Rec
		defer close(full)
		defer func() {
			// Hand over the records read before the panic: a serial
			// run would have simulated them.
			if panicked = recover(); panicked != nil {
				full <- buf
			}
		}()
		for {
			select {
			case buf = <-free:
			case <-quit:
				return
			}
			select {
			case <-quit: // both were ready: quit wins
				return
			default:
			}
			for len(buf) < readAheadBatch {
				rec, ok := src.Next()
				if !ok {
					full <- buf
					return
				}
				buf = append(buf, rec)
			}
			full <- buf
		}
	}()
	// Stop the reader and wait for it on every return, a panic in step
	// included; the close of full orders its writes before ours.
	defer func() {
		close(quit)
		for range full {
		}
	}()
	poll := 0
	for buf := range full {
		for _, rec := range buf {
			s.step(rec)
			if s.Stop != nil {
				if poll++; poll >= stopPollRefs {
					poll = 0
					if s.Stop() {
						s.stopped = true
						return
					}
				}
			}
		}
		free <- buf[:0]
	}
	return
}

func (s *Sim) step(rec trace.Rec) {
	p := int(rec.Pid)
	b := rec.Addr &^ uint64(s.cfg.BlockBytes-1)
	s.Stats.Refs++
	s.clocks[p] += s.cfg.CPIGap
	if rec.Op == trace.Store {
		s.Stats.Writes++
		s.write(p, b)
		return
	}
	s.Stats.Reads++
	ctocBefore := s.Stats.CtoCHome + s.Stats.CtoCSwitch
	lat := s.read(p, b)
	s.Stats.ReadLatency += lat
	if s.Stats.CtoCHome+s.Stats.CtoCSwitch > ctocBefore {
		s.Stats.CtoCLatency += lat
	}
	if lat > s.cfg.CacheAccess {
		s.Stats.ReadStall += lat - s.cfg.CacheAccess
	}
	s.clocks[p] += lat
}

// read services a load and returns its latency.
func (s *Sim) read(p int, b uint64) uint64 {
	c := s.caches[p]
	if st, _ := c.Access(b); st != cache.Invalid {
		s.Stats.ReadHits++
		return s.cfg.CacheAccess
	}
	s.Stats.ReadMisses++
	h := s.home(b)
	e := s.ent(b)
	if e.state != dModified {
		// Clean: served from memory.
		s.Stats.Clean++
		s.Profile.Add(b, 1, 0)
		e.state = dShared
		e.sharers |= 1 << uint(p)
		s.fill(p, b, cache.Shared)
		if h == p {
			return s.cfg.LocalMem
		}
		return s.cfg.RemoteMem
	}
	// Dirty: cache-to-cache transfer.
	s.Profile.Add(b, 1, 1)
	owner := e.owner
	if s.sdirs != nil {
		// Check the switch directories along the forward path.
		s.swBuf = s.tp.AppendSwitchesForward(s.swBuf[:0], p, h)
		for _, sw := range s.swBuf {
			d := s.sdirs[s.tp.SwitchOrdinal(sw)]
			if held, sdOwner := d.Probe(b); held != cache.Invalid {
				if st, _ := s.caches[sdOwner].Probe(b); st == cache.Modified || st == cache.Shared {
					// Served by the switch: re-routed to the owner.
					s.Stats.CtoCSwitch++
					s.finishCtoC(p, b, e, int(sdOwner))
					return s.cfg.SDirHit
				}
				// Stale entry: a NoData bounce, then home service.
				s.Stats.StaleSDir++
				d.Invalidate(b)
				s.Stats.CtoCHome++
				s.finishCtoC(p, b, e, owner)
				lat := s.cfg.CtoCRemote
				if h == p {
					lat = s.cfg.CtoCLocal
				}
				return s.cfg.SDirHit + lat
			}
		}
	}
	s.Stats.CtoCHome++
	s.finishCtoC(p, b, e, owner)
	if h == p {
		return s.cfg.CtoCLocal
	}
	return s.cfg.CtoCRemote
}

// finishCtoC applies the read-transfer state changes: the owner keeps
// a shared copy, the reader fills shared, the home map records both,
// and all switch entries die (the copyback's path in zero time).
func (s *Sim) finishCtoC(p int, b uint64, e *dent, owner int) {
	s.caches[owner].Downgrade(b)
	if s.sdirs != nil {
		s.sdInvalidate(b, e.owner)
	}
	e.state = dShared
	e.sharers = (1 << uint(owner)) | (1 << uint(p))
	e.owner = 0
	s.fill(p, b, cache.Shared)
}

// write retires a store: free under the release-consistency
// assumption, but ownership still moves.
func (s *Sim) write(p int, b uint64) {
	c := s.caches[p]
	if st, _ := c.Probe(b); st == cache.Modified {
		c.Access(b) // refresh LRU
		return
	}
	e := s.ent(b)
	// Purge every other copy.
	if e.state == dModified && e.owner != p {
		s.caches[e.owner].Invalidate(b)
	}
	if e.state == dShared {
		for q := 0; q < s.cfg.Procs; q++ {
			if q != p && e.sharers&(1<<uint(q)) != 0 {
				s.caches[q].Invalidate(b)
			}
		}
	}
	owned, prev := e.state == dModified, e.owner
	e.state, e.owner, e.sharers = dModified, p, 0
	s.fill(p, b, cache.Modified)
	if s.sdirs != nil {
		// The write request invalidates entries en route; the write
		// reply installs the new ownership along the backward path.
		if owned {
			s.sdInvalidate(b, prev)
		}
		s.sdInsertBackward(b, s.home(b), p)
	}
}

// fill installs a block, handling the dirty-eviction writeback.
func (s *Sim) fill(p int, b uint64, st cache.State) {
	v, had := s.caches[p].Insert(b, st, 0)
	if !had {
		return
	}
	ve := s.ent(v.Addr)
	if v.State == cache.Modified && ve.state == dModified && ve.owner == p {
		ve.state, ve.sharers = dUncached, 0
		if s.sdirs != nil {
			s.sdInvalidate(v.Addr, p)
		}
	} else if v.State == cache.Shared && ve.state == dShared {
		ve.sharers &^= 1 << uint(p)
	}
}
