// Package swcache implements the switch cache extension the paper's
// conclusion proposes: combining DRESAR with the authors' earlier
// switch cache framework (Iyer & Bhuyan, HPCA-5) so that switches
// serve not only dirty blocks (by re-routing to the owner) but also
// recently read *clean* data directly from a small SRAM data cache.
//
// Each participating switch caches the payload of read replies that
// flow through it. A later read request that hits is sunk and answered
// with a marked ReadReply from the switch — no home-node hop, no DRAM.
//
// Coherence: an entry is dropped whenever any message that can change
// or transfer the block passes the switch (write requests and replies,
// CtoC requests, copybacks, writebacks, invalidations). This is
// sufficient only for switches that every write to the block must
// traverse — in the dance-hall BMIN, exactly the top (memory side)
// switches: every WriteReq to block b passes TopOf(home(b)). Only the
// top stage therefore caches; caching in lower stages would require a
// sharer-style tracking protocol (the GLOW/MIND direction the paper
// contrasts itself with).
//
// A hit generates two messages: the marked data reply to the
// requester, and an *add-sharer note* (a marked, data-bearing copyback
// from the requester's address) to the home, which folds the new
// sharer into the full map — or, if ownership moved in the window,
// purges the requester's copy with an invalidation. This lets the
// requester cache switch-served blocks like any other fill while the
// map stays exact.
package swcache

import (
	"fmt"

	"dresar/internal/cache"
	"dresar/internal/mesg"
	"dresar/internal/sim"
	"dresar/internal/topo"
	"dresar/internal/xbar"
)

// Config sizes the per-switch data caches.
type Config struct {
	// Entries is the block count per switch, in 4-way sets.
	Entries int
}

// ways is the data caches' associativity.
const ways = 4

// DefaultConfig returns a 512-entry 4-way top-stage cache (16KB of
// data per switch at 32-byte blocks — SRAM comparable to the paper's
// switch buffering).
func DefaultConfig() Config {
	return Config{Entries: 512}
}

// Validate reports why New would reject cfg: the entries must form a
// power-of-two number of 4-way sets.
func (cfg Config) Validate() error {
	if err := cfg.array().Validate(); err != nil {
		return fmt.Errorf("swcache: %w", err)
	}
	return nil
}

// array is one switch's data cache, of the machine's 32-byte blocks.
func (cfg Config) array() cache.Config {
	return cache.Config{SizeBytes: cfg.Entries * 32, Ways: ways, BlockBytes: 32}
}

// Stats counts switch-cache events across the fabric.
type Stats struct {
	Inserts     uint64
	Hits        uint64 // reads served from a switch cache
	Invalidates uint64
	Evictions   uint64
}

// Fabric implements xbar.Snooper for the switch-cache protocol.
type Fabric struct {
	tp *topo.T
	// caches holds every switch's data cache by switch ordinal; only
	// the top stage's are ever filled. A line's data word is the
	// block's version. Their Stats count the hits (a read request's
	// Access) and evictions; stats counts the rest.
	caches []*cache.Cache
	stats  Stats
}

// TotalStats returns the fabric-wide counters.
func (f *Fabric) TotalStats() Stats {
	s := f.stats
	for _, c := range f.caches {
		s.Hits += c.Stats.Hits
		s.Evictions += c.Stats.Evictions
	}
	return s
}

// New builds the fabric.
func New(tp *topo.T, cfg Config) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Fabric{tp: tp, caches: make([]*cache.Cache, tp.NumSwitches())}
	for i := range f.caches {
		f.caches[i] = cache.MustNew(cfg.array())
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

// Snoop implements xbar.Snooper.
func (f *Fabric) Snoop(sw topo.SwitchID, m *mesg.Message, now sim.Cycle) xbar.Action {
	if sw.Stage != f.tp.Stages-1 {
		return xbar.Action{}
	}
	c := f.caches[f.tp.SwitchOrdinal(sw)]
	switch m.Kind {
	case mesg.ReadReply:
		c.Insert(m.Addr, cache.Shared, m.Data)
		f.stats.Inserts++
	case mesg.ReadReq:
		if st, version := c.Access(m.Addr); st != cache.Invalid {
			return xbar.Action{
				Sink: true,
				Generated: []*mesg.Message{
					{
						Kind: mesg.ReadReply, Addr: m.Addr, Src: m.Src, Dst: mesg.P(m.Requester),
						Requester: m.Requester, Data: version, Marked: true,
						SwitchCache: true, Issued: m.Issued,
					},
					// Add-sharer note: a marked copyback tells the home
					// the requester now holds a shared copy, so the full
					// map stays exact and the requester may cache the
					// block. If ownership moved meanwhile, the home's
					// stale-copyback purge invalidates the requester.
					{
						Kind: mesg.CopyBack, Addr: m.Addr, Src: mesg.P(m.Requester), Dst: m.Dst,
						Requester: m.Requester, Data: version, Marked: true,
					},
				},
			}
		}
	case mesg.WriteReq, mesg.WriteReply, mesg.CtoCReq, mesg.CtoCReply,
		mesg.CopyBack, mesg.WriteBack, mesg.Inval:
		// Any message implying the block is (becoming) dirty somewhere
		// kills the cached clean copy. CtoCReply matters even though it
		// travels processor-to-processor: it proves an owner holds a
		// version newer than the one cached here, so serving later
		// reads from this entry would hand out stale data.
		if _, _, ok := c.Invalidate(m.Addr); ok {
			f.stats.Invalidates++
		}
	case mesg.InvalAck, mesg.WBAck, mesg.Nack, mesg.Retry:
		// Data-free control traffic: carries no version information.
	}
	return xbar.Action{}
}

// Lookup exposes an entry for tests.
func (f *Fabric) Lookup(sw topo.SwitchID, b uint64) (uint64, bool) {
	st, version := f.caches[f.tp.SwitchOrdinal(sw)].Probe(b)
	return version, st != cache.Invalid
}

// Combined chains the switch directory and the switch cache on the
// same fabric, as the paper's conclusion envisions: the directory
// handles dirty blocks; a read that misses the directory may still hit
// clean data in the cache. Either may be nil.
type Combined struct {
	Dir   xbar.Snooper
	Cache xbar.Snooper
}

// Snoop implements xbar.Snooper: the directory sees the message first
// (its Table-1 semantics must not be bypassed); if the message
// survives, the cache gets it. Delays add; the first sink wins.
func (c Combined) Snoop(sw topo.SwitchID, m *mesg.Message, now sim.Cycle) xbar.Action {
	var out xbar.Action
	if c.Dir != nil {
		out = c.Dir.Snoop(sw, m, now)
		if out.Sink {
			return out
		}
	}
	if c.Cache != nil {
		a := c.Cache.Snoop(sw, m, now)
		out.ExtraDelay += a.ExtraDelay
		out.Generated = append(out.Generated, a.Generated...)
		out.Sink = a.Sink
	}
	return out
}
