// Package cache implements the simulator's set-associative array,
// Cache, and the processor-side memory hierarchy of Table 2 built on
// it: L1 and L2 caches with 32-byte lines, MSI line states, strict
// inclusion (every L1 line is present in L2), LRU replacement, a
// release-consistency write buffer, MSHRs for outstanding misses, and
// a victim buffer that holds evicted dirty blocks until the home
// acknowledges their writeback (which is what lets an in-flight
// cache-to-cache request always find its data at the owner even if
// the owner just replaced the line).
//
// Every line carries a 64-bit data word instead of data bytes. In the
// hierarchy it is the block's version: writers increment it, and the
// test suite uses it to prove value coherence end to end. The same
// array also serves as the trace-driven simulator's switch
// directories, whose data word is the owner, and as the switch caches
// of package swcache, whose data word is the cached version.
package cache

import "fmt"

// State is an MSI cache-line state.
type State uint8

const (
	// Invalid lines hold no data.
	Invalid State = iota
	// Shared lines are clean and possibly replicated.
	Shared
	// Modified lines are dirty and exclusive.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Config sizes one cache level.
type Config struct {
	SizeBytes    int
	Ways         int
	BlockBytes   int
	AccessCycles uint64
}

// Stats counts cache events.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64 // total replacements of valid lines
	DirtyEvic uint64 // replacements that produced a writeback
}

// Cache is one set-associative cache level. Each line is 18 bytes in
// four flat per-line arrays (set s occupies indices [s*ways,
// (s+1)*ways) of each), with no pointers and no per-set allocation:
// lookups are the hottest operation in the whole simulator, and a
// 1024-node machine holds 4.7M lines.
//
// The tag, state and rank arrays are built at the first Insert, since
// on a big machine most processors may never reference memory. Until
// then tags holds a single all-noTag set and mask is 0, so find runs
// its usual loop and misses, and state and rank are nil. The version
// array is built later still, at the first Insert or SetData of a
// non-zero version: until then data is nil and every line's version
// reads 0, which is what a zeroed array would hold. A cache that never
// stores a version (a trace-driven processor's) costs 10 bytes per
// line.
//
// tags holds each way's tag, with invalid ways holding noTag, so find
// scans 8 bytes per way (a whole 4-way set fits in one host cache
// line) and needs no State load: a single uint64 compare decides
// presence. Every site that changes a way's tag or validity must keep
// tags and state in sync.
//
// rank orders a set's ways by last use: the ranks of a set are always
// a permutation of 0..ways-1, and ways-1 is the most recently used.
// Replacement takes the first Invalid way, else the lowest rank.
type Cache struct {
	cfg   Config
	tags  []uint64
	data  []uint64 // block version
	state []State
	rank  []uint8
	ways  uint64
	shift uint // log2(block)
	mask  uint64
	Stats Stats
}

// noTag marks an invalid way in tags. Real tags are addr>>shift with
// shift >= 1, so all-ones is unreachable for any address below 2^63.
const noTag = ^uint64(0)

// maxWays is the largest associativity a rank byte can order.
const maxWays = 256

// Validate reports why New would reject cfg: the block size must be a
// power of two, the ways between 1 and 256, and the lines a power-of-two
// number of whole sets.
func (cfg Config) Validate() error {
	if cfg.BlockBytes <= 0 || cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		return fmt.Errorf("cache: block size %d not a power of two", cfg.BlockBytes)
	}
	if cfg.Ways <= 0 || cfg.Ways > maxWays {
		return fmt.Errorf("cache: ways %d not in [1, %d]", cfg.Ways, maxWays)
	}
	nlines := cfg.SizeBytes / cfg.BlockBytes
	if nlines <= 0 || nlines%cfg.Ways != 0 {
		return fmt.Errorf("cache: %d bytes / %dB blocks not divisible into %d ways", cfg.SizeBytes, cfg.BlockBytes, cfg.Ways)
	}
	if nsets := nlines / cfg.Ways; nsets&(nsets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", nsets)
	}
	return nil
}

// New builds a cache from cfg, validating geometry. The line arrays
// are left to the first Insert.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg, tags: make([]uint64, cfg.Ways), ways: uint64(cfg.Ways)}
	for i := range c.tags {
		c.tags[i] = noTag
	}
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		c.shift++
	}
	return c, nil
}

// build gives the cache its tag, state and rank arrays: every way
// invalid (noTag) and each set's ranks 0..ways-1.
func (c *Cache) build() {
	nlines := c.cfg.SizeBytes / c.cfg.BlockBytes
	c.tags = make([]uint64, nlines)
	c.state, c.rank = make([]State, nlines), make([]uint8, nlines)
	for i := range c.tags {
		c.tags[i] = noTag
	}
	for base := 0; base < nlines; base += c.cfg.Ways {
		for w := 0; w < c.cfg.Ways; w++ {
			c.rank[base+w] = uint8(w)
		}
	}
	c.mask = uint64(nlines/c.cfg.Ways - 1)
}

// MustNew is New, panicking on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// AccessCycles is the hit latency of this level.
func (c *Cache) AccessCycles() uint64 { return c.cfg.AccessCycles }

// BlockAlign truncates addr to its block base.
func (c *Cache) BlockAlign(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.BlockBytes) - 1)
}

func (c *Cache) setIdx(addr uint64) uint64 { return (addr >> c.shift) & c.mask }
func (c *Cache) tag(addr uint64) uint64    { return addr >> c.shift }

// version returns line i's version: 0 until the version array exists.
func (c *Cache) version(i int) uint64 {
	if c.data == nil {
		return 0
	}
	return c.data[i]
}

// setVersion stores line i's version, building the version array at
// the first non-zero one.
func (c *Cache) setVersion(i int, v uint64) {
	if c.data == nil {
		if v == 0 {
			return
		}
		c.data = make([]uint64, len(c.tags))
	}
	c.data[i] = v
}

// find returns the flat index of the way holding addr, or -1. It
// scans the dense tags array (invalid ways hold noTag), the
// simulator's hottest loop.
func (c *Cache) find(addr uint64) int {
	base := c.setIdx(addr) * c.ways
	tg := c.tag(addr)
	tags := c.tags[base : base+c.ways]
	for w := range tags {
		if tags[w] == tg {
			return int(base) + w
		}
	}
	return -1
}

// touch makes line i, of the set whose first line is base, the set's
// most recently used way: it takes rank ways-1 and every way ranked
// above it drops one. A touch of the most recent way writes nothing.
func (c *Cache) touch(base uint64, i int) {
	r, top := c.rank[i], uint8(c.ways-1)
	if r == top {
		return
	}
	ranks := c.rank[base : base+c.ways]
	for w, rw := range ranks {
		if rw > r {
			ranks[w] = rw - 1
		}
	}
	c.rank[i] = top
}

// Probe returns the line state without updating LRU or stats; Invalid
// means not present.
func (c *Cache) Probe(addr uint64) (State, uint64) {
	if i := c.find(addr); i >= 0 {
		return c.state[i], c.version(i)
	}
	return Invalid, 0
}

// Access looks up addr, updating LRU and hit/miss statistics. It
// returns the line's state and version; Invalid means a miss.
func (c *Cache) Access(addr uint64) (State, uint64) {
	i := c.find(addr)
	if i < 0 {
		c.Stats.Misses++
		return Invalid, 0
	}
	c.touch(c.setIdx(addr)*c.ways, i)
	c.Stats.Hits++
	return c.state[i], c.version(i)
}

// Victim describes a line displaced by Insert.
type Victim struct {
	Addr  uint64
	State State
	Data  uint64
}

// Insert places addr with the given state and data, evicting the LRU
// way if the set is full. It returns the displaced valid line, if any.
// Inserting a block that is already present updates it in place.
func (c *Cache) Insert(addr uint64, st State, data uint64) (Victim, bool) {
	if st == Invalid {
		panic("cache: Insert with Invalid state")
	}
	if c.state == nil {
		c.build()
	}
	base := c.setIdx(addr) * c.ways
	if i := c.find(addr); i >= 0 {
		c.state[i] = st
		c.setVersion(i, data)
		c.touch(base, i)
		return Victim{}, false
	}
	i := int(base)
	for w := i; w < int(base+c.ways); w++ {
		if c.state[w] == Invalid {
			i = w
			break
		}
		if c.rank[w] < c.rank[i] {
			i = w
		}
	}
	var out Victim
	had := c.state[i] != Invalid
	if had {
		c.Stats.Evictions++
		if c.state[i] == Modified {
			c.Stats.DirtyEvic++
		}
		out = Victim{Addr: c.tags[i] << c.shift, State: c.state[i], Data: c.version(i)}
	}
	c.tags[i], c.state[i] = c.tag(addr), st
	c.setVersion(i, data)
	c.touch(base, i)
	return out, had
}

// Invalidate removes addr; it reports whether the line was present and
// returns its prior state and data (so dirty data can be forwarded).
func (c *Cache) Invalidate(addr uint64) (State, uint64, bool) {
	i := c.find(addr)
	if i < 0 {
		return Invalid, 0, false
	}
	st := c.state[i]
	c.state[i], c.tags[i] = Invalid, noTag
	return st, c.version(i), true
}

// Downgrade moves a Modified line to Shared (after a CtoC read); it
// reports whether the line was present in M.
func (c *Cache) Downgrade(addr uint64) bool {
	if i := c.find(addr); i >= 0 && c.state[i] == Modified {
		c.state[i] = Shared
		return true
	}
	return false
}

// SetData overwrites the version of a present line (a store hit).
func (c *Cache) SetData(addr uint64, data uint64) bool {
	if i := c.find(addr); i >= 0 {
		c.setVersion(i, data)
		return true
	}
	return false
}

// Lines calls fn for every valid line; used by invariant checks. An
// unbuilt cache has none.
func (c *Cache) Lines(fn func(addr uint64, st State, data uint64)) {
	for i, st := range c.state {
		if st != Invalid {
			fn(c.tags[i]<<c.shift, st, c.version(i))
		}
	}
}
