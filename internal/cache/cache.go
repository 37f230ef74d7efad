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
// Each way of a Cache is one 64-bit line word holding its tag, state
// and LRU rank. Every line also carries a 64-bit data word instead of
// data bytes. In the hierarchy it is the block's version: writers
// increment it, and the test suite uses it to prove value coherence
// end to end. Cache is the simulator's only set-associative array: it
// also serves as the switch directories of package sdir and of the
// trace-driven simulator, whose data word names the owner, and as the
// switch caches of package swcache, whose data word is the cached
// version. A fourth state, Transient, pins a switch directory's line
// while its cache-to-cache transfer is in flight.
package cache

import "fmt"

// State is a line state: MSI, plus Transient for switch directories.
type State uint8

const (
	// Invalid lines hold no data.
	Invalid State = iota
	// Shared lines are clean and possibly replicated.
	Shared
	// Modified lines are dirty and exclusive.
	Modified
	// Transient lines are pinned: Insert never displaces one. A switch
	// directory holds a block Transient from the read it intercepts
	// until the copyback or writeback that ends the transfer passes.
	Transient
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	case Transient:
		return "T"
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

// Cache is one set-associative cache level. Each way is one 64-bit
// line word in a flat array (set s occupies indices [s*ways,
// (s+1)*ways)), holding the way's tag, LRU rank and state, so a
// 4-way set is one 32-byte run that a lookup and its LRU update read
// and write in place. There are no pointers and no per-set
// allocations: lookups are the hottest operation in the whole
// simulator, and a 1024-node machine holds 4.7M lines.
//
// The line words are built at the first Insert, since on a big machine
// most processors may never reference memory. Until then lines holds a
// single set of invalid ways and mask is 0, so find runs its usual loop
// and misses. The version array is built later still, at the first
// Insert or SetData of a non-zero version: until then data is nil and
// every line's version reads 0, which is what a zeroed array would
// hold. So a line costs 8 bytes, and 16 once its cache stores a
// version, which a trace-driven processor's cache never does.
//
// A set's ranks order its ways by last use: they are always a
// permutation of 0..ways-1, and ways-1 is the most recently used.
// Replacement takes the first Invalid way, else the lowest-ranked way
// that is not Transient.
//
// A copy of an unbuilt Cache is another unbuilt cache: the two share
// only the one set of invalid ways, which nothing writes, and each
// builds its own line words at its first Insert. A built Cache must
// not be copied.
type Cache struct {
	cfg   Config
	lines []uint64 // line words: tag<<tagShift | rank<<rankShift | state
	data  []uint64 // block version
	ways  uint64
	shift uint // log2(block)
	mask  uint64
	built bool
	Stats Stats
}

// A line word packs one way as tag<<tagShift | rank<<rankShift |
// state: the state in its low 2 bits, the LRU rank in the next 8
// and the tag (addr>>shift) in the top 54. An invalid way's tag field
// holds noTag. A tag fits only below noTag (with 32-byte blocks, for
// every address below 2^59-32): find misses any other address before
// it reads a way, so one tag compare decides presence with no state
// test, and Insert panics on one.
const (
	rankShift = 2
	tagShift  = 10
	stateMask = 1<<rankShift - 1
	rankMask  = 1<<(tagShift-rankShift) - 1
	rankOne   = 1 << rankShift
	noTag     = 1<<(64-tagShift) - 1
	// invalidWay is the word of an invalid way at rank 0.
	invalidWay = noTag << tagShift
)

// maxWays is the largest associativity the rank field can order.
const maxWays = rankMask + 1

func lineState(l uint64) State { return State(l & stateMask) }
func lineRank(l uint64) uint64 { return l >> rankShift & rankMask }

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

// New builds a cache from cfg, validating geometry. The line words
// are left to the first Insert.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg, lines: make([]uint64, cfg.Ways), ways: uint64(cfg.Ways)}
	for i := range c.lines {
		c.lines[i] = invalidWay
	}
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		c.shift++
	}
	return c, nil
}

// build gives the cache its line words: every way invalid and each
// set's ranks 0..ways-1.
func (c *Cache) build() {
	nlines := c.cfg.SizeBytes / c.cfg.BlockBytes
	c.lines = make([]uint64, nlines)
	for base := 0; base < nlines; base += c.cfg.Ways {
		for w := 0; w < c.cfg.Ways; w++ {
			c.lines[base+w] = invalidWay | uint64(w)<<rankShift
		}
	}
	c.mask = uint64(nlines/c.cfg.Ways - 1)
	c.built = true
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
		c.data = make([]uint64, len(c.lines))
	}
	c.data[i] = v
}

// find returns the flat index of the way holding addr, or -1: always
// -1 for an address whose tag does not fit a line word. It compares
// each way's tag field with addr's (invalid ways hold noTag), the
// simulator's hottest loop.
func (c *Cache) find(addr uint64) int {
	tg := c.tag(addr)
	if tg >= noTag {
		return -1
	}
	base := c.setIdx(addr) * c.ways
	set := c.lines[base : base+c.ways]
	for w, l := range set {
		if l>>tagShift == tg {
			return int(base) + w
		}
	}
	return -1
}

// touch makes line i, of the set whose first line is base, the set's
// most recently used way: it takes rank ways-1 and every way ranked
// above it drops one. A touch of the most recent way writes nothing.
func (c *Cache) touch(base uint64, i int) {
	r, top := lineRank(c.lines[i]), c.ways-1
	if r == top {
		return
	}
	set := c.lines[base : base+c.ways]
	for w, l := range set {
		if lineRank(l) > r {
			set[w] = l - rankOne
		}
	}
	c.lines[i] += (top - r) << rankShift
}

// Probe returns the line state without updating LRU or stats; Invalid
// means not present.
func (c *Cache) Probe(addr uint64) (State, uint64) {
	if i := c.find(addr); i >= 0 {
		return lineState(c.lines[i]), c.version(i)
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
	return lineState(c.lines[i]), c.version(i)
}

// Victim describes a line displaced by Insert.
type Victim struct {
	Addr  uint64
	State State
	Data  uint64
}

// Insert places addr with the given state and data, evicting the LRU
// way that is not Transient if the set is full. It returns the
// displaced valid line, if any. Into a set whose ways are all
// Transient it places nothing and returns the offered line as the
// victim. Inserting a block that is already present updates it in
// place, whatever its state. An address whose tag does not fit a line
// word panics.
func (c *Cache) Insert(addr uint64, st State, data uint64) (Victim, bool) {
	if st == Invalid || st > Transient {
		panic(fmt.Sprintf("cache: Insert with state %v", st))
	}
	tg := c.tag(addr)
	if tg >= noTag {
		panic(fmt.Sprintf("cache: Insert of address %#x: its tag does not fit a line word", addr))
	}
	if !c.built {
		c.build()
	}
	base := c.setIdx(addr) * c.ways
	if i := c.find(addr); i >= 0 {
		c.lines[i] = c.lines[i]&^stateMask | uint64(st)
		c.setVersion(i, data)
		c.touch(base, i)
		return Victim{}, false
	}
	i, low := -1, uint64(maxWays)
	for w, l := range c.lines[base : base+c.ways] {
		if lineState(l) == Invalid {
			i = w
			break
		}
		if r := lineRank(l); r < low && lineState(l) != Transient {
			i, low = w, r
		}
	}
	if i < 0 {
		return Victim{Addr: tg << c.shift, State: st, Data: data}, true
	}
	i += int(base)
	var out Victim
	l := c.lines[i]
	had := lineState(l) != Invalid
	if had {
		c.Stats.Evictions++
		if lineState(l) == Modified {
			c.Stats.DirtyEvic++
		}
		out = Victim{Addr: l >> tagShift << c.shift, State: lineState(l), Data: c.version(i)}
	}
	c.lines[i] = tg<<tagShift | l&(rankMask<<rankShift) | uint64(st)
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
	l := c.lines[i]
	c.lines[i] = invalidWay | l&(rankMask<<rankShift)
	return lineState(l), c.version(i), true
}

// Downgrade moves a Modified line to Shared (after a CtoC read); it
// reports whether the line was present in M.
func (c *Cache) Downgrade(addr uint64) bool {
	if i := c.find(addr); i >= 0 && lineState(c.lines[i]) == Modified {
		c.lines[i] = c.lines[i]&^stateMask | uint64(Shared)
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
	for i, l := range c.lines {
		if st := lineState(l); st != Invalid {
			fn(l>>tagShift<<c.shift, st, c.version(i))
		}
	}
}
