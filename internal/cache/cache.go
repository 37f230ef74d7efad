// Package cache implements the processor-side memory hierarchy of
// Table 2: set-associative L1 and L2 caches with 32-byte lines, MSI
// line states, strict inclusion (every L1 line is present in L2), LRU
// replacement, a release-consistency write buffer, MSHRs for
// outstanding misses, and a victim buffer that holds evicted dirty
// blocks until the home acknowledges their writeback (which is what
// lets an in-flight cache-to-cache request always find its data at the
// owner even if the owner just replaced the line).
//
// Blocks carry a 64-bit version number instead of data bytes. Writers
// increment the version; the test suite uses it to prove value
// coherence end to end.
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

// Line is one cache line.
type Line struct {
	Tag   uint64
	State State
	Data  uint64 // block version
	lru   uint64 // larger = more recently used
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

// Cache is one set-associative cache level. All sets live in one flat
// backing array (set s occupies lines[s*ways : (s+1)*ways]): lookups
// are the hottest operation in the whole simulator, and the flat
// layout turns the per-access set fetch into pure index arithmetic on
// one cache-friendly allocation instead of a pointer chase through a
// slice of per-set slices.
//
// tags mirrors lines[i].Tag in a dense parallel array, with invalid
// ways holding noTag, so find scans 8 bytes per way (a whole 4-way set
// fits in one host cache line) and needs no State load: a single
// uint64 compare decides presence. Every site that changes a way's
// tag or validity must keep the mirror in sync.
type Cache struct {
	cfg   Config
	lines []Line
	tags  []uint64
	ways  uint64
	shift uint // log2(block)
	mask  uint64
	clock uint64
	Stats Stats
}

// noTag marks an invalid way in the tags mirror. Real tags are
// addr>>shift with shift >= 1, so all-ones is unreachable for any
// address below 2^63.
const noTag = ^uint64(0)

// New builds a cache from cfg, validating geometry.
func New(cfg Config) (*Cache, error) {
	if cfg.BlockBytes <= 0 || cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		return nil, fmt.Errorf("cache: block size %d not a power of two", cfg.BlockBytes)
	}
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: ways %d must be positive", cfg.Ways)
	}
	nlines := cfg.SizeBytes / cfg.BlockBytes
	if nlines <= 0 || nlines%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache: %d bytes / %dB blocks not divisible into %d ways", cfg.SizeBytes, cfg.BlockBytes, cfg.Ways)
	}
	nsets := nlines / cfg.Ways
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", nsets)
	}
	c := &Cache{cfg: cfg, lines: make([]Line, nlines), tags: make([]uint64, nlines), ways: uint64(cfg.Ways)}
	for i := range c.tags {
		c.tags[i] = noTag
	}
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		c.shift++
	}
	c.mask = uint64(nsets - 1)
	return c, nil
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

// set returns the ways of addr's set as a slice of the flat array.
func (c *Cache) set(addr uint64) []Line {
	base := c.setIdx(addr) * c.ways
	return c.lines[base : base+c.ways]
}

// find returns the way holding addr, or nil. It scans the dense tags
// mirror (invalid ways hold noTag), the simulator's hottest loop.
func (c *Cache) find(addr uint64) *Line {
	base := c.setIdx(addr) * c.ways
	tg := c.tag(addr)
	tags := c.tags[base : base+c.ways]
	for i := range tags {
		if tags[i] == tg {
			return &c.lines[base+uint64(i)]
		}
	}
	return nil
}

// Probe returns the line state without updating LRU or stats; Invalid
// means not present.
func (c *Cache) Probe(addr uint64) (State, uint64) {
	if l := c.find(addr); l != nil {
		return l.State, l.Data
	}
	return Invalid, 0
}

// Access looks up addr, updating LRU and hit/miss statistics. It
// returns the line if present.
func (c *Cache) Access(addr uint64) *Line {
	l := c.find(addr)
	if l == nil {
		c.Stats.Misses++
		return nil
	}
	c.clock++
	l.lru = c.clock
	c.Stats.Hits++
	return l
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
	if l := c.find(addr); l != nil {
		c.clock++
		l.State, l.Data, l.lru = st, data, c.clock
		return Victim{}, false
	}
	set := c.set(addr)
	vi := 0
	for i := range set {
		if set[i].State == Invalid {
			vi = i
			break
		}
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	victim := &set[vi]
	var out Victim
	had := victim.State != Invalid
	if had {
		c.Stats.Evictions++
		if victim.State == Modified {
			c.Stats.DirtyEvic++
		}
		out = Victim{Addr: victim.Tag << c.shift, State: victim.State, Data: victim.Data}
	}
	c.clock++
	*victim = Line{Tag: c.tag(addr), State: st, Data: data, lru: c.clock}
	c.tags[c.setIdx(addr)*c.ways+uint64(vi)] = c.tag(addr)
	return out, had
}

// Invalidate removes addr; it reports whether the line was present and
// returns its prior state and data (so dirty data can be forwarded).
func (c *Cache) Invalidate(addr uint64) (State, uint64, bool) {
	base := c.setIdx(addr) * c.ways
	tg := c.tag(addr)
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == tg {
			l := &c.lines[i]
			st, d := l.State, l.Data
			l.State = Invalid
			c.tags[i] = noTag
			return st, d, true
		}
	}
	return Invalid, 0, false
}

// Downgrade moves a Modified line to Shared (after a CtoC read); it
// reports whether the line was present in M.
func (c *Cache) Downgrade(addr uint64) bool {
	if l := c.find(addr); l != nil && l.State == Modified {
		l.State = Shared
		return true
	}
	return false
}

// SetData overwrites the version of a present line (a store hit).
func (c *Cache) SetData(addr uint64, data uint64) bool {
	if l := c.find(addr); l != nil {
		l.Data = data
		return true
	}
	return false
}

// Lines calls fn for every valid line; used by invariant checks.
func (c *Cache) Lines(fn func(addr uint64, st State, data uint64)) {
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			fn(c.lines[i].Tag<<c.shift, c.lines[i].State, c.lines[i].Data)
		}
	}
}
