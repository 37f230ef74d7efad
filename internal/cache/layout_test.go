package cache

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"dresar/internal/sim"
)

// stampCache is the stamp-based replacement the rank bytes replaced:
// one struct per line with a 64-bit last-use stamp from a per-cache
// clock, the victim being the first Invalid way or else the smallest
// stamp. TestRanksMatchStamps drives it beside Cache.
type stampCache struct {
	lines []stampLine
	ways  uint64
	shift uint
	mask  uint64
	clock uint64
	Stats Stats
}

type stampLine struct {
	Tag   uint64
	State State
	Data  uint64
	lru   uint64
}

func newStampCache(cfg Config) *stampCache {
	n := cfg.SizeBytes / cfg.BlockBytes
	s := &stampCache{lines: make([]stampLine, n), ways: uint64(cfg.Ways), mask: uint64(n/cfg.Ways - 1)}
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		s.shift++
	}
	return s
}

func (s *stampCache) set(addr uint64) []stampLine {
	base := ((addr >> s.shift) & s.mask) * s.ways
	return s.lines[base : base+s.ways]
}

func (s *stampCache) find(addr uint64) *stampLine {
	set := s.set(addr)
	for i := range set {
		if set[i].State != Invalid && set[i].Tag == addr>>s.shift {
			return &set[i]
		}
	}
	return nil
}

func (s *stampCache) Probe(addr uint64) (State, uint64) {
	if l := s.find(addr); l != nil {
		return l.State, l.Data
	}
	return Invalid, 0
}

func (s *stampCache) Access(addr uint64) (State, uint64) {
	l := s.find(addr)
	if l == nil {
		s.Stats.Misses++
		return Invalid, 0
	}
	s.clock++
	l.lru = s.clock
	s.Stats.Hits++
	return l.State, l.Data
}

func (s *stampCache) Insert(addr uint64, st State, data uint64) (Victim, bool) {
	if l := s.find(addr); l != nil {
		s.clock++
		l.State, l.Data, l.lru = st, data, s.clock
		return Victim{}, false
	}
	set := s.set(addr)
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
		s.Stats.Evictions++
		if victim.State == Modified {
			s.Stats.DirtyEvic++
		}
		out = Victim{Addr: victim.Tag << s.shift, State: victim.State, Data: victim.Data}
	}
	s.clock++
	*victim = stampLine{Tag: addr >> s.shift, State: st, Data: data, lru: s.clock}
	return out, had
}

func (s *stampCache) Invalidate(addr uint64) (State, uint64, bool) {
	if l := s.find(addr); l != nil {
		st, d := l.State, l.Data
		l.State = Invalid
		return st, d, true
	}
	return Invalid, 0, false
}

func (s *stampCache) Downgrade(addr uint64) bool {
	if l := s.find(addr); l != nil && l.State == Modified {
		l.State = Shared
		return true
	}
	return false
}

func (s *stampCache) SetData(addr uint64, data uint64) bool {
	if l := s.find(addr); l != nil {
		l.Data = data
		return true
	}
	return false
}

func (s *stampCache) Lines(fn func(addr uint64, st State, data uint64)) {
	for _, l := range s.lines {
		if l.State != Invalid {
			fn(l.Tag<<s.shift, l.State, l.Data)
		}
	}
}

// walk folds a Lines traversal, in order, into one FNV-style word.
func walk(lines func(func(uint64, State, uint64))) uint64 {
	h := uint64(14695981039346656037)
	lines(func(a uint64, st State, d uint64) {
		for _, v := range [3]uint64{a, uint64(st), d} {
			h = (h ^ v) * 1099511628211
		}
	})
	return h
}

// TestRanksMatchStamps pins the rank-byte replacement order to the
// stamp-based one it replaced: one seeded stream of every operation
// drives both, and after each op every return value, victim, Stats
// field and Lines walk must agree. Four sets per geometry and a block
// pool of three times the capacity keep sets full and evicting; a hot
// quarter of the pool makes repeat hits on the most recent way common.
func TestRanksMatchStamps(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, maxWays} {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			matchStamps(t, ways, func(_ int, v uint64) uint64 { return v })
		})
	}
}

// TestVersionsBuiltMidStream drives TestRanksMatchStamps' stream with
// every stored version 0 for its first half and random after it (0 to
// 3, so zeros still overwrite non-zero versions), so the version array
// is built in the middle of the stream, over lines filled without one:
// every lookup, victim and Lines walk must still agree with the stamp
// cache, which always had versions.
func TestVersionsBuiltMidStream(t *testing.T) {
	const half = matchOps / 2
	for _, ways := range []int{1, 4, maxWays} {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			built := matchStamps(t, ways, func(op int, v uint64) uint64 {
				if op < half {
					return 0
				}
				return v % 4
			})
			if built < half {
				t.Fatalf("version array built at op %d, want after the %d all-zero ops", built, half)
			}
		})
	}
}

// matchOps is the length of matchStamps' operation stream.
const matchOps = 20000

// matchStamps runs matchOps seeded operations against a Cache and a
// stampCache and fails at the first disagreement. Insert stores
// version(op, a random word) and SetData version(op, op). It returns
// the first op after which the Cache held a version array, or -1.
func matchStamps(t *testing.T, ways int, version func(op int, v uint64) uint64) (built int) {
	cfg := Config{SizeBytes: 4 * ways * 32, Ways: ways, BlockBytes: 32}
	c, ref := MustNew(cfg), newStampCache(cfg)
	rng := sim.NewRNG(uint64(ways))
	pool := 3 * 4 * ways
	built = -1
	for op := 0; op < matchOps; op++ {
		b := rng.Intn(pool)
		if rng.Intn(2) == 0 {
			b = rng.Intn(pool/4 + 1)
		}
		addr := uint64(b)*32 + uint64(rng.Intn(32))
		var got, want string
		switch rng.Intn(6) {
		case 0:
			st, d := c.Access(addr)
			got = fmt.Sprint(st, d)
			st, d = ref.Access(addr)
			want = fmt.Sprint(st, d)
		case 1:
			st := State(1 + rng.Intn(2))
			d := version(op, rng.Uint64())
			v, had := c.Insert(addr, st, d)
			got = fmt.Sprint(v, had)
			v, had = ref.Insert(addr, st, d)
			want = fmt.Sprint(v, had)
		case 2:
			got = fmt.Sprint(c.Invalidate(addr))
			want = fmt.Sprint(ref.Invalidate(addr))
		case 3:
			got, want = fmt.Sprint(c.Downgrade(addr)), fmt.Sprint(ref.Downgrade(addr))
		case 4:
			d := version(op, uint64(op))
			got, want = fmt.Sprint(c.SetData(addr, d)), fmt.Sprint(ref.SetData(addr, d))
		case 5:
			got = fmt.Sprint(c.Probe(addr))
			want = fmt.Sprint(ref.Probe(addr))
		}
		got += fmt.Sprintf(" %+v lines=%x", c.Stats, walk(c.Lines))
		want += fmt.Sprintf(" %+v lines=%x", ref.Stats, walk(ref.Lines))
		if got != want {
			t.Fatalf("op %d at %#x:\n got %s\nwant %s", op, addr, got, want)
		}
		if built < 0 && c.data != nil {
			built = op
		}
	}
	return built
}

// retainedBytes reports the heap bytes still reachable after build,
// per build: the least of five trials of n builds each, since whatever
// else the runtime allocates during a trial can only add to it. Two
// collections precede each baseline: the first moves sync.Pool
// contents (fmt's printers, say) to their victim caches and the second
// frees them, so no pool emptied during a trial makes it read low.
func retainedBytes(n int, build func() any) float64 {
	best := math.Inf(1)
	for trial := 0; trial < 5; trial++ {
		keep := make([]any, n)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = build()
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(keep)
		best = math.Min(best, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(n))
	}
	return best
}

// TestLineFootprint pins the per-line cost of a built Table 2 L1 and
// L2 at 18 bytes (tag, version, state and rank), plus a 1 KiB
// allowance for the Cache header. A 1024-node machine holds 4.7M
// lines once every cache is built.
func TestLineFootprint(t *testing.T) {
	for _, cfg := range []Config{cfg16k(), cfg128k()} {
		lines := cfg.SizeBytes / cfg.BlockBytes
		got := retainedBytes(16, func() any {
			c := MustNew(cfg)
			c.Insert(0, Shared, 1)
			return c
		})
		if limit := float64(18*lines + 1024); got < float64(18*lines) || got > limit {
			t.Errorf("%d-line cache retains %.0f B (%.2f B/line), want %d (the lines) to %.0f", lines, got, got/float64(lines), 18*lines, limit)
		}
	}
}

// TestUnversionedLineFootprint pins the per-line cost of a built
// cache that never stores a version, as the trace-driven simulator's
// 2 MB 4-way caches never do: 10 bytes (tag, state and rank), plus a
// 1 KiB allowance for the Cache header. Stores of version 0, by Insert
// and SetData alike, build no version array.
func TestUnversionedLineFootprint(t *testing.T) {
	cfg := Config{SizeBytes: 2 << 20, Ways: 4, BlockBytes: 32}
	lines := cfg.SizeBytes / cfg.BlockBytes
	got := retainedBytes(16, func() any {
		c := MustNew(cfg)
		for b := uint64(0); b < 64; b++ {
			c.Insert(b*32, Modified, 0)
			c.SetData(b*32, 0)
		}
		return c
	})
	if limit := float64(10*lines + 1024); got < float64(10*lines) || got > limit {
		t.Errorf("%d-line unversioned cache retains %.0f B (%.2f B/line), want %d (the lines) to %.0f", lines, got, got/float64(lines), 10*lines, limit)
	}
}

// TestUnbuiltCache pins what a cache costs before its first Insert:
// at most 256 bytes plus one set of tags, whatever its size, so the
// idle processors of a big machine hold no lines. Every lookup misses
// without building the line arrays, and Lines visits nothing.
func TestUnbuiltCache(t *testing.T) {
	big := Config{SizeBytes: 2 << 20, Ways: 4, BlockBytes: 32}
	for _, cfg := range []Config{cfg16k(), cfg128k(), big, {SizeBytes: 2 << 20, Ways: maxWays, BlockBytes: 32}} {
		got := retainedBytes(64, func() any { return MustNew(cfg) })
		if limit := float64(256 + 8*cfg.Ways); got > limit {
			t.Errorf("unbuilt %d-byte %d-way cache retains %.0f B, want <= %.0f", cfg.SizeBytes, cfg.Ways, got, limit)
		}
	}
	c := MustNew(big)
	for _, addr := range []uint64{0, 32, 1 << 40, 1<<63 - 32} {
		if st, _ := c.Probe(addr); st != Invalid {
			t.Errorf("Probe(%#x) = %v on an unbuilt cache", addr, st)
		}
		if st, _ := c.Access(addr); st != Invalid {
			t.Errorf("Access(%#x) = %v on an unbuilt cache", addr, st)
		}
		if _, _, ok := c.Invalidate(addr); ok || c.Downgrade(addr) || c.SetData(addr, 1) {
			t.Errorf("Invalidate, Downgrade or SetData(%#x) found a line in an unbuilt cache", addr)
		}
	}
	c.Lines(func(addr uint64, _ State, _ uint64) { t.Errorf("Lines visits %#x in an unbuilt cache", addr) })
	if c.state != nil || c.Stats.Misses != 4 {
		t.Errorf("lookups built the cache (state %d lines) or miscounted (%+v)", len(c.state), c.Stats)
	}
}
