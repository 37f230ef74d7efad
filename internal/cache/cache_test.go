package cache

import (
	"testing"
	"testing/quick"
)

func cfg16k() Config {
	return Config{SizeBytes: 16 << 10, Ways: 2, BlockBytes: 32, AccessCycles: 1}
}
func cfg128k() Config {
	return Config{SizeBytes: 128 << 10, Ways: 4, BlockBytes: 32, AccessCycles: 8}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 1024, Ways: 2, BlockBytes: 33},
		{SizeBytes: 1024, Ways: 0, BlockBytes: 32},
		{SizeBytes: 1024, Ways: 3, BlockBytes: 32},       // 32 lines not divisible by 3... 32/3 no
		{SizeBytes: 96, Ways: 1, BlockBytes: 32},         // 3 sets, not power of two
		{SizeBytes: 512 * 32, Ways: 512, BlockBytes: 32}, // more ways than a rank byte orders
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	if _, err := New(cfg16k()); err != nil {
		t.Fatal(err)
	}
}

func TestInsertLookupInvalidate(t *testing.T) {
	c := MustNew(cfg16k())
	if st, _ := c.Access(0x1000); st != Invalid {
		t.Fatal("hit in empty cache")
	}
	c.Insert(0x1000, Shared, 7)
	st, d := c.Access(0x1003) // same block, different offset
	if st != Shared || d != 7 {
		t.Fatalf("lookup after insert: %v %d", st, d)
	}
	st, d, ok := c.Invalidate(0x1000)
	if !ok || st != Shared || d != 7 {
		t.Fatalf("invalidate = %v %d %v", st, d, ok)
	}
	if st, _ := c.Access(0x1000); st != Invalid {
		t.Fatal("hit after invalidate")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 2 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache: three blocks mapping to the same set evict the LRU.
	c := MustNew(Config{SizeBytes: 2048, Ways: 2, BlockBytes: 32, AccessCycles: 1})
	nsets := uint64(2048 / 32 / 2)
	a := uint64(0)
	b := nsets * 32     // same set as a
	d := 2 * nsets * 32 // same set again
	c.Insert(a, Modified, 1)
	c.Insert(b, Shared, 2)
	c.Access(a) // a is now MRU; b is LRU
	v, had := c.Insert(d, Shared, 3)
	if !had || v.Addr != b || v.State != Shared {
		t.Fatalf("victim = %+v (had=%v), want block b", v, had)
	}
	if st, _ := c.Probe(a); st != Modified {
		t.Fatal("MRU block evicted")
	}
	// Evicting the dirty block reports Modified victim.
	e := 3 * nsets * 32
	v, had = c.Insert(e, Shared, 4)
	if !had || v.State != Modified || v.Addr != a || v.Data != 1 {
		t.Fatalf("dirty victim = %+v", v)
	}
	if c.Stats.DirtyEvic != 1 {
		t.Fatalf("dirty evictions = %d", c.Stats.DirtyEvic)
	}
}

func TestInsertExistingUpdatesInPlace(t *testing.T) {
	c := MustNew(cfg16k())
	c.Insert(0x40, Shared, 1)
	v, had := c.Insert(0x40, Modified, 2)
	if had {
		t.Fatalf("re-insert produced victim %+v", v)
	}
	st, d := c.Probe(0x40)
	if st != Modified || d != 2 {
		t.Fatalf("after upgrade: %v %d", st, d)
	}
}

func TestDowngradeAndSetData(t *testing.T) {
	c := MustNew(cfg16k())
	c.Insert(0x40, Modified, 5)
	if !c.Downgrade(0x40) {
		t.Fatal("downgrade failed")
	}
	if st, _ := c.Probe(0x40); st != Shared {
		t.Fatal("not shared after downgrade")
	}
	if c.Downgrade(0x40) {
		t.Fatal("downgrade of S line succeeded")
	}
	if !c.SetData(0x40, 9) {
		t.Fatal("SetData failed")
	}
	if _, d := c.Probe(0x40); d != 9 {
		t.Fatal("SetData did not stick")
	}
	if c.SetData(0xFFFF00, 1) {
		t.Fatal("SetData on absent line succeeded")
	}
}

func TestBlockAlign(t *testing.T) {
	c := MustNew(cfg16k())
	if c.BlockAlign(0x47) != 0x40 || c.BlockAlign(0x40) != 0x40 {
		t.Fatal("block align broken")
	}
}

func TestLinesIteration(t *testing.T) {
	c := MustNew(cfg16k())
	c.Insert(0x40, Shared, 1)
	c.Insert(0x80, Modified, 2)
	seen := map[uint64]State{}
	c.Lines(func(a uint64, s State, d uint64) { seen[a] = s })
	if len(seen) != 2 || seen[0x40] != Shared || seen[0x80] != Modified {
		t.Fatalf("lines = %v", seen)
	}
}

func TestCachePropertyPresence(t *testing.T) {
	// Property: after inserting a set of distinct blocks that all fit,
	// every one is present with its data.
	f := func(seeds []uint8) bool {
		c := MustNew(Config{SizeBytes: 1 << 14, Ways: 4, BlockBytes: 32, AccessCycles: 1})
		if len(seeds) > 64 {
			seeds = seeds[:64]
		}
		blocks := map[uint64]uint64{}
		for i, s := range seeds {
			// Distinct sets to avoid eviction: spread by index.
			addr := uint64(i) * 32
			blocks[addr] = uint64(s)
			c.Insert(addr, Shared, uint64(s))
		}
		for a, d := range blocks {
			st, got := c.Probe(a)
			if st != Shared || got != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyInclusion(t *testing.T) {
	h := MustNewHierarchy(cfg16k(), cfg128k())
	// Fill more blocks than L1 holds; inclusion must hold throughout.
	for i := 0; i < 1024; i++ {
		h.Fill(uint64(i)*32, Shared, uint64(i))
		if i%128 == 0 {
			if err := h.CheckInclusion(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := h.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyReadLatencies(t *testing.T) {
	h := MustNewHierarchy(cfg16k(), cfg128k())
	h.Fill(0x40, Shared, 3)
	r := h.Read(0x40)
	if !r.HitL1 || r.Cycles != 1 {
		t.Fatalf("L1 hit = %+v", r)
	}
	// Evict from L1 only: fill L1's set with conflicting blocks.
	l1sets := uint64(16 << 10 / 32 / 2)
	h.Fill(0x40+l1sets*32, Shared, 4)
	h.Fill(0x40+2*l1sets*32, Shared, 5)
	// 0x40 may now be L1-evicted; read must still hit L2 (9 cycles)
	// or L1 (1 cycle) — never miss.
	r = h.Read(0x40)
	if r.State == Invalid {
		t.Fatal("lost block present in L2")
	}
	if r.HitL2 && r.Cycles != 9 {
		t.Fatalf("L2 hit cycles = %d, want 9", r.Cycles)
	}
	// A clean miss.
	r = h.Read(0xABC000)
	if r.State != Invalid || r.Cycles != 9 {
		t.Fatalf("miss = %+v", r)
	}
}

func TestHierarchyL2VictimInvalidatesL1(t *testing.T) {
	// Tiny L2 to force L2 evictions while blocks are L1-resident.
	l1 := Config{SizeBytes: 512, Ways: 1, BlockBytes: 32, AccessCycles: 1}
	l2 := Config{SizeBytes: 512, Ways: 1, BlockBytes: 32, AccessCycles: 8}
	h := MustNewHierarchy(l1, l2)
	h.Fill(0x0, Modified, 1)
	// 512B direct-mapped: block 0x200 maps to the same set as 0x0.
	v, dirty := h.Fill(0x200, Shared, 2)
	if !dirty || v.Addr != 0 || v.Data != 1 {
		t.Fatalf("victim = %+v dirty=%v", v, dirty)
	}
	if err := h.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
	if st, _ := h.L1.Probe(0x0); st != Invalid {
		t.Fatal("L1 still holds block evicted from L2")
	}
}

func TestHierarchyWriteHit(t *testing.T) {
	h := MustNewHierarchy(cfg16k(), cfg128k())
	h.Fill(0x40, Shared, 1)
	if h.WriteHit(0x40, 2) {
		t.Fatal("store retired into Shared line")
	}
	h.Fill(0x40, Modified, 1)
	if !h.WriteHit(0x40, 2) {
		t.Fatal("store to M line rejected")
	}
	if _, d := h.Probe(0x40); d != 2 {
		t.Fatal("version not bumped")
	}
	r := h.Read(0x40)
	if r.Data != 2 {
		t.Fatalf("L1 read after write = %+v, want version 2", r)
	}
}

func TestHierarchyInvalidateDowngrade(t *testing.T) {
	h := MustNewHierarchy(cfg16k(), cfg128k())
	h.Fill(0x40, Modified, 3)
	if !h.Downgrade(0x40) {
		t.Fatal("downgrade failed")
	}
	st, _, ok := h.Invalidate(0x40)
	if !ok || st != Shared {
		t.Fatalf("invalidate = %v %v", st, ok)
	}
	if st, _ := h.L1.Probe(0x40); st != Invalid {
		t.Fatal("L1 not invalidated")
	}
}

func TestWriteBuffer(t *testing.T) {
	w := NewWriteBuffer(2)
	if !w.Push(0x40, 1) || !w.Push(0x80, 2) {
		t.Fatal("pushes failed")
	}
	if !w.Push(0x40, 3) {
		t.Fatal("coalescing push failed on full buffer")
	}
	if w.Push(0xC0, 4) {
		t.Fatal("push into full buffer succeeded")
	}
	if v, ok := w.Pending(0x40); !ok || v != 3 {
		t.Fatalf("pending = %d %v, want coalesced 3", v, ok)
	}
	b, v, ok := w.Head()
	if !ok || b != 0x40 || v != 3 {
		t.Fatalf("head = %#x %d", b, v)
	}
	w.PopHead()
	if w.Len() != 1 {
		t.Fatalf("len = %d", w.Len())
	}
	b, _, _ = w.Head()
	if b != 0x80 {
		t.Fatalf("fifo order broken: head %#x", b)
	}
	w.PopHead()
	w.PopHead() // no-op on empty
	if _, _, ok := w.Head(); ok {
		t.Fatal("head on empty buffer")
	}
}

func TestVictimBuffer(t *testing.T) {
	v := NewVictimBuffer()
	v.Put(0x40, 9)
	if d, ok := v.Get(0x40); !ok || d != 9 {
		t.Fatalf("get = %d %v", d, ok)
	}
	if _, ok := v.Get(0x80); ok {
		t.Fatal("phantom entry")
	}
	v.Remove(0x40)
	if v.Len() != 0 {
		t.Fatal("remove failed")
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Fatal("state strings")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state string empty")
	}
}

// BenchmarkCacheAccess times L2 hits at the two ends of a set's
// recency order. lru cycles through a full cache in fill order, so
// every access hits its set's least recently used way and re-ranks the
// whole set; mru repeats one block per set, so every access hits the
// most recent way and writes nothing. hierarchy-read reads each of
// 1024 blocks (twice the L1, an eighth of the L2) twice in a row: an
// L2 hit that refills the L1, then an L1 hit. Those three fit in the
// host's L1 and L2 caches. trace has the trace-driven simulator's
// footprint: 16 full 2 MB 4-way caches (1M lines, 8 MiB of line words)
// accessed round-robin at random blocks from a pool of twice each
// cache's lines, so about half the accesses miss and nearly every one
// reads its set from host memory.
func BenchmarkCacheAccess(b *testing.B) {
	b.Run("lru", func(b *testing.B) {
		c := MustNew(cfg128k())
		for i := 0; i < 4096; i++ {
			c.Insert(uint64(i)*32, Shared, uint64(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(uint64(i%4096) * 32)
		}
	})
	b.Run("mru", func(b *testing.B) {
		c := MustNew(cfg128k())
		for i := 0; i < 4096; i++ {
			c.Insert(uint64(i)*32, Shared, uint64(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(uint64(3072+i%1024) * 32)
		}
	})
	b.Run("hierarchy-read", func(b *testing.B) {
		h := MustNewHierarchy(cfg16k(), cfg128k())
		for i := 0; i < 1024; i++ {
			h.Fill(uint64(i)*32, Shared, uint64(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Read(uint64(i/2%1024) * 32)
		}
	})
	b.Run("trace", func(b *testing.B) {
		cfg := Config{SizeBytes: 2 << 20, Ways: 4, BlockBytes: 32}
		lines := uint64(cfg.SizeBytes / cfg.BlockBytes)
		var cs [16]*Cache
		for p := range cs {
			cs[p] = MustNew(cfg)
			for i := uint64(0); i < lines; i++ {
				cs[p].Insert(i*32, Shared, 0)
			}
		}
		x := uint64(88172645463325252)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			cs[i&15].Access((x & (2*lines - 1)) * 32)
		}
	})
}

func TestHierarchyRefresh(t *testing.T) {
	h := MustNewHierarchy(cfg16k(), cfg128k())
	h.Fill(0x40, Shared, 3)
	h.Refresh(0x40, 9)
	if _, v := h.Probe(0x40); v != 9 {
		t.Fatalf("L2 version = %d", v)
	}
	r := h.Read(0x40)
	if r.Data != 9 {
		t.Fatalf("L1 read = %d, want refreshed 9", r.Data)
	}
	// Refreshing an absent block is a no-op.
	h.Refresh(0xFF00, 1)
	if st, _ := h.Probe(0xFF00); st != Invalid {
		t.Fatal("refresh materialized a block")
	}
}

func TestVictimBufferRefcount(t *testing.T) {
	v := NewVictimBuffer()
	v.Put(0x40, 5)
	v.Put(0x40, 9) // second eviction before first ack
	if d, ok := v.Get(0x40); !ok || d != 9 {
		t.Fatalf("get = %d %v, want newest 9", d, ok)
	}
	v.Remove(0x40) // first ack: entry must survive
	if _, ok := v.Get(0x40); !ok {
		t.Fatal("entry dropped with a reference outstanding")
	}
	v.Remove(0x40) // second ack: gone
	if _, ok := v.Get(0x40); ok {
		t.Fatal("entry survived final ack")
	}
	// Older Put never regresses the version.
	v.Put(0x80, 9)
	v.Put(0x80, 5)
	if d, _ := v.Get(0x80); d != 9 {
		t.Fatalf("version regressed to %d", d)
	}
}

func TestWriteBufferRemoveAndForEach(t *testing.T) {
	w := NewWriteBuffer(4)
	w.Push(0x40, 1)
	w.Push(0x80, 2)
	w.Push(0xC0, 3)
	w.Remove(0x80)
	var order []uint64
	w.ForEach(func(b, v uint64) bool {
		order = append(order, b)
		return true
	})
	if len(order) != 2 || order[0] != 0x40 || order[1] != 0xC0 {
		t.Fatalf("order = %#x", order)
	}
	if _, ok := w.Pending(0x80); ok {
		t.Fatal("removed entry still pending")
	}
	w.Remove(0x9999) // absent: no-op
	// ForEach early exit.
	count := 0
	w.ForEach(func(b, v uint64) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early exit visited %d", count)
	}
}

// TestTransientPinned: Insert never displaces a Transient line. In a
// one-set 4-way cache a Transient line outlives inserts that make it
// the least recently used way; once every way is Transient an insert
// places nothing and returns the offered line as its victim; and
// Invalidate frees a Transient way for the next insert.
func TestTransientPinned(t *testing.T) {
	c := MustNew(Config{SizeBytes: 4 * 32, Ways: 4, BlockBytes: 32})
	for b := uint64(0); b < 4; b++ {
		c.Insert(b*32, Modified, b)
	}
	c.Insert(0, Transient, 10) // in place: block 0 becomes the most recent way
	for b := uint64(4); b < 8; b++ {
		// Blocks 1, 2 and 3 go first; by block 7 block 0 is the least
		// recently used way, and block 4 goes in its place.
		v, had := c.Insert(b*32, Modified, b)
		if want := (b - 3) * 32; !had || v.Addr != want || v.State != Modified {
			t.Fatalf("insert of block %d displaced %+v (had=%v), want block %d", b, v, had, want/32)
		}
	}
	if st, d := c.Probe(0); st != Transient || d != 10 {
		t.Fatalf("pinned block reads %v %d, want T 10", st, d)
	}
	for b := uint64(5); b < 8; b++ {
		c.Insert(b*32, Transient, b)
	}
	evictions := c.Stats.Evictions
	v, had := c.Insert(8*32, Modified, 8)
	if want := (Victim{Addr: 8 * 32, State: Modified, Data: 8}); !had || v != want {
		t.Fatalf("insert into an all-Transient set returned %+v (had=%v), want the offered line %+v", v, had, want)
	}
	if st, _ := c.Probe(8 * 32); st != Invalid || c.Stats.Evictions != evictions {
		t.Fatalf("an all-Transient set took block 8 (%v) or counted an eviction (%+v)", st, c.Stats)
	}
	seen := map[uint64]State{}
	c.Lines(func(a uint64, st State, _ uint64) { seen[a] = st })
	if len(seen) != 4 || seen[0] != Transient || seen[5*32] != Transient || seen[6*32] != Transient || seen[7*32] != Transient {
		t.Fatalf("lines = %v, want blocks 0, 5, 6 and 7 Transient", seen)
	}
	if st, d, ok := c.Invalidate(6 * 32); !ok || st != Transient || d != 6 {
		t.Fatalf("Invalidate of a Transient line = %v %d %v", st, d, ok)
	}
	if v, had := c.Insert(8*32, Modified, 8); had {
		t.Fatalf("insert into the freed way displaced %+v", v)
	}
	if st, d := c.Probe(8 * 32); st != Modified || d != 8 {
		t.Fatalf("block 8 reads %v %d after its insert, want M 8", st, d)
	}
	if Transient.String() != "T" {
		t.Fatalf("Transient prints %q", Transient.String())
	}
}
