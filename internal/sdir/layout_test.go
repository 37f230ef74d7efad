package sdir

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"testing"

	"dresar/internal/mesg"
	"dresar/internal/sim"
	"dresar/internal/topo"
)

// scanTransient counts the TRANSIENT entries at sw by walking its slab.
func scanTransient(f *Fabric, sw topo.SwitchID) int {
	n := 0
	for _, e := range f.dirs[f.tp.SwitchOrdinal(sw)].slab {
		if e.state == Trans {
			n++
		}
	}
	return n
}

// TestSnoopStreamGolden pins the directory's decisions over a seeded
// random snoop stream, for both read-in-TRANSIENT policies with and
// without a pending buffer: a hash over every Action (sink flag, extra
// delay, and each generated message's kind, address, destination,
// requester, marked and for-write bits), the snooped message's
// rewritten fields, and the final TotalStats changes if any
// replacement, interception or fan-out moves. Requesters run to 200 so
// bit vectors spill past 64, 64-entry 4-way directories over 160 blocks
// keep sets evicting, and the stream disables one switch, kills
// another, and corrupts and evicts random entries partway through.
// After every op TransientCount must equal a scan of the slab.
func TestSnoopStreamGolden(t *testing.T) {
	tp := topo.MustNew(256, 16)
	sws := []topo.SwitchID{{Stage: 0, Index: 0}, {Stage: 0, Index: 5}, {Stage: 1, Index: 0},
		{Stage: 1, Index: 9}, {Stage: 0, Index: 15}, {Stage: 1, Index: 15}}
	kinds := []mesg.Kind{mesg.WriteReply, mesg.WriteReply, mesg.WriteReply, mesg.ReadReq, mesg.ReadReq,
		mesg.ReadReq, mesg.WriteReq, mesg.CtoCReq, mesg.CopyBack, mesg.WriteBack, mesg.Retry}
	for _, c := range []struct {
		policy  Policy
		pending int
		want    uint64
	}{
		{PolicyRetry, 0, 0x77b5aa759d4d644d},
		{PolicyRetry, 4, 0xc9b92ba97dfef8bc},
		{PolicyBitVector, 0, 0x013a3d8ae6010406},
		{PolicyBitVector, 4, 0x7e311c6168f5fb84},
	} {
		f := MustNew(tp, Config{Entries: 64, Ways: 4, Policy: c.policy, PendingEntries: c.pending})
		rng := sim.NewRNG(uint64(31 + c.pending + int(c.policy)))
		h := fnv.New64a()
		var buf [8]byte
		word := func(x uint64) {
			binary.LittleEndian.PutUint64(buf[:], x)
			h.Write(buf[:])
		}
		flag := func(b bool) {
			if b {
				word(1)
			} else {
				word(0)
			}
		}
		for i := 0; i < 30000; i++ {
			switch i {
			case 10000:
				f.DisableOrdinal(tp.SwitchOrdinal(sws[0]))
			case 20000:
				f.FailOrdinal(tp.SwitchOrdinal(sws[1]))
			}
			if i%500 == 250 {
				flag(f.CorruptRandom(rng, tp.Nodes))
			}
			if i%700 == 350 {
				flag(f.EvictRandom(rng))
			}
			m := &mesg.Message{
				Kind:      kinds[rng.Intn(len(kinds))],
				Addr:      uint64(rng.Intn(160)) * 32,
				Src:       mesg.P(rng.Intn(tp.Nodes)),
				Dst:       mesg.M(rng.Intn(tp.Nodes)),
				Requester: rng.Intn(201),
				NoData:    rng.Intn(8) == 0,
				ForWrite:  rng.Intn(8) == 0,
				Data:      uint64(i),
				Issued:    uint64(i),
			}
			sw := sws[rng.Intn(len(sws))]
			a := f.Snoop(sw, m, sim.Cycle(i/3))
			flag(a.Sink)
			word(uint64(a.ExtraDelay))
			word(uint64(len(a.Generated)))
			for _, g := range a.Generated {
				word(uint64(g.Kind))
				word(g.Addr)
				word(uint64(g.Dst.Side)<<32 | uint64(g.Dst.Node))
				word(uint64(g.Requester))
				flag(g.Marked)
				flag(g.ForWrite)
			}
			flag(m.Marked)
			word(uint64(m.Requester))
			for _, p := range m.Sharers.List() {
				word(uint64(p))
			}
			if got, want := f.TransientCount(sw), scanTransient(f, sw); got != want {
				t.Fatalf("%v/%d op %d: TransientCount %d, slab scan %d", c.policy, c.pending, i, got, want)
			}
		}
		fmt.Fprintf(h, "%+v", f.TotalStats())
		if got := h.Sum64(); got != c.want {
			t.Errorf("%v/pending=%d: snoop hash %#x, want %#x (directory decisions changed)", c.policy, c.pending, got, c.want)
		}
	}
}

// TestEntryFootprint pins the switch-directory footprint at the
// 1024-node radix-8 scale (512 switches of 1K entries) once every
// switch has taken an insert: the fabric retains at most 24 bytes per
// entry, New and the first inserts make at most three allocations per
// switch (today two, plus four for the whole fabric), and the entry
// type holds no pointer, slice or map, so the garbage collector never
// scans a slab. Before its first insert a switch retains at most 512
// bytes, none of them entries.
func TestEntryFootprint(t *testing.T) {
	tp := topo.MustNew(1024, 8)
	cfg := DefaultConfig()
	n := tp.NumSwitches() * cfg.Entries
	build := func(fill bool) *Fabric {
		f := MustNew(tp, cfg)
		m := &mesg.Message{Kind: mesg.WriteReply, Addr: 32, Requester: 1}
		for i := 0; fill && i < tp.NumSwitches(); i++ {
			f.Snoop(tp.OrdinalSwitch(i), m, 0)
		}
		return f
	}
	retained := func(fill bool) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f := build(fill)
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(f)
		return float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
	}
	if per := retained(true) / float64(n); per < 16 || per > 24 {
		t.Errorf("a built fabric retains %.1f B per entry, want 16 (the entry) to 24", per)
	}
	if per := retained(false) / float64(tp.NumSwitches()); per > 512 {
		t.Errorf("an unbuilt fabric retains %.0f B per switch, want <= 512", per)
	}
	if allocs := testing.AllocsPerRun(1, func() { build(true) }); allocs > float64(3*tp.NumSwitches()) {
		t.Errorf("New and one insert per switch make %.0f allocations for %d switches", allocs, tp.NumSwitches())
	}
	et := reflect.TypeOf(entry{})
	for i := 0; i < et.NumField(); i++ {
		switch k := et.Field(i).Type.Kind(); k {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Chan, reflect.Func, reflect.Array, reflect.Struct:
			t.Errorf("entry.%s is a %v; entries must be flat scalars", et.Field(i).Name, k)
		}
	}
}
