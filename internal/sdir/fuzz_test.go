package sdir

import (
	"testing"

	"dresar/internal/mesg"
	"dresar/internal/sim"
)

// fuzzBlocks is the block pool of FuzzSwitchDirectory: twice the ways
// of its one-set directory, so inserts keep evicting.
const fuzzBlocks = 8

// FuzzSwitchDirectory runs a snoop sequence through a one-set, 4-way
// directory and checks its TRANSIENT tracking against a model built
// from what the directory did, not from how. The first input byte picks
// the policy (bit 0) and a 2-entry pending buffer (bit 1); every two
// bytes after it are one operation: the first byte's low 3 bits pick a
// snoopable kind or, at 7, one of the fault walks CorruptRandom,
// EvictRandom, DisableOrdinal and FailOrdinal (bits 5 and 6), bit 3
// sets NoData and bit 4 ForWrite; the second byte's low 3 bits pick the
// block and its high 4 the requester.
//
// A block is TRANSIENT exactly from the read that was sunk into a CtoC
// request, which must go to the owner Lookup reported for the block
// just before, until a copyback or a non-ownership writeback for it
// passes, or the switch fails. While TRANSIENT, Lookup must report that
// owner and a bit vector holding the intercepted requester. After every
// operation TransientCount must equal both the model's count and a
// scan of the array's Transient lines, and stay within the pending
// buffer.
func FuzzSwitchDirectory(f *testing.F) {
	// Two intercepts, a third blocked by the pending buffer, then a
	// copyback and a writeback that end the first two.
	f.Add([]byte{2, 0, 0x11, 0, 0x22, 0, 0x33, 1, 0x41, 1, 0x52, 1, 0x63, 4, 0x01, 5, 0x02})
	// Every way TRANSIENT under the bit-vector policy: an insert is
	// blocked, a second read joins the bit vector, and a retry and a
	// NoData copyback fan out to the waiters.
	f.Add([]byte{1, 0, 0x10, 0, 0x21, 0, 0x32, 0, 0x43, 1, 0x50, 1, 0x61, 1, 0x72, 1, 0x83,
		0, 0x94, 1, 0xa0, 6, 0x50, 12, 0x60, 3, 0x01})
	// Faults between intercepts: corrupt and evict MODIFIED entries,
	// disable the switch with a transfer in flight, drain it, then kill
	// the switch.
	f.Add([]byte{0, 0, 0x10, 0, 0x21, 1, 0x31, 7, 0, 0, 0x42, 0x27, 0, 1, 0x52, 0x47, 0, 1, 0x61,
		4, 0x61, 0, 0x13, 1, 0x73, 0x67, 0})
	kinds := [...]mesg.Kind{mesg.WriteReply, mesg.ReadReq, mesg.WriteReq, mesg.CtoCReq,
		mesg.CopyBack, mesg.WriteBack, mesg.Retry}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := Config{Entries: 4, Ways: 4}
		if data[0]&1 != 0 {
			cfg.Policy = PolicyBitVector
		}
		if data[0]&2 != 0 {
			cfg.PendingEntries = 2
		}
		fab := MustNew(tp16, cfg)
		sw, rng := top0(), sim.NewRNG(uint64(data[0]))
		type transfer struct{ owner, first int }
		trans := map[uint64]transfer{}
		data = data[1:]
		for op := 0; len(data) >= 2 && op < 512; op, data = op+1, data[2:] {
			a, b := data[0], data[1]
			addr, req := uint64(b%fuzzBlocks)*32, int(b>>4)
			if k := a & 7; int(k) < len(kinds) {
				m := &mesg.Message{Kind: kinds[k], Addr: addr, Src: mesg.P(req), Dst: mesg.M(0),
					Requester: req, NoData: a&8 != 0, ForWrite: a&16 != 0, Data: uint64(op)}
				st, owner, _ := fab.Lookup(sw, addr)
				act := fab.Snoop(sw, m, sim.Cycle(op))
				_, was := trans[addr]
				switch m.Kind {
				case mesg.ReadReq:
					if !act.Sink || len(act.Generated) != 1 || act.Generated[0].Kind != mesg.CtoCReq {
						break
					}
					if was || st != Mod || act.Generated[0].Dst != mesg.P(owner) {
						t.Fatalf("op %d: read of %#x intercepted in %v (transient %v) with a CtoC request to %v, owner %d",
							op, addr, st, was, act.Generated[0].Dst, owner)
					}
					trans[addr] = transfer{owner: owner, first: req}
				case mesg.CopyBack:
					delete(trans, addr)
				case mesg.WriteBack:
					if !m.ForWrite {
						delete(trans, addr)
					}
				}
			} else {
				switch ord := tp16.SwitchOrdinal(sw); a >> 5 & 3 {
				case 0:
					fab.CorruptRandom(rng, tp16.Nodes)
				case 1:
					fab.EvictRandom(rng)
				case 2:
					fab.DisableOrdinal(ord)
				case 3:
					fab.FailOrdinal(ord)
					clear(trans)
				}
			}
			n := fab.TransientCount(sw)
			if scan := scanTransient(fab, sw); n != len(trans) || n != scan {
				t.Fatalf("op %d: TransientCount %d, array scan %d, model %d", op, n, scan, len(trans))
			}
			if cfg.PendingEntries > 0 && n > cfg.PendingEntries {
				t.Fatalf("op %d: %d TRANSIENT entries overflow a %d-entry pending buffer", op, n, cfg.PendingEntries)
			}
			for blk := uint64(0); blk < fuzzBlocks; blk++ {
				st, owner, vec := fab.Lookup(sw, blk*32)
				tr, ok := trans[blk*32]
				if (st == Trans) != ok || ok && (owner != tr.owner || !vec.Has(tr.first)) {
					t.Fatalf("op %d: block %#x is %v owner %d waiters %v; model: transient %v %+v",
						op, blk*32, st, owner, vec, ok, tr)
				}
			}
		}
	})
}
