package dirctl

import (
	"fmt"
	"testing"

	"dresar/internal/mesg"
	"dresar/internal/sim"
)

// dupOp is one step of a duplicate-filter sequence: record the
// completion of requester's tx on a block, or ask whether a request
// carrying tx duplicates a completed one.
type dupOp struct {
	mark      bool
	block     int
	requester int
	tx        uint64
}

// refFilter is the duplicate filter's reference model: per (block,
// requester), the last doneTxDepth completed Tx in a plain slice.
type refFilter map[[2]int][]uint64

func (r refFilter) mark(block, requester int, tx uint64) {
	if tx == 0 {
		return
	}
	k := [2]int{block, requester}
	done := append(r[k], tx)
	if len(done) > doneTxDepth {
		done = done[1:]
	}
	r[k] = done
}

func (r refFilter) isDup(block, requester int, tx uint64) bool {
	for _, d := range r[[2]int{block, requester}] {
		if d == tx && tx != 0 {
			return true
		}
	}
	return false
}

// checkDupFilter runs ops on a controller's filter and on the
// reference model, and fails at the first lookup where they differ.
func checkDupFilter(t *testing.T, ops []dupOp) {
	t.Helper()
	c := New(sim.NewEngine(), 0, DefaultConfig(), func(*mesg.Message) {})
	ref := refFilter{}
	for i, op := range ops {
		e := c.ent(uint64(op.block) * 32)
		if op.mark {
			c.markDone(e, op.requester, op.tx)
			ref.mark(op.block, op.requester, op.tx)
			continue
		}
		m := &mesg.Message{Kind: mesg.ReadReq, Addr: uint64(op.block) * 32, Requester: op.requester, Tx: op.tx}
		if got, want := c.isDup(e, m), ref.isDup(op.block, op.requester, op.tx); got != want {
			t.Fatalf("op %d: block %d requester %d Tx %#x: isDup = %v, the last %d completions say %v (history %#x)",
				i, op.block, op.requester, op.tx, got, doneTxDepth, want, ref[[2]int{op.block, op.requester}])
		}
	}
}

// txOf builds a Tx for requester from a form selector and a sequence
// number: mostly the machine's (requester+1)<<32 | seq, so sequence
// numbers repeat across requesters, and sometimes a form the machine
// never makes (a bare sequence number, another requester's high half,
// zero) that moves a ring to its 64-bit copy.
func txOf(form, requester int, seq uint64) uint64 {
	switch form {
	case 0:
		return seq
	case 1:
		return uint64(requester+2)<<32 | seq
	case 2:
		return 0
	default:
		return uint64(requester+1)<<32 | seq
	}
}

// TestDuplicateFilterMatchesReference drives random completion and
// lookup sequences through the filter and the reference model: a few
// blocks, many requesters per block, sequence numbers drawn from a
// small range so they repeat within and across requesters. Sequences
// with machine-form Tx only keep every ring narrow; the others mix in
// Tx of other forms.
func TestDuplicateFilterMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		forms int // txOf forms drawn from: 1 = machine form only
	}{{"machine", 1}, {"mixed", 8}} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 20; seed++ {
				rng := sim.NewRNG(seed)
				ops := make([]dupOp, 4000)
				for i := range ops {
					form := 3
					if tc.forms > 1 {
						form = rng.Intn(tc.forms)
					}
					req := rng.Intn(40)
					ops[i] = dupOp{
						mark:      rng.Intn(2) == 0,
						block:     rng.Intn(3),
						requester: req,
						tx:        txOf(form, req, uint64(rng.Intn(24))),
					}
				}
				checkDupFilter(t, ops)
			}
		})
	}
}

// FuzzDuplicateFilter is the coverage-guided form of
// TestDuplicateFilterMatchesReference: every three input bytes are one
// operation (kind and block, requester, Tx form and sequence number).
func FuzzDuplicateFilter(f *testing.F) {
	f.Add([]byte{0, 1, 0xf1, 1, 1, 0xf1, 0, 2, 0xf1, 1, 1, 0xf1})
	f.Add([]byte{0, 3, 0x05, 1, 3, 0x05, 0, 3, 0xf6, 1, 3, 0x05, 1, 3, 0xf6})
	seq := make([]byte, 0, 3*(doneTxDepth+3))
	for i := 0; i < doneTxDepth+2; i++ {
		seq = append(seq, 0, 7, byte(0xf0|i))
	}
	f.Add(append(seq, 1, 7, 0xf0))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := make([]dupOp, 0, len(data)/3)
		for ; len(data) >= 3; data = data[3:] {
			req := int(data[1] % 64)
			ops = append(ops, dupOp{
				mark:      data[0]&1 == 0,
				block:     int(data[0]>>1) % 4,
				requester: req,
				tx:        txOf(int(data[2]>>4), req, uint64(data[2]&0x0f)),
			})
		}
		checkDupFilter(t, ops)
	})
}

// BenchmarkHomeRequest measures the home's request path on a warm
// directory of 16K blocks: per op, a read of an Uncached block, the
// same processor's write (an upgrade with no invalidation), each with
// its duplicate check and completion record, then that processor's
// writeback, which returns the block to Uncached. Processors take
// turns by pass over the blocks, so once warm every block has a
// completion ring for each of the sub-benchmark's sharers.
func BenchmarkHomeRequest(b *testing.B) {
	for _, sharers := range []int{2, 16} {
		b.Run(fmt.Sprintf("sharers=%d", sharers), func(b *testing.B) {
			const blocks = 16384
			pool := &mesg.Pool{}
			c := New(sim.NewEngine(), 0, DefaultConfig(), pool.Release)
			c.SetPool(pool)
			seq := make([]uint64, sharers)
			send := func(kind mesg.Kind, p int, addr uint64) {
				m := pool.Get()
				m.Kind, m.Addr, m.Src, m.Dst, m.Requester = kind, addr, mesg.P(p), mesg.M(0), p
				if kind == mesg.WriteBack {
					m.Data = addr
				} else {
					seq[p]++
					m.Tx = uint64(p+1)<<32 | seq[p]
				}
				c.process(m)
			}
			op := func(k int) {
				addr, p := uint64(k%blocks)*32, k/blocks%sharers
				send(mesg.ReadReq, p, addr)
				send(mesg.WriteReq, p, addr)
				send(mesg.WriteBack, p, addr)
			}
			for k := 0; k < sharers*blocks; k++ {
				op(k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(i)
			}
			b.StopTimer()
			if c.Stats.Reads != c.Stats.ReadsClean || c.Stats.DupRequests != 0 || c.Stats.Invalidations != 0 {
				b.Fatalf("the requests did not take the clean path: %+v", c.Stats)
			}
		})
	}
}
