package cache

import "fmt"

// Hierarchy is the two-level inclusive cache of one node. The L2 is
// the coherence point: protocol state transitions apply to L2 and are
// propagated down to keep L1 a strict subset. Lookups report combined
// hit latency (L1 hit: L1 cycles; L2 hit: L1 + L2 cycles).
type Hierarchy struct {
	L1, L2 *Cache
}

// NewHierarchy builds an inclusive L1/L2 pair. The L1 must not be
// larger than the L2.
func NewHierarchy(l1, l2 Config) (*Hierarchy, error) {
	if l1.BlockBytes != l2.BlockBytes {
		return nil, fmt.Errorf("cache: L1/L2 block sizes differ (%d vs %d)", l1.BlockBytes, l2.BlockBytes)
	}
	if l1.SizeBytes > l2.SizeBytes {
		return nil, fmt.Errorf("cache: L1 (%dB) larger than L2 (%dB)", l1.SizeBytes, l2.SizeBytes)
	}
	c1, err := New(l1)
	if err != nil {
		return nil, err
	}
	c2, err := New(l2)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{L1: c1, L2: c2}, nil
}

// MustNewHierarchy panics on error.
func MustNewHierarchy(l1, l2 Config) *Hierarchy {
	h, err := NewHierarchy(l1, l2)
	if err != nil {
		panic(err)
	}
	return h
}

// LookupResult reports where a reference hit.
type LookupResult struct {
	State  State
	Data   uint64
	Cycles uint64 // access latency consumed by the lookup
	HitL1  bool
	HitL2  bool
}

// Read performs a load lookup. On an L2 hit the line is refilled into
// L1 (possibly displacing an L1 line, which needs no writeback thanks
// to inclusion: the L2 copy is current because stores write through to
// the L2 version field).
func (h *Hierarchy) Read(addr uint64) LookupResult {
	if st, d := h.L1.Access(addr); st != Invalid {
		return LookupResult{State: st, Data: d, Cycles: h.L1.AccessCycles(), HitL1: true}
	}
	if st, d := h.L2.Access(addr); st != Invalid {
		h.L1.Insert(addr, st, d)
		return LookupResult{State: st, Data: d, Cycles: h.L1.AccessCycles() + h.L2.AccessCycles(), HitL2: true}
	}
	return LookupResult{State: Invalid, Cycles: h.L1.AccessCycles() + h.L2.AccessCycles()}
}

// Probe inspects coherence state without touching LRU or stats.
// Inclusion makes the L2 authoritative.
func (h *Hierarchy) Probe(addr uint64) (State, uint64) { return h.L2.Probe(addr) }

// WriteHit applies a store to a line already held in Modified state,
// bumping its version in both levels. It reports whether the store hit
// in M (the only state a store can retire into without a transaction).
func (h *Hierarchy) WriteHit(addr uint64, version uint64) bool {
	st, _ := h.L2.Probe(addr)
	if st != Modified {
		return false
	}
	h.L2.SetData(addr, version)
	h.L1.SetData(addr, version) // no-op if not L1-resident
	return true
}

// Fill installs a block arriving from the memory system into both
// levels and returns any dirty L2 victim that must be written back.
// Inclusion: an L2 victim is also removed from L1.
func (h *Hierarchy) Fill(addr uint64, st State, data uint64) (Victim, bool) {
	v, had := h.L2.Insert(addr, st, data)
	if had {
		h.L1.Invalidate(v.Addr)
	}
	h.L1.Insert(addr, st, data)
	if had && v.State == Modified {
		return v, true
	}
	return Victim{}, false
}

// Refresh overwrites a present block's version in both levels (a
// newer duplicate data reply superseding what was cached).
func (h *Hierarchy) Refresh(addr, version uint64) {
	h.L2.SetData(addr, version)
	h.L1.SetData(addr, version)
}

// Invalidate removes a block from both levels, returning its prior L2
// state and data.
func (h *Hierarchy) Invalidate(addr uint64) (State, uint64, bool) {
	h.L1.Invalidate(addr)
	return h.L2.Invalidate(addr)
}

// Downgrade moves a block M→S in both levels (after supplying a CtoC
// copy). It reports whether the block was present in M.
func (h *Hierarchy) Downgrade(addr uint64) bool {
	if !h.L2.Downgrade(addr) {
		return false
	}
	h.L1.Downgrade(addr)
	return true
}

// CheckInclusion verifies that every valid L1 line is present in L2
// with a compatible state and identical data; it returns the first
// violation found, or nil.
func (h *Hierarchy) CheckInclusion() error {
	var err error
	h.L1.Lines(func(addr uint64, st State, data uint64) {
		if err != nil {
			return
		}
		st2, d2 := h.L2.Probe(addr)
		if st2 == Invalid {
			err = fmt.Errorf("cache: L1 holds %#x (%v) absent from L2", addr, st)
			return
		}
		if d2 != data {
			err = fmt.Errorf("cache: L1/L2 data mismatch at %#x: %d vs %d", addr, data, d2)
		}
	})
	return err
}
