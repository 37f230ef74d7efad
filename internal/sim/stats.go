package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Accumulator tracks a running sum, count, min and max of cycle-valued
// samples (e.g. per-read latency). The zero value is ready to use.
type Accumulator struct {
	Count uint64
	Sum   uint64
	Min   uint64
	Max   uint64
}

// Observe records one sample.
func (a *Accumulator) Observe(v uint64) {
	if a.Count == 0 || v < a.Min {
		a.Min = v
	}
	if v > a.Max {
		a.Max = v
	}
	a.Count++
	a.Sum += v
}

// Mean returns the sample mean, or 0 when empty.
func (a *Accumulator) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.Sum) / float64(a.Count)
}

func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.1f min=%d max=%d", a.Count, a.Mean(), a.Min, a.Max)
}

// Histogram is a log2-bucketed latency histogram: bucket i counts
// samples v with 2^i <= v < 2^(i+1) (bucket 0 also holds v == 0).
type Histogram struct {
	Buckets [64]uint64
	acc     Accumulator
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.acc.Observe(v)
	h.Buckets[log2u(v)]++
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.acc.Count }

// Max returns the largest sample observed (0 when empty).
func (h *Histogram) Max() uint64 { return h.acc.Max }

// Percentile returns an upper bound on the p-th percentile (p in
// [0,100]): the upper edge of the bucket holding the nearest-rank
// sample, number ceil(p*n/100) (at least 1) in sorted order. p*n is
// formed before dividing so an integer p gives an exact rank.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.acc.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(p * float64(h.acc.Count) / 100))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, n := range h.Buckets {
		seen += n
		if seen >= target {
			return (uint64(1) << uint(i+1)) - 1
		}
	}
	return h.acc.Max
}

func log2u(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// BlockProfile accumulates per-key event counts (e.g. misses and CtoC
// transfers per memory block) and produces the cumulative distribution
// the paper plots in Figure 2. Keys are block addresses. Both
// simulators address a dense region starting at zero, so a key that is
// a multiple of the block size and below profileDenseBlocks blocks is
// counted in a slice indexed by block number, grown on demand, in two
// 32-bit counts; any other key, and any dense key whose count would
// pass 32 bits, is counted in a map of 64-bit counts. A key counts once
// it has been added, even with zero events, wherever it is kept.
type BlockProfile struct {
	shift  uint                 // log2(block bytes)
	dense  [][2]uint32          // block number -> {primary, secondary}, or profileMoved
	seen   []uint64             // bit i set: block number i is counted in dense
	sparse map[uint64][2]uint64 // any other key -> {primary, secondary}
}

// profileDenseBlocks bounds the dense counts at 2^21 blocks (16 MiB
// fully grown), the same bound as tracesim's flat home directory.
const profileDenseBlocks = 1 << 21

// profileMoved is the primary count of a dense slot whose key moved to
// the map; a dense primary count stays below it.
const profileMoved = math.MaxUint32

// NewBlockProfile returns an empty profile whose dense counts are
// indexed by key / blockBytes. Keys that are not a multiple of
// blockBytes are still counted exactly, in the map.
func NewBlockProfile(blockBytes int) *BlockProfile {
	b := &BlockProfile{sparse: make(map[uint64][2]uint64)}
	for n := blockBytes; n > 1; n >>= 1 {
		b.shift++
	}
	return b
}

// Add records d primary events and s secondary events for key.
func (b *BlockProfile) Add(key uint64, d, s uint64) {
	if idx := key >> b.shift; idx<<b.shift == key && idx < profileDenseBlocks {
		if idx >= uint64(len(b.dense)) {
			b.dense = append(b.dense, make([][2]uint32, int(idx)+1-len(b.dense))...)
			if words := int(idx>>6) + 1; words > len(b.seen) {
				b.seen = append(b.seen, make([]uint64, words-len(b.seen))...)
			}
		}
		c := &b.dense[idx]
		if c[0] != profileMoved {
			if d < uint64(profileMoved-c[0]) && s <= uint64(math.MaxUint32-c[1]) {
				b.seen[idx>>6] |= 1 << (idx & 63)
				c[0] += uint32(d)
				c[1] += uint32(s)
				return
			}
			// The count would pass 32 bits: the key moves to the map
			// for good, with what it has counted so far.
			b.sparse[key] = [2]uint64{uint64(c[0]), uint64(c[1])}
			b.seen[idx>>6] &^= 1 << (idx & 63)
			c[0], c[1] = profileMoved, 0
		}
	}
	c := b.sparse[key]
	c[0] += d
	c[1] += s
	b.sparse[key] = c
}

// Len reports the number of distinct keys.
func (b *BlockProfile) Len() int {
	n := len(b.sparse)
	for _, w := range b.seen {
		n += bits.OnesCount64(w)
	}
	return n
}

// Totals returns the grand totals of primary and secondary events.
func (b *BlockProfile) Totals() (primary, secondary uint64) {
	for _, c := range b.dense {
		if c[0] != profileMoved {
			primary += uint64(c[0])
			secondary += uint64(c[1])
		}
	}
	for _, c := range b.sparse {
		primary += c[0]
		secondary += c[1]
	}
	return
}

// CDF sorts keys by descending primary count, ties by ascending key,
// and returns cumulative fractions of primary and secondary events at
// the given key-fraction points (each in [0,1]). This is exactly Figure
// 2's construction: blocks sorted by misses/block, cumulative % of
// misses and CtoCs. The order is total, so blocks with equal miss
// counts but different CtoC counts enter the secondary sums in the
// same order on every run.
func (b *BlockProfile) CDF(points []float64) (primary, secondary []float64) {
	type kv struct {
		key uint64
		c   [2]uint64
	}
	all := make([]kv, 0, b.Len())
	for w, word := range b.seen {
		for ; word != 0; word &= word - 1 {
			idx := w<<6 + bits.TrailingZeros64(word)
			c := b.dense[idx]
			all = append(all, kv{uint64(idx) << b.shift, [2]uint64{uint64(c[0]), uint64(c[1])}})
		}
	}
	for k, c := range b.sparse {
		all = append(all, kv{k, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c[0] != all[j].c[0] {
			return all[i].c[0] > all[j].c[0]
		}
		return all[i].key < all[j].key
	})
	totP, totS := b.Totals()
	primary = make([]float64, len(points))
	secondary = make([]float64, len(points))
	var cumP, cumS uint64
	idx := 0
	for pi, p := range points {
		upto := int(p * float64(len(all)))
		for ; idx < upto && idx < len(all); idx++ {
			cumP += all[idx].c[0]
			cumS += all[idx].c[1]
		}
		if totP > 0 {
			primary[pi] = float64(cumP) / float64(totP)
		}
		if totS > 0 {
			secondary[pi] = float64(cumS) / float64(totS)
		}
	}
	return primary, secondary
}
