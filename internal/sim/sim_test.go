package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(10, func() { got = append(got, 1) })
	e.At(5, func() { got = append(got, 0) })
	e.At(10, func() { got = append(got, 2) }) // same cycle: FIFO
	e.At(20, func() { got = append(got, 3) })
	n := e.Run(0)
	if n != 4 {
		t.Fatalf("ran %d events, want 4", n)
	}
	want := []int{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %d, want 20", e.Now())
	}
}

func TestEngineSameCycleFIFOIsStable(t *testing.T) {
	e := NewEngine()
	const n = 1000
	var got []int
	for i := 0; i < n; i++ {
		i := i
		e.At(7, func() { got = append(got, i) })
	}
	e.Run(0)
	for i := 0; i < n; i++ {
		if got[i] != i {
			t.Fatalf("same-cycle events reordered at %d: got %d", i, got[i])
		}
	}
}

func TestEngineNoTimeTravel(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		// Schedule "in the past" from cycle 100; must fire at >= 100.
		e.At(5, func() {
			if e.Now() < 100 {
				t.Errorf("event fired at %d, before schedule time 100", e.Now())
			}
		})
	})
	e.Run(0)
}

func TestEngineAfterAndNesting(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.After(3, func() {
		if e.Now() != 3 {
			t.Errorf("first event at %d, want 3", e.Now())
		}
		fired++
		e.After(4, func() {
			if e.Now() != 7 {
				t.Errorf("nested event at %d, want 7", e.Now())
			}
			fired++
		})
	})
	e.Run(0)
	if fired != 2 {
		t.Fatalf("fired %d events, want 2", fired)
	}
}

func TestEngineDrainBound(t *testing.T) {
	e := NewEngine()
	fired := map[Cycle]bool{}
	for _, c := range []Cycle{1, 5, 10, 15} {
		c := c
		e.At(c, func() { fired[c] = true })
	}
	e.Drain(10)
	if !fired[1] || !fired[5] || !fired[10] {
		t.Fatalf("events <= 10 did not all fire: %v", fired)
	}
	if fired[15] {
		t.Fatalf("event at 15 fired during Drain(10)")
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.At(Cycle(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run(0)
	if count != 3 {
		t.Fatalf("ran %d events after Stop, want 3", count)
	}
}

func TestEngineRunLimit(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.At(Cycle(i), func() { count++ })
	}
	if n := e.Run(4); n != 4 || count != 4 {
		t.Fatalf("Run(4) = %d (count %d), want 4", n, count)
	}
}

func TestEngineHeapProperty(t *testing.T) {
	// Property: events always fire in non-decreasing time order, for
	// arbitrary insertion orders.
	f := func(times []uint16) bool {
		e := NewEngine()
		var fireOrder []Cycle
		for _, ti := range times {
			ti := Cycle(ti)
			e.At(ti, func() { fireOrder = append(fireOrder, ti) })
		}
		e.Run(0)
		for i := 1; i < len(fireOrder); i++ {
			if fireOrder[i] < fireOrder[i-1] {
				return false
			}
		}
		return len(fireOrder) == len(times)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical draws of 1000", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(11)
	p := r.Perm(64)
	seen := make([]bool, 64)
	for _, v := range p {
		if v < 0 || v >= 64 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(1)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Draw()]++
	}
	// Rank 0 should dominate rank 50 heavily under s=1.
	if counts[0] < 10*counts[50] {
		t.Fatalf("zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != draws {
		t.Fatalf("lost draws: %d", total)
	}
}

func TestAccumulator(t *testing.T) {
	var a Accumulator
	for _, v := range []uint64{5, 1, 9, 5} {
		a.Observe(v)
	}
	if a.Count != 4 || a.Sum != 20 || a.Min != 1 || a.Max != 9 {
		t.Fatalf("accumulator = %+v", a)
	}
	if a.Mean() != 5 {
		t.Fatalf("mean = %v, want 5", a.Mean())
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for i := uint64(0); i < 1000; i++ {
		h.Observe(i)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	p99 := h.Percentile(99)
	if p99 < 512 || p99 > 2048 {
		t.Fatalf("p99 = %d, want around 1000 (bucket bound)", p99)
	}
	if h.Percentile(0) == 0 && h.Count() > 0 {
		// percentile(0) clamps to first non-empty bucket bound; with a 0
		// sample the first bucket is non-empty so bound is 1.
		t.Logf("p0 = %d", h.Percentile(0))
	}
}

// TestHistogramPercentileNearestRank pins the nearest-rank definition:
// Percentile(p) is the upper edge of the bucket holding sample number
// ceil(p*n/100), at least 1, in sorted order; Max is the exact largest
// sample.
func TestHistogramPercentileNearestRank(t *testing.T) {
	// Samples 1, 2, 4, ..., 512 put rank r in bucket r-1, upper edge
	// 2^r - 1, so every rank reads differently.
	var pow Histogram
	for i := 0; i < 10; i++ {
		pow.Observe(1 << i)
	}
	// Nine 1s and one 1000: the nearest-rank p95 is the 1000 sample.
	var tail Histogram
	for i := 0; i < 9; i++ {
		tail.Observe(1)
	}
	tail.Observe(1000)
	// Seven 1s under ninety-three 1000s: rank 7 is a 1, rank 8 a 1000,
	// and p=7 must give rank 7 although 7/100*100 is 7.000000000000001.
	var seven Histogram
	for i := 0; i < 100; i++ {
		v := uint64(1000)
		if i < 7 {
			v = 1
		}
		seven.Observe(v)
	}
	for _, c := range []struct {
		name string
		h    *Histogram
		p    float64
		want uint64
	}{
		{"pow2", &pow, 0, 1},
		{"pow2", &pow, 50, 31},
		{"pow2", &pow, 70, 127},
		{"pow2", &pow, 90, 511},
		{"pow2", &pow, 95, 1023},
		{"pow2", &pow, 100, 1023},
		{"tail", &tail, 90, 1},
		{"tail", &tail, 95, 1023},
		{"seven", &seven, 7, 1},
		{"seven", &seven, 8, 1023},
	} {
		if got := c.h.Percentile(c.p); got != c.want {
			t.Errorf("%s: Percentile(%v) = %d, want %d", c.name, c.p, got, c.want)
		}
	}
	if tail.Max() != 1000 {
		t.Errorf("tail: Max() = %d, want 1000", tail.Max())
	}
}

func TestBlockProfileCDF(t *testing.T) {
	b := NewBlockProfile()
	// 10 blocks: block 0 has 91 misses/91 ctocs, others 1/1 each.
	b.Add(0, 91, 91)
	for k := uint64(1); k < 10; k++ {
		b.Add(k, 1, 1)
	}
	p, s := b.CDF([]float64{0.1, 1.0})
	if p[0] < 0.90 || p[0] > 0.92 {
		t.Fatalf("top-10%% primary = %v, want ~0.91", p[0])
	}
	if s[1] != 1.0 || p[1] != 1.0 {
		t.Fatalf("full CDF must reach 1.0: p=%v s=%v", p, s)
	}
	if b.Len() != 10 {
		t.Fatalf("len = %d", b.Len())
	}
	tp, ts := b.Totals()
	if tp != 100 || ts != 100 {
		t.Fatalf("totals = %d,%d", tp, ts)
	}
}

// TestBlockProfileCDFTotalOrder pins Figure 2's tie-break: blocks with
// equal miss counts are taken in ascending address order, so their CtoC
// counts enter the running sum in the same order whatever the map's
// iteration order. The same counts added in two orders must give the
// same, hand-computed, CDF.
func TestBlockProfileCDFTotalOrder(t *testing.T) {
	// Block: misses, CtoCs. Blocks 7, 3 and 5 tie at 4 misses with
	// different CtoC counts; 9 and 2 tie at 1 miss.
	counts := []struct{ key, d, s uint64 }{
		{7, 4, 0}, {3, 4, 2}, {5, 4, 1}, {1, 6, 3}, {9, 1, 0}, {2, 1, 2},
	}
	// Sorted order: 1 (6/3), 3 (4/2), 5 (4/1), 7 (4/0), 2 (1/2), 9 (1/0).
	// Totals: 20 misses, 8 CtoCs.
	points := []float64{1.0 / 6, 2.0 / 6, 3.0 / 6, 4.0 / 6, 5.0 / 6, 1}
	wantP := []float64{6.0 / 20, 10.0 / 20, 14.0 / 20, 18.0 / 20, 19.0 / 20, 1}
	wantS := []float64{3.0 / 8, 5.0 / 8, 6.0 / 8, 6.0 / 8, 1, 1}
	fwd, rev := NewBlockProfile(), NewBlockProfile()
	for i := range counts {
		c, r := counts[i], counts[len(counts)-1-i]
		fwd.Add(c.key, c.d, c.s)
		rev.Add(r.key, r.d, r.s)
	}
	for _, b := range []*BlockProfile{fwd, rev} {
		for trial := 0; trial < 20; trial++ {
			p, s := b.CDF(points)
			for i := range points {
				if p[i] != wantP[i] || s[i] != wantS[i] {
					t.Fatalf("CDF at %v = (%v, %v), want (%v, %v)", points[i], p[i], s[i], wantP[i], wantS[i])
				}
			}
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+Cycle(i%64), func() {})
		if e.Pending() > 1024 {
			e.Run(512)
		}
	}
	e.Run(0)
}

// chainActor reschedules every event it fires, the way a message hops
// through the model: AtEvent with the same pointer data word, 0-8
// cycles out, and one hop in 64 beyond calWindow (a timeout that waits
// in the far heap and then migrates into the ring).
type chainActor struct {
	e    *Engine
	hops uint64
}

func (c *chainActor) OnEvent(op int, arg uint64, data any) {
	c.hops++
	d := Cycle(c.hops % 9)
	if c.hops%64 == 0 {
		d += calWindow
	}
	c.e.AtEvent(c.e.Now()+d, c, op, arg, data)
}

// BenchmarkEngineActorEvents times the scheduling path the model's
// components use (AtEvent with a pointer data word), one scheduled and
// fired event per op over 256 message chains, once the slab, buckets
// and far heap are warm.
func BenchmarkEngineActorEvents(b *testing.B) {
	type msg struct{ id int }
	e := NewEngine()
	c := &chainActor{e: e}
	for i := 0; i < 256; i++ {
		e.AtEvent(Cycle(i%9), c, i, uint64(i), &msg{i})
	}
	e.Run(1 << 18)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}

func TestEngineDrainDoesNotJumpClock(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {})
	e.At(9, func() {})
	n := e.Drain(1000)
	if n != 2 {
		t.Fatalf("drained %d events", n)
	}
	if e.Now() != 9 {
		t.Fatalf("Drain advanced clock to %d, want 9 (last event)", e.Now())
	}
	// Events beyond the bound stay queued.
	e.At(2000, func() {})
	if e.Drain(1000) != 0 || e.Pending() != 1 {
		t.Fatalf("Drain crossed its bound")
	}
}

func TestEngineDrainRespectsStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 5; i++ {
		e.At(Cycle(i), func() {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	e.Drain(100)
	if count != 2 {
		t.Fatalf("Drain ignored Stop: ran %d", count)
	}
}

func TestWatchdogTripsOnLivelock(t *testing.T) {
	e := NewEngine()
	var gotNow, gotSince Cycle
	e.SetWatchdog(100, func(now, since Cycle) { gotNow, gotSince = now, since })
	// A self-rescheduling event that never marks progress: a livelock.
	var tick func()
	tick = func() { e.After(10, tick) }
	e.After(10, tick)
	e.Run(0)
	if !e.Stalled() {
		t.Fatalf("watchdog did not trip")
	}
	if gotSince < 100 || gotNow != e.Now() {
		t.Fatalf("onStall(now=%d, since=%d), engine now=%d", gotNow, gotSince, e.Now())
	}
	if e.Pending() == 0 {
		t.Fatalf("livelock should leave the next event queued")
	}
}

func TestWatchdogProgressDefersTrip(t *testing.T) {
	e := NewEngine()
	trips := 0
	e.SetWatchdog(100, func(_, _ Cycle) { trips++ })
	// Progress every 50 cycles for a while keeps the watchdog quiet...
	n := 0
	var tick func()
	tick = func() {
		n++
		if n <= 10 {
			e.Progress()
			e.After(50, tick)
		} else {
			e.After(50, tick) // ...then stop marking: trip expected.
		}
	}
	e.After(50, tick)
	e.Run(0)
	if trips != 1 || !e.Stalled() {
		t.Fatalf("trips=%d stalled=%v, want exactly one trip after progress ends", trips, e.Stalled())
	}
	if e.SinceProgress() < 100 {
		t.Fatalf("SinceProgress=%d below limit at trip", e.SinceProgress())
	}
}

func TestWatchdogDisarmed(t *testing.T) {
	e := NewEngine()
	e.SetWatchdog(100, func(_, _ Cycle) { t.Fatal("disarmed watchdog fired") })
	e.SetWatchdog(0, nil)
	for i := 0; i < 5; i++ {
		e.After(Cycle(1000*i), func() {})
	}
	e.Run(0)
	if e.Stalled() {
		t.Fatalf("disarmed watchdog tripped")
	}
}

func TestWatchdogInDrain(t *testing.T) {
	e := NewEngine()
	e.SetWatchdog(64, nil)
	var tick func()
	tick = func() { e.After(8, tick) }
	e.After(8, tick)
	e.Drain(1 << 20)
	if !e.Stalled() {
		t.Fatalf("watchdog did not trip")
	}
	if e.Now() >= 1<<20 {
		t.Fatalf("clock jumped past the stall point to %d", e.Now())
	}
}
