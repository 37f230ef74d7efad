package workload

import (
	"testing"

	"dresar/internal/core"
)

func collectRefs(w Workload, p, ph int) []Ref {
	var out []Ref
	w.Refs(p, ph, func(r Ref) { out = append(out, r) })
	return out
}

func TestRowsOf(t *testing.T) {
	// 10 rows over 4 procs: 3,3,2,2 and contiguous coverage.
	covered := make([]bool, 10)
	for p := 0; p < 4; p++ {
		lo, hi := rowsOf(10, 4, p)
		for i := lo; i < hi; i++ {
			if covered[i] {
				t.Fatalf("row %d covered twice", i)
			}
			covered[i] = true
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("row %d uncovered", i)
		}
	}
}

func TestLayoutsDisjoint(t *testing.T) {
	var l layout
	a := l.alloc(100)
	b := l.alloc(5000)
	c := l.alloc(1)
	if a == b || b == c || b-a < 100 || c-b < 5000 {
		t.Fatalf("layout overlap: %d %d %d", a, b, c)
	}
	if a%4096 != 0 || b%4096 != 0 || c%4096 != 0 {
		t.Fatal("regions not page aligned")
	}
}

func TestByName(t *testing.T) {
	for _, n := range Names() {
		w, err := ByName(n, 16)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name() != n && !(n == "gauss" && w.Name() == "gauss") {
			t.Fatalf("name mismatch: %s vs %s", n, w.Name())
		}
		if w.Phases() <= 0 || w.Procs() != 16 {
			t.Fatalf("%s: phases=%d procs=%d", n, w.Phases(), w.Procs())
		}
	}
	if _, err := ByName("nope", 16); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

// noIntraPhaseRace checks that no phase has one processor writing an
// element another processor reads or writes in the same phase — the
// property that makes per-phase streams algorithmically race-free.
// (Block-granularity false sharing, as on SOR partition boundaries, is
// real application behaviour and permitted.)
func noIntraPhaseRace(t *testing.T, w Workload, phases int) {
	t.Helper()
	for ph := 0; ph < phases; ph++ {
		writers := map[uint64]int{}
		for p := 0; p < w.Procs(); p++ {
			for _, r := range collectRefs(w, p, ph) {
				if r.Write {
					if prev, ok := writers[r.Addr]; ok && prev != p {
						t.Fatalf("%s phase %d: element %#x written by P%d and P%d", w.Name(), ph, r.Addr, prev, p)
					}
					writers[r.Addr] = p
				}
			}
		}
		for p := 0; p < w.Procs(); p++ {
			for _, r := range collectRefs(w, p, ph) {
				if !r.Write {
					if wp, ok := writers[r.Addr]; ok && wp != p {
						t.Fatalf("%s phase %d: P%d reads element %#x written by P%d in same phase", w.Name(), ph, p, r.Addr, wp)
					}
				}
			}
		}
	}
}

func TestNoIntraPhaseRaces(t *testing.T) {
	// Small instances; check all phases.
	for _, w := range []Workload{
		NewFFT(256, 4),
		NewSOR(32, 2, 4),
		NewTC(16, 4),
		NewFWA(16, 4),
		NewGauss(16, 4),
	} {
		noIntraPhaseRace(t, w, w.Phases())
	}
}

func TestFFTTransposeIsCrossProcessor(t *testing.T) {
	f := NewFFT(256, 4) // 16x16
	// In the transpose phase, P1 must read rows P0 wrote in phase 0.
	p0Writes := map[uint64]bool{}
	for _, r := range collectRefs(f, 0, 0) {
		if r.Write {
			p0Writes[r.Addr&^31] = true
		}
	}
	cross := 0
	for _, r := range collectRefs(f, 1, 1) {
		if !r.Write && p0Writes[r.Addr&^31] {
			cross++
		}
	}
	if cross == 0 {
		t.Fatal("transpose reads none of P0's dirty rows — no CtoC pattern")
	}
}

func TestTCBroadcastRow(t *testing.T) {
	w := NewTC(16, 4)
	// Phase k: every processor (except row k's owner skipping i==k)
	// reads row k.
	k := 5
	owner := -1
	for p := 0; p < 4; p++ {
		lo, hi := rowsOf(16, 4, p)
		if k >= lo && k < hi {
			owner = p
		}
	}
	rowK := map[uint64]bool{}
	for j := 0; j < 16; j++ {
		rowK[w.at(k, j)&^31] = true
	}
	for p := 0; p < 4; p++ {
		if p == owner {
			continue
		}
		found := false
		for _, r := range collectRefs(w, p, k) {
			if !r.Write && rowK[r.Addr&^31] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("P%d does not read broadcast row %d", p, k)
		}
	}
}

func TestGaussPhasesShrink(t *testing.T) {
	g := NewGauss(16, 4)
	early := 0
	late := 0
	for p := 0; p < 4; p++ {
		early += len(collectRefs(g, p, 1))     // eliminate k=0
		late += len(collectRefs(g, p, 2*14+1)) // eliminate k=14
	}
	if late >= early {
		t.Fatalf("elimination work should shrink: early=%d late=%d", early, late)
	}
}

// runSmall executes a small instance end-to-end on a machine with
// coherence checking and returns the stats.
func runSmall(t *testing.T, w Workload, cfg core.Config) core.Stats {
	t.Helper()
	cfg.CheckCoherence = true
	m := core.MustNew(cfg)
	d, err := NewDriver(m, w)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.Run()
	if err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	if !m.Quiesced() {
		t.Fatalf("%s: not quiesced", w.Name())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	return s
}

func TestAllKernelsRunBase(t *testing.T) {
	for _, w := range []Workload{
		NewFFT(1024, 16),
		NewSOR(64, 2, 16),
		NewTC(32, 16),
		NewFWA(32, 16),
		NewGauss(32, 16),
	} {
		s := runSmall(t, w, core.DefaultConfig())
		if s.Reads == 0 || s.ReadMisses == 0 {
			t.Fatalf("%s: no misses recorded: %+v", w.Name(), s)
		}
		if s.CtoC() == 0 {
			t.Fatalf("%s: produced no cache-to-cache transfers", w.Name())
		}
	}
}

func TestAllKernelsRunSwitchDir(t *testing.T) {
	for _, w := range []Workload{
		NewFFT(1024, 16),
		NewSOR(64, 2, 16),
		NewTC(32, 16),
		NewFWA(32, 16),
		NewGauss(32, 16),
	} {
		s := runSmall(t, w, core.DefaultConfig().WithSwitchDir(1024))
		if s.ReadCtoCSwitch == 0 {
			t.Fatalf("%s: switch directory never served a transfer: %+v", w.Name(), s)
		}
	}
}

func TestSwitchDirReducesHomeCtoCOnFFT(t *testing.T) {
	w := func() Workload { return NewFFT(4096, 16) }
	base := runSmall(t, w(), core.DefaultConfig())
	sd := runSmall(t, w(), core.DefaultConfig().WithSwitchDir(1024))
	if base.HomeCtoCForwards == 0 {
		t.Fatal("FFT produced no home CtoC forwards")
	}
	if float64(sd.HomeCtoCForwards) > 0.8*float64(base.HomeCtoCForwards) {
		t.Fatalf("switch dir reduction too small: base=%d sd=%d (switch-served %d)",
			base.HomeCtoCForwards, sd.HomeCtoCForwards, sd.ReadCtoCSwitch)
	}
	if sd.Cycles >= base.Cycles {
		t.Logf("warning: no execution-time gain: base=%d sd=%d", base.Cycles, sd.Cycles)
	}
}

func TestDriverRejectsTooManyProcs(t *testing.T) {
	m := core.MustNew(core.DefaultConfig())
	if _, err := NewDriver(m, NewTC(16, 32)); err == nil {
		t.Fatal("oversubscribed workload accepted")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() core.Stats {
		m := core.MustNew(core.DefaultConfig().WithSwitchDir(512))
		d, _ := NewDriver(m, NewTC(24, 16))
		s, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic simulation:\n%+v\n%+v", a, b)
	}
}

// TestWideSwitchMachineCompletes runs TC on the 33-node radix-33
// machine, whose single switch per rank has 66 output ports. An arbiter
// that can address only 64 outputs never grants memory-side ports 64
// and 65, so reads homed at nodes 31 and 32 stay outstanding and the
// run stalls in its first phase.
func TestWideSwitchMachineCompletes(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Nodes, cfg.Radix = 33, 33
	s := runSmall(t, NewTC(64, 33), cfg)
	if s.ReadMisses == 0 {
		t.Fatalf("no misses recorded: %+v", s)
	}
}
