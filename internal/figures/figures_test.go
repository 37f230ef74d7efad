package figures

import (
	"context"
	"strings"
	"testing"

	"dresar/internal/core"
	"dresar/internal/swcache"
)

func TestScientificWorkloadScales(t *testing.T) {
	for _, app := range []string{"fft", "tc", "sor", "fwa", "gauss"} {
		for _, sc := range []Scale{ScaleSmall, ScalePaper} {
			w, err := ScientificWorkload(app, sc)
			if err != nil {
				t.Fatal(err)
			}
			if w.Procs() != 16 {
				t.Fatalf("%s/%v: procs = %d", app, sc, w.Procs())
			}
		}
	}
	if _, err := ScientificWorkload("bogus", ScaleSmall); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestRunOneCommercialAndScientific(t *testing.T) {
	sci, err := RunOne("tc", ScaleSmall, 512)
	if err != nil {
		t.Fatal(err)
	}
	if sci.CtoCSwitch == 0 {
		t.Fatalf("tc with switch dirs served nothing: %+v", sci)
	}
	com, err := RunOne("tpcc", ScaleSmall, 512)
	if err != nil {
		t.Fatal(err)
	}
	if com.CtoCSwitch == 0 || com.ReadMisses == 0 {
		t.Fatalf("tpcc: %+v", com)
	}
}

func TestFig1SmallShape(t *testing.T) {
	text, data, err := Fig1(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "Figure 1") {
		t.Fatal("missing title")
	}
	for _, app := range Apps {
		d, ok := data[app]
		if !ok {
			t.Fatalf("missing %s", app)
		}
		if d[0]+d[1] < 0.99 || d[0]+d[1] > 1.01 {
			t.Fatalf("%s fractions do not sum to 1: %v", app, d)
		}
		if d[1] <= 0 {
			t.Fatalf("%s has no dirty misses", app)
		}
	}
	// Shape: FFT is communication-intensive; TPC-D is dirtier than
	// TPC-C (paper: 62%% vs 38%%).
	if data["tpcd"][1] <= data["tpcc"][1] {
		t.Fatalf("TPC-D dirty share (%.2f) must exceed TPC-C (%.2f)", data["tpcd"][1], data["tpcc"][1])
	}
	if data["fft"][1] < 0.3 {
		t.Fatalf("FFT dirty share = %.2f, want communication-intensive", data["fft"][1])
	}
}

func TestFig2Monotone(t *testing.T) {
	text, rows, err := Fig2(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "Figure 2") {
		t.Fatal("missing title")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i][1] < rows[i-1][1] || rows[i][2] < rows[i-1][2] {
			t.Fatalf("CDF not monotone at %d: %v", i, rows)
		}
	}
	last := rows[len(rows)-1]
	if last[1] < 0.999 || last[2] < 0.999 {
		t.Fatalf("CDF does not reach 1: %v", last)
	}
	// Skew: top 10%% of blocks must carry most CtoCs.
	for _, r := range rows {
		if r[0] == 0.10 && r[2] < 0.5 {
			t.Fatalf("top-10%% CtoC share = %.2f, want skewed", r[2])
		}
	}
}

func TestSweepAndNormalizedFigures(t *testing.T) {
	// A small two-app, two-size sweep exercises the whole path.
	sweep, err := SweepCtx(context.Background(), ScaleSmall, []string{"fft", "tpcc"}, []int{0, 1024}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, render := range []func(map[string]map[int]Result) string{Fig8, Fig9, Fig10, Fig11} {
		out := render(sweep)
		if !strings.Contains(out, "fft") || !strings.Contains(out, "tpcc") {
			t.Fatalf("missing rows:\n%s", out)
		}
	}
	// Shape: switch directories reduce home CtoC on both.
	for _, app := range []string{"fft", "tpcc"} {
		base := sweep[app][0]
		sd := sweep[app][1024]
		if sd.CtoCHome >= base.CtoCHome {
			t.Fatalf("%s: home CtoC not reduced: %d -> %d", app, base.CtoCHome, sd.CtoCHome)
		}
		if sd.AvgReadLat >= base.AvgReadLat {
			t.Fatalf("%s: read latency not reduced: %.1f -> %.1f", app, base.AvgReadLat, sd.AvgReadLat)
		}
		if sd.ExecCycles >= base.ExecCycles {
			t.Fatalf("%s: execution time not reduced: %d -> %d", app, base.ExecCycles, sd.ExecCycles)
		}
	}
}

// TestNormTableColumns renders hand-built sweeps, with no simulation:
// the columns are the sizes the sweep ran, not the default sweep's, an
// app without a base cell has nothing to normalize to, and an app
// outside Apps (here the GAUSS alias "ge") still gets its row, after
// the Apps rows.
func TestNormTableColumns(t *testing.T) {
	sweep := map[string]map[int]Result{"fft": {0: {ExecCycles: 200}, 4096: {ExecCycles: 150}}}
	want := "Figure 11: Execution Time Reduction\n" +
		"app            base      4096E   (execution cycles, normalized to base)\n" +
		"fft           1.000      0.750\n"
	if got := Fig11(sweep); got != want {
		t.Errorf("sizes {0, 4096}:\n got %q\nwant %q", got, want)
	}
	noBase := map[string]map[int]Result{"tc": {1024: {ExecCycles: 224540}}}
	want = "Figure 11: Execution Time Reduction\n" +
		"app           1024E   (execution cycles, normalized to base)\n" +
		"tc                -\n"
	if got := Fig11(noBase); got != want {
		t.Errorf("no base cell:\n got %q\nwant %q", got, want)
	}
	alias := map[string]map[int]Result{
		"ge":  {0: {ExecCycles: 400}, 1024: {ExecCycles: 300}},
		"zz":  {0: {ExecCycles: 100}, 1024: {ExecCycles: 100}},
		"fft": {0: {ExecCycles: 200}, 1024: {ExecCycles: 150}},
	}
	want = "Figure 11: Execution Time Reduction\n" +
		"app            base      1024E   (execution cycles, normalized to base)\n" +
		"fft           1.000      0.750\n" +
		"ge            1.000      0.750\n" +
		"zz            1.000      1.000\n"
	if got := Fig11(alias); got != want {
		t.Errorf("apps outside Apps:\n got %q\nwant %q", got, want)
	}
}

// TestAblationsPinned pins Figure 13 at ScaleSmall. The FFT rows hold
// the exec, switch-served, retry and leaf/top-hit counts the ablations
// have always measured on FFT 4K; the TC, FWA and GAUSS policy rows
// equal `dresar-sim -app X -size 64 -policy P`.
func TestAblationsPinned(t *testing.T) {
	got, err := Ablations(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	const want = `Figure 13 (extension): design ablations, 16 nodes, 1K-entry switch directories
variant            app          exec exec/1st switchCtoC  retries  homeReads
read-in-TRANSIENT policy
  retry            fft        135173    1.000       5760        0       2048
  bitvector        fft        135173    1.000       5760        0       2048
  retry            tc         224540    1.000        189     1260       1859
  bitvector        tc         183532    0.817       1134        0        914
  retry            fwa       1540203    1.000       1598     1260      14786
  bitvector        fwa       1410981    0.916       3380        0      13004
  retry            gauss      347313    1.000        678      622       5786
  bitvector        gauss      289465    0.833       1923        0       4541
pending buffer
  0 entries        fft        135173    1.000       5760        0       2048
  16 entries       fft        136918    1.013       5760        0       2048
directory placement
  both stages      fft        135173    1.000       5760        0       2048  leaf=1152 top=4608
  top only         fft        139175    1.030       5760        0       2048  leaf=0 top=5760
  leaf only        fft        163510    1.210       1152        0       6656  leaf=1152 top=0
associativity
  1-way            fft        165545    1.000       3628        0       4180
  2-way            fft        135173    0.817       5760        0       2048
  4-way            fft        135173    0.817       5760        0       2048
  8-way            fft        135173    0.817       5760        0       2048
write MSHRs
  1                fft        152860    1.000       5760        0       2048
  4                fft        134877    0.882       5760        0       2048
  8                fft        135173    0.884       5760        0       2048
VC depth vs directory SRAM
  1 msg, no dirs   fft        196453    1.000          0        0       7808
  8 msgs, no dirs  fft        176233    0.897          0        0       7808
  1 msg + 1K dirs  fft        160882    0.819       5760        0       2048
`
	if got != want {
		t.Errorf("Figure 13 moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestFigE1Pinned pins extension E1 (switch directories plus 512-entry
// switch caches) at the reduced inputs, so a change to the switch
// caches that moves a result fails here.
func TestFigE1Pinned(t *testing.T) {
	got, err := FigE1(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	const want = `Extension E1: switch directory + switch cache (conclusion's proposal)
app       homeReads/b  homeReads/c  exec/base-d  exec/base-c  cacheServed
fft             0.262        0.262        0.764        0.764            0
tc              0.908        0.838        0.724        0.713          142
sor             0.465        0.462        0.880        0.888           32
fwa             0.902        0.727        0.949        0.927         2872
gauss           0.895        0.801        0.891        0.870          608
`
	if got != want {
		t.Errorf("extension E1 moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestSwitchCacheEvictionsPinned pins GAUSS at the reduced input on
// 1K-entry switch directories and 8-entry switch caches: two sets per
// top switch, so replacement decides most of what the caches serve.
// A set never holds two copies of one block
// (TestRepeatedReplyKeepsOneCopy in internal/swcache), so every
// eviction displaces a distinct block.
func TestSwitchCacheEvictionsPinned(t *testing.T) {
	m, s, err := runScientificW("gauss", ScaleSmall, core.DefaultConfig().WithSwitchDir(1024).WithSwitchCache(8))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.SCa.TotalStats(), (swcache.Stats{Inserts: 5233, Hits: 553, Invalidates: 1014, Evictions: 533}); got != want {
		t.Errorf("switch-cache stats %+v, want %+v", got, want)
	}
	type pin struct{ cycles, cleanSwitch, homeReads uint64 }
	if got, want := (pin{uint64(s.Cycles), s.ReadCleanSwitch, s.HomeReads}), (pin{341060, 553, 5233}); got != want {
		t.Errorf("cycles, switch-served clean reads, home reads = %+v, want %+v", got, want)
	}
}
