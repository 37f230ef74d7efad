package workload

import (
	"fmt"
	"testing"

	"dresar/internal/core"
	"dresar/internal/fault"
	"dresar/internal/topo"
)

// TestFFTZeroNetFaultPins pins the FFT kernel's end-to-end numbers for
// both machine configurations. The fault-tolerance machinery
// (link-corruption oracles, retransmit timing, alternate routes) must
// be perfectly invisible while no fault is active: any drift in these
// values means the error model leaked into the healthy fast path.
func TestFFTZeroNetFaultPins(t *testing.T) {
	cases := []struct {
		name     string
		cfg      core.Config
		cycles   uint64
		netSent  uint64
		sdirHits uint64
		flitHops uint64
	}{
		{"base", core.DefaultConfig(), 100329, 12672, 0, 72672},
		{"sdir", core.DefaultConfig().WithSwitchDir(1024), 54112, 11232, 1440, 70656},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := runSmall(t, NewFFT(1024, 16), tc.cfg)
			got := []struct {
				name string
				got  uint64
				want uint64
			}{
				{"Cycles", uint64(s.Cycles), tc.cycles},
				{"NetSent", s.NetSent, tc.netSent},
				{"SDirHits", s.SDirHits, tc.sdirHits},
				{"FlitHops", s.NetFlitHops, tc.flitHops},
			}
			for _, g := range got {
				if g.got != g.want {
					t.Errorf("%s = %d, want pinned %d", g.name, g.got, g.want)
				}
			}
			if s.Recovered() {
				t.Errorf("healthy run reports recovery activity: %+v", s)
			}
		})
	}
}

// TestFFTSurvivesEveryFaultSite is the survival table: FFT on the
// paper's 4×4 switch-directory machine, killing each inter-switch link
// and each switch of the fabric in turn mid-run. Every case must
// complete with coherent memory and show the recovery machinery firing
// — no fault site may hang the workload or corrupt its data.
func TestFFTSurvivesEveryFaultSite(t *testing.T) {
	if testing.Short() {
		t.Skip("survival table is long")
	}
	tp := topo.MustNew(16, 4)
	type site struct {
		name string
		plan fault.NetPlan
	}
	var sites []site
	for _, l := range tp.InterSwitchLinks() {
		sites = append(sites, site{
			name: fmt.Sprintf("link-%d:%d", l.Sw, l.Out),
			plan: fault.NetPlan{LinkDowns: []fault.LinkFault{{Link: l, At: 2000}}},
		})
	}
	for sw := 0; sw < tp.NumSwitches(); sw++ {
		sites = append(sites, site{
			name: fmt.Sprintf("switch-%d", sw),
			plan: fault.NetPlan{SwitchDowns: []fault.SwitchFault{{Sw: sw, At: 2000}}},
		})
	}
	for _, st := range sites {
		st := st
		t.Run(st.name, func(t *testing.T) {
			cfg := core.DefaultConfig().WithSwitchDir(1024)
			cfg.NetFaults = st.plan
			s := runSmall(t, NewFFT(1024, 16), cfg)
			if !s.Recovered() {
				t.Errorf("fault left no recovery trace: %+v", s)
			}
			if s.Unroutable != 0 {
				t.Errorf("single inter-switch fault partitioned the fabric: %d unroutable", s.Unroutable)
			}
		})
	}
}

// TestFFTSurvivesCombinedFaults layers every fault class at once on
// the switch-directory machine: a noisy link, a link death, and a
// switch death (taking its directory entries with it).
func TestFFTSurvivesCombinedFaults(t *testing.T) {
	plan, err := fault.ParseNetPlan("seed=11, corruptlink=0:4, corruptrate=300, linkdown=1:5@1500, switchdown=5@3000")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig().WithSwitchDir(1024)
	cfg.NetFaults = plan
	s := runSmall(t, NewFFT(1024, 16), cfg)
	if s.LinkRetransmits == 0 || s.Reroutes == 0 {
		t.Errorf("combined plan missing recovery activity: %+v", s)
	}
	if s.Unroutable != 0 {
		t.Errorf("combined plan partitioned the fabric: %d unroutable", s.Unroutable)
	}
}
