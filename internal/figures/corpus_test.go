package figures

import (
	"testing"

	"dresar/internal/core"
	"dresar/internal/sim"
	"dresar/internal/trace"
	"dresar/internal/workload"
)

// corpusPin is what TestCorpusPinned holds fixed for one run: the
// figure inputs (cycles, miss classes, read latency), the traffic, the
// switch-directory hits and Figure 2's profile totals.
type corpusPin struct {
	Cycles         sim.Cycle
	ReadMisses     uint64
	ReadCtoCHome   uint64
	ReadCtoCSwitch uint64
	WriteMisses    uint64
	ReadLatency    sim.Cycle
	NetSent        uint64
	NetFlitHops    uint64
	SDirHits       uint64
	ProfileMisses  uint64
	ProfileCtoCs   uint64
}

// TestCorpusPinned runs the corpus — the five scientific kernels at
// test scale and a synthetic TPC-C trace replayed through the execution
// driver (workload.FromTrace) — once each on the 16-node machine with
// the coherence checker on, and pins each run's statistics. FFT runs on
// the base system and with 1K-entry switch directories, the rest with
// directories only. No other test pins SOR or the trace replay end to
// end, so a change that moves any of these numbers changes simulated
// behaviour.
func TestCorpusPinned(t *testing.T) {
	tpcc := func() workload.Workload {
		w, err := workload.FromTrace("tpcc", 16, trace.NewSynth(trace.TPCC(20000)), 20000)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	for _, tc := range []struct {
		name string
		cfg  core.Config
		mk   func() workload.Workload
		want corpusPin
	}{
		{"base/fft", core.DefaultConfig(), func() workload.Workload { return workload.NewFFT(4096, 16) },
			corpusPin{Cycles: 176920, ReadMisses: 7808, ReadCtoCHome: 5760, ReadCtoCSwitch: 0, WriteMisses: 14475, ReadLatency: 2149067, NetSent: 50688, NetFlitHops: 290688, SDirHits: 0, ProfileMisses: 7808, ProfileCtoCs: 5760}},
		{"sdir/fft", core.DefaultConfig().WithSwitchDir(1024), func() workload.Workload { return workload.NewFFT(4096, 16) },
			corpusPin{Cycles: 135173, ReadMisses: 7808, ReadCtoCHome: 0, ReadCtoCSwitch: 5760, WriteMisses: 15410, ReadLatency: 1684737, NetSent: 44928, NetFlitHops: 282624, SDirHits: 5760, ProfileMisses: 7808, ProfileCtoCs: 5760}},
		{"sdir/tc", core.DefaultConfig().WithSwitchDir(1024), func() workload.Workload { return workload.NewTC(64, 16) },
			corpusPin{Cycles: 224540, ReadMisses: 2048, ReadCtoCHome: 0, ReadCtoCSwitch: 189, WriteMisses: 2016, ReadLatency: 1847808, NetSent: 9703, NetFlitHops: 38940, SDirHits: 189, ProfileMisses: 2048, ProfileCtoCs: 189}},
		{"sdir/sor", core.DefaultConfig().WithSwitchDir(1024), func() workload.Workload { return workload.NewSOR(128, 3, 16) },
			corpusPin{Cycles: 134178, ReadMisses: 9856, ReadCtoCHome: 5, ReadCtoCSwitch: 5275, WriteMisses: 16923, ReadLatency: 1409508, NetSent: 53221, NetFlitHops: 279183, SDirHits: 5275, ProfileMisses: 9856, ProfileCtoCs: 5280}},
		{"sdir/fwa", core.DefaultConfig().WithSwitchDir(1024), func() workload.Workload { return workload.NewFWA(64, 16) },
			corpusPin{Cycles: 1540203, ReadMisses: 16384, ReadCtoCHome: 0, ReadCtoCSwitch: 1598, WriteMisses: 4032, ReadLatency: 18385405, NetSent: 69716, NetFlitHops: 301562, SDirHits: 1598, ProfileMisses: 16384, ProfileCtoCs: 1598}},
		{"sdir/gauss", core.DefaultConfig().WithSwitchDir(1024), func() workload.Workload { return workload.NewGauss(64, 16) },
			corpusPin{Cycles: 347313, ReadMisses: 6464, ReadCtoCHome: 0, ReadCtoCSwitch: 678, WriteMisses: 4096, ReadLatency: 2852133, NetSent: 16202, NetFlitHops: 97616, SDirHits: 678, ProfileMisses: 6464, ProfileCtoCs: 678}},
		{"sdir/tpcc", core.DefaultConfig().WithSwitchDir(1024), tpcc,
			corpusPin{Cycles: 138917, ReadMisses: 10589, ReadCtoCHome: 103, ReadCtoCSwitch: 126, WriteMisses: 4238, ReadLatency: 2076308, NetSent: 31497, NetFlitHops: 185464, SDirHits: 126, ProfileMisses: 10589, ProfileCtoCs: 229}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.CheckCoherence = true
			m, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d, err := workload.NewDriver(m, tc.mk())
			if err != nil {
				t.Fatal(err)
			}
			s, err := d.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			got := corpusPin{
				Cycles: s.Cycles, ReadMisses: s.ReadMisses,
				ReadCtoCHome: s.ReadCtoCHome, ReadCtoCSwitch: s.ReadCtoCSwitch,
				WriteMisses: s.WriteMisses, ReadLatency: s.ReadLatency,
				NetSent: s.NetSent, NetFlitHops: s.NetFlitHops, SDirHits: s.SDirHits,
			}
			got.ProfileMisses, got.ProfileCtoCs = m.Profile.Totals()
			if got != tc.want {
				t.Errorf("statistics moved:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
