package core

import (
	"errors"
	"strings"
	"testing"

	"dresar/internal/fault"
	"dresar/internal/sim"
	"dresar/internal/topo"
	"dresar/internal/xbar"
)

// TestZeroFaultEquivalence pins the fault-tolerant fabric to the
// pre-fault-tolerance baseline: with an inactive NetPlan the corruption,
// retransmit, and route-around machinery must be cycle-for-cycle
// invisible. The literals below were captured from this tree with the
// fault machinery compiled in but no plan installed (re-baselined when
// the fabric moved to sender-side credits with latency-bearing credit
// returns); any drift means the zero-fault fast path leaked timing or
// traffic.
func TestZeroFaultEquivalence(t *testing.T) {
	type pin struct {
		name       string
		cfg        Config
		cycles     sim.Cycle
		netSent    uint64
		reads      uint64
		readMisses uint64
		writes     uint64
		sdirHits   uint64
		flitHops   uint64
		queueWait  uint64
	}
	pins := []pin{
		{
			name: "base", cfg: DefaultConfig(),
			cycles: 41747, netSent: 11234, reads: 2106, readMisses: 1602,
			writes: 1094, sdirHits: 0, flitHops: 53781, queueWait: 25955,
		},
		{
			name: "sdir", cfg: DefaultConfig().WithSwitchDir(1024),
			cycles: 42533, netSent: 11038, reads: 2106, readMisses: 1567,
			writes: 1094, sdirHits: 210, flitHops: 53795, queueWait: 28776,
		},
	}
	for _, p := range pins {
		p := p
		t.Run(p.name, func(t *testing.T) {
			cfg := p.cfg
			cfg.CheckCoherence = true
			m := MustNew(cfg)
			completed := randomMix(m, 16, 200, 42)
			if err := m.Run(0); err != nil {
				t.Fatalf("run: %v", err)
			}
			if *completed != 16*200 {
				t.Fatalf("lost operations: %d/%d", *completed, 16*200)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
			s := m.Collect()
			got := []struct {
				name string
				got  uint64
				want uint64
			}{
				{"Cycles", uint64(s.Cycles), uint64(p.cycles)},
				{"NetSent", s.NetSent, p.netSent},
				{"Reads", s.Reads, p.reads},
				{"ReadMisses", s.ReadMisses, p.readMisses},
				{"Writes", s.Writes, p.writes},
				{"SDirHits", s.SDirHits, p.sdirHits},
				{"FlitHops", s.NetFlitHops, p.flitHops},
				{"QueueWait", m.Net.TotalStats().QueueWait, p.queueWait},
			}
			for _, g := range got {
				if g.got != g.want {
					t.Errorf("%s = %d, pinned baseline %d (zero-fault behavior drifted)", g.name, g.got, g.want)
				}
			}
			if s.Recovered() {
				t.Errorf("recovery machinery fired without faults: %+v", s)
			}
		})
	}
}

// TestNetFaultSweep drives every net-fault class through the random
// mix workload: the machine must complete all operations with coherent
// memory and account for the recovery work it did.
func TestNetFaultSweep(t *testing.T) {
	cases := []struct {
		name string
		plan fault.NetPlan
		// which recovery counters must be nonzero
		wantRetx    bool
		wantReroute bool
	}{
		{
			name: "corrupt",
			plan: fault.NetPlan{Seed: 21, CorruptLinks: []topo.Link{{Sw: 0, Out: 4}, {Sw: 5, Out: 1}}},
			// Message-granularity corrupters force link-level replays.
			wantRetx: true,
		},
		{
			name:        "linkdown",
			plan:        fault.NetPlan{LinkDowns: []fault.LinkFault{{Link: topo.Link{Sw: 0, Out: 4}, At: 500}}},
			wantReroute: true,
		},
		{
			name:        "switchdown",
			plan:        fault.NetPlan{SwitchDowns: []fault.SwitchFault{{Sw: 5, At: 500}}},
			wantReroute: true,
		},
		{
			name: "combined",
			plan: fault.NetPlan{
				Seed:         22,
				CorruptLinks: []topo.Link{{Sw: 1, Out: 5}},
				LinkDowns:    []fault.LinkFault{{Link: topo.Link{Sw: 2, Out: 6}, At: 800}},
				SwitchDowns:  []fault.SwitchFault{{Sw: 7, At: 1500}},
			},
			wantRetx:    true,
			wantReroute: true,
		},
	}
	for _, sdirOn := range []bool{false, true} {
		for _, tc := range cases {
			tc := tc
			name := tc.name + "/base"
			if sdirOn {
				name = tc.name + "/sdir"
			}
			t.Run(name, func(t *testing.T) {
				cfg := DefaultConfig()
				if sdirOn {
					cfg = cfg.WithSwitchDir(1024)
				}
				cfg.CheckCoherence = true
				cfg.NetFaults = tc.plan
				cfg.Watchdog = 200000
				m := MustNew(cfg)
				completed := randomMix(m, 16, 200, 42)
				if err := m.Run(0); err != nil {
					t.Fatalf("run: %v", err)
				}
				if *completed != 16*200 {
					t.Fatalf("lost operations: %d/%d", *completed, 16*200)
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("invariants: %v", err)
				}
				s := m.Collect()
				if tc.wantRetx && s.LinkRetransmits == 0 {
					t.Errorf("corruption plan produced no link retransmits")
				}
				if tc.wantReroute && s.Reroutes == 0 {
					t.Errorf("topology fault produced no reroutes")
				}
				if s.Unroutable != 0 {
					t.Errorf("connected fabric dropped %d messages as unroutable", s.Unroutable)
				}
				if tc.plan.TopologyFaults() {
					if m.Cfg.Node.RequestTimeout == 0 {
						t.Errorf("topology-fault plan left the NI retransmission timeout unarmed")
					}
					if m.Net.DownReport() == "" {
						t.Errorf("downed elements missing from DownReport")
					}
					if !strings.Contains(m.StallReport(), "down") {
						t.Errorf("StallReport does not mention downed elements:\n%s", m.StallReport())
					}
				}
			})
		}
	}
}

// TestNetFaultValidation checks that out-of-range fault targets are
// rejected at machine construction, not discovered as a panic mid-run.
func TestNetFaultValidation(t *testing.T) {
	bad := []fault.NetPlan{
		{CorruptLinks: []topo.Link{{Sw: 99, Out: 0}}},
		{CorruptLinks: []topo.Link{{Sw: 0, Out: 64}}},
		{LinkDowns: []fault.LinkFault{{Link: topo.Link{Sw: -1, Out: 0}, At: 10}}},
		{SwitchDowns: []fault.SwitchFault{{Sw: 8, At: 10}}},
	}
	for i, plan := range bad {
		cfg := DefaultConfig()
		cfg.NetFaults = plan
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid plan %+v accepted", i, plan)
		}
	}
}

// TestPartitionReportsUnroutable severs every up-link out of leaf 0,
// partitioning its processors from the rest of the machine: the run
// must stop with a structured *xbar.UnroutableError, not hang.
func TestPartitionReportsUnroutable(t *testing.T) {
	cfg := DefaultConfig()
	tp := topo.MustNew(cfg.Nodes, cfg.Radix)
	var downs []fault.LinkFault
	for _, l := range tp.InterSwitchLinks() {
		if l.Sw == 0 { // all of leaf 0's up-links
			downs = append(downs, fault.LinkFault{Link: l, At: 300})
		}
	}
	if len(downs) != cfg.Radix {
		t.Fatalf("expected %d up-links on leaf 0, found %d", cfg.Radix, len(downs))
	}
	cfg.NetFaults = fault.NetPlan{LinkDowns: downs}
	cfg.Watchdog = 100000
	m := MustNew(cfg)
	randomMix(m, 16, 200, 42)
	err := m.Run(0)
	var unroutable *xbar.UnroutableError
	if !errors.As(err, &unroutable) {
		t.Fatalf("partitioned run returned %v, want *xbar.UnroutableError", err)
	}
	s := m.Collect()
	if s.Unroutable == 0 {
		t.Errorf("unroutable counter is zero despite partition error")
	}
}
