package tracesim

import (
	"fmt"
	"testing"

	"dresar/internal/trace"
)

// fig2Points are Figure 2's nine block-fraction points.
var fig2Points = []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.40, 0.60, 0.80, 1.00}

// profilePin is what a cell's block profile reports: its size, its
// totals and Figure 2's CDF at fig2Points.
type profilePin struct {
	blocks     int
	miss, ctoc uint64
	missCDF    [9]float64
	ctocCDF    [9]float64
}

// workloadPins are one workload's pinned cells: the Stats at each
// directory size, and the block profile, which is the same at every
// size (switch directories change where a dirty miss is served, never
// whether it misses).
type workloadPins struct {
	name    string
	mk      func(uint64) trace.SynthConfig
	stats   []Stats
	profile profilePin
}

// checkPins runs every workload's 200K-record trace on cacheBytes
// caches at each directory size (0 is the base system) and compares
// every Stats field and the block profile's size, totals and Figure 2
// CDF (exact float64 equality) with the pins.
func checkPins(t *testing.T, cacheBytes int, entries []int, pins []workloadPins) {
	t.Helper()
	for _, w := range pins {
		for i, n := range entries {
			cfg := DefaultConfig()
			cfg.CacheBytes = cacheBytes
			if n > 0 {
				cfg = cfg.WithSDir(n)
			}
			s := MustNew(cfg)
			cell := fmt.Sprintf("%s/%d", w.name, n)
			if st := s.Run(trace.NewSynth(w.mk(200_000))); st != w.stats[i] {
				t.Errorf("%s stats:\n got %+v\nwant %+v", cell, st, w.stats[i])
			}
			pp := profilePin{blocks: s.Profile.Len()}
			pp.miss, pp.ctoc = s.Profile.Totals()
			miss, ctoc := s.Profile.CDF(fig2Points)
			copy(pp.missCDF[:], miss)
			copy(pp.ctocCDF[:], ctoc)
			if pp != w.profile {
				t.Errorf("%s profile:\n got %+v\nwant %+v", cell, pp, w.profile)
			}
		}
	}
}

// TestTraceCorpusPinned pins the trace-driven simulator, cell by cell,
// to the values it produced when the pins were recorded: TPC-C and
// TPC-D at 200K records on Table 3's machine, on the base system and
// at six switch directory sizes. At 4 and 16 entries (one and four
// sets) switch-entry replacement decides which dirty misses a switch
// serves. Any change to the synthetic traces, the caches, the home
// directory, the switch directories or the block profile that moves a
// simulated result fails here.
func TestTraceCorpusPinned(t *testing.T) {
	checkPins(t, DefaultConfig().CacheBytes, []int{0, 4, 16, 256, 512, 1024, 2048}, []workloadPins{
		{
			name: "tpcc", mk: trace.TPCC,
			stats: []Stats{
				{Refs: 200000, Reads: 149866, ReadHits: 87312, ReadMisses: 62554, Clean: 58868, CtoCHome: 3686, CtoCSwitch: 0, StaleSDir: 0, Writes: 50134, ReadLatency: 16560076, CtoCLatency: 1155420, ReadStall: 15361148, ExecCycles: 1077180},
				{Refs: 200000, Reads: 149866, ReadHits: 87312, ReadMisses: 62554, Clean: 58868, CtoCHome: 3250, CtoCSwitch: 436, StaleSDir: 0, Writes: 50134, ReadLatency: 16510956, CtoCLatency: 1106300, ReadStall: 15312028, ExecCycles: 1074540},
				{Refs: 200000, Reads: 149866, ReadHits: 87312, ReadMisses: 62554, Clean: 58868, CtoCHome: 2713, CtoCSwitch: 973, StaleSDir: 0, Writes: 50134, ReadLatency: 16450016, CtoCLatency: 1045360, ReadStall: 15251088, ExecCycles: 1070820},
				{Refs: 200000, Reads: 149866, ReadHits: 87312, ReadMisses: 62554, Clean: 58868, CtoCHome: 1485, CtoCSwitch: 2201, StaleSDir: 0, Writes: 50134, ReadLatency: 16309856, CtoCLatency: 905200, ReadStall: 15110928, ExecCycles: 1062540},
				{Refs: 200000, Reads: 149866, ReadHits: 87312, ReadMisses: 62554, Clean: 58868, CtoCHome: 1120, CtoCSwitch: 2566, StaleSDir: 0, Writes: 50134, ReadLatency: 16269156, CtoCLatency: 864500, ReadStall: 15070228, ExecCycles: 1058540},
				{Refs: 200000, Reads: 149866, ReadHits: 87312, ReadMisses: 62554, Clean: 58868, CtoCHome: 764, CtoCSwitch: 2922, StaleSDir: 0, Writes: 50134, ReadLatency: 16227936, CtoCLatency: 823280, ReadStall: 15029008, ExecCycles: 1056100},
				{Refs: 200000, Reads: 149866, ReadHits: 87312, ReadMisses: 62554, Clean: 58868, CtoCHome: 424, CtoCSwitch: 3262, StaleSDir: 0, Writes: 50134, ReadLatency: 16189536, CtoCLatency: 784880, ReadStall: 14990608, ExecCycles: 1054400},
			},
			profile: profilePin{
				blocks: 51138, miss: 62554, ctoc: 3686,
				missCDF: [9]float64{0.13617034881862072, 0.16067717492086836, 0.20977075806503181, 0.26423570035489335, 0.3459890654474534, 0.5094957956325734, 0.6729865396297599, 0.8364932698148799, 1},
				ctocCDF: [9]float64{0.7365708084644601, 0.7655995659251221, 0.8331524688008681, 0.8499728703201302, 0.8499728703201302, 0.8499728703201302, 0.8499728703201302, 0.8499728703201302, 1},
			},
		},
		{
			name: "tpcd", mk: trace.TPCD,
			stats: []Stats{
				{Refs: 200000, Reads: 138700, ReadHits: 79903, ReadMisses: 58797, Clean: 55314, CtoCHome: 3483, CtoCSwitch: 0, StaleSDir: 0, Writes: 61300, ReadLatency: 15543984, CtoCLatency: 1094160, ReadStall: 14434384, ExecCycles: 1011476},
				{Refs: 200000, Reads: 138700, ReadHits: 79903, ReadMisses: 58797, Clean: 55314, CtoCHome: 3479, CtoCSwitch: 4, StaleSDir: 0, Writes: 61300, ReadLatency: 15543604, CtoCLatency: 1093780, ReadStall: 14434004, ExecCycles: 1011476},
				{Refs: 200000, Reads: 138700, ReadHits: 79903, ReadMisses: 58797, Clean: 55314, CtoCHome: 3470, CtoCSwitch: 13, StaleSDir: 0, Writes: 61300, ReadLatency: 15542524, CtoCLatency: 1092700, ReadStall: 14432924, ExecCycles: 1011356},
				{Refs: 200000, Reads: 138700, ReadHits: 79903, ReadMisses: 58797, Clean: 55314, CtoCHome: 3283, CtoCSwitch: 200, StaleSDir: 0, Writes: 61300, ReadLatency: 15521184, CtoCLatency: 1071360, ReadStall: 14411584, ExecCycles: 1010236},
				{Refs: 200000, Reads: 138700, ReadHits: 79903, ReadMisses: 58797, Clean: 55314, CtoCHome: 3081, CtoCSwitch: 402, StaleSDir: 0, Writes: 61300, ReadLatency: 15498544, CtoCLatency: 1048720, ReadStall: 14388944, ExecCycles: 1008656},
				{Refs: 200000, Reads: 138700, ReadHits: 79903, ReadMisses: 58797, Clean: 55314, CtoCHome: 2670, CtoCSwitch: 813, StaleSDir: 0, Writes: 61300, ReadLatency: 15451624, CtoCLatency: 1001800, ReadStall: 14342024, ExecCycles: 1004996},
				{Refs: 200000, Reads: 138700, ReadHits: 79903, ReadMisses: 58797, Clean: 55314, CtoCHome: 1986, CtoCSwitch: 1497, StaleSDir: 0, Writes: 61300, ReadLatency: 15373144, CtoCLatency: 923320, ReadStall: 14263544, ExecCycles: 1001136},
			},
			profile: profilePin{
				blocks: 51515, miss: 58797, ctoc: 3483,
				missCDF: [9]float64{0.03719577529465789, 0.06347262615439563, 0.12407095600115652, 0.21145636682143648, 0.2990798850281477, 0.47430991377111076, 0.6495399425140739, 0.8247699712570369, 1},
				ctocCDF: [9]float64{0.012058570198105082, 0.034453057708871665, 0.13149583692219352, 0.23973585989089866, 0.23973585989089866, 0.23973585989089866, 0.23973585989089866, 0.48636233132357165, 1},
			},
		},
	})
}

// TestTraceEvictionsPinned pins the same traces on 32 KB caches. Table
// 3's 2 MB caches never fill in 200K records; these evict all through
// the run, so dirty writebacks, and the switch-entry replacement that
// follows them, reach the pinned results.
func TestTraceEvictionsPinned(t *testing.T) {
	checkPins(t, 32<<10, []int{0, 256, 2048}, []workloadPins{
		{
			name: "tpcc", mk: trace.TPCC,
			stats: []Stats{
				{Refs: 200000, Reads: 149866, ReadHits: 61638, ReadMisses: 88228, Clean: 85434, CtoCHome: 2794, CtoCSwitch: 0, StaleSDir: 0, Writes: 50134, ReadLatency: 22708384, CtoCLatency: 875080, ReadStall: 21509456, ExecCycles: 1473740},
				{Refs: 200000, Reads: 149866, ReadHits: 61638, ReadMisses: 88228, Clean: 85434, CtoCHome: 692, CtoCSwitch: 2102, StaleSDir: 0, Writes: 50134, ReadLatency: 22469044, CtoCLatency: 635740, ReadStall: 21270116, ExecCycles: 1457780},
				{Refs: 200000, Reads: 149866, ReadHits: 61638, ReadMisses: 88228, Clean: 85434, CtoCHome: 15, CtoCSwitch: 2779, StaleSDir: 0, Writes: 50134, ReadLatency: 22393704, CtoCLatency: 560400, ReadStall: 21194776, ExecCycles: 1452940},
			},
			profile: profilePin{
				blocks: 55677, miss: 88228, ctoc: 2794,
				missCDF: [9]float64{0.10315319399737045, 0.12840594822505327, 0.1893729881670218, 0.2831300720859591, 0.40934850614317453, 0.6213560320986535, 0.7475744661558689, 0.8737815659427846, 1},
				ctocCDF: [9]float64{0.8869005010737294, 0.8869005010737294, 0.9030064423765212, 0.9230493915533285, 0.9230493915533285, 0.9599141016463851, 0.9599141016463851, 0.9599141016463851, 1},
			},
		},
		{
			name: "tpcd", mk: trace.TPCD,
			stats: []Stats{
				{Refs: 200000, Reads: 138700, ReadHits: 54699, ReadMisses: 84001, Clean: 83148, CtoCHome: 853, CtoCSwitch: 0, StaleSDir: 0, Writes: 61300, ReadLatency: 21452612, CtoCLatency: 268060, ReadStall: 20343012, ExecCycles: 1392384},
				{Refs: 200000, Reads: 138700, ReadHits: 54699, ReadMisses: 84001, Clean: 83148, CtoCHome: 673, CtoCSwitch: 180, StaleSDir: 0, Writes: 61300, ReadLatency: 21432112, CtoCLatency: 247560, ReadStall: 20322512, ExecCycles: 1390824},
				{Refs: 200000, Reads: 138700, ReadHits: 54699, ReadMisses: 84001, Clean: 83148, CtoCHome: 54, CtoCSwitch: 799, StaleSDir: 0, Writes: 61300, ReadLatency: 21361432, CtoCLatency: 176880, ReadStall: 20251832, ExecCycles: 1387424},
			},
			profile: profilePin{
				blocks: 55865, miss: 84001, ctoc: 853,
				missCDF: [9]float64{0.03270199164295663, 0.05932072237235271, 0.12701039273341985, 0.22675920524755658, 0.3674956250520827, 0.6009690360829038, 0.7339793573886025, 0.8669896786943012, 1},
				ctocCDF: [9]float64{0, 0, 0.009378663540445486, 0.053927315357561546, 0.053927315357561546, 0.3048065650644783, 0.3048065650644783, 0.47245017584994137, 1},
			},
		},
	})
}
