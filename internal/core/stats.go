package core

import (
	"fmt"
	"strings"

	"dresar/internal/sim"
)

// Stats is the machine-wide roll-up the figures are built from.
type Stats struct {
	Cycles sim.Cycle // execution time (engine clock at collection)

	Reads           uint64
	ReadMisses      uint64
	ReadClean       uint64 // misses served from home memory
	ReadCleanSwitch uint64 // clean misses served by the switch cache extension
	ReadCtoCHome    uint64 // dirty misses served through the home node
	ReadCtoCSwitch  uint64 // dirty misses intercepted by switch directories
	ReadLatency     sim.Cycle
	CtoCLatency     sim.Cycle // read latency attributable to dirty misses
	ReadStall       sim.Cycle

	Writes      uint64
	WriteMisses uint64
	WriteStall  sim.Cycle
	Retries     uint64

	// Retransmits counts NI timeout-recovery re-sends (nonzero only
	// under fault injection); DupRequests counts duplicate completed
	// transactions the homes filtered.
	Retransmits uint64
	DupRequests uint64

	HomeCtoCForwards uint64 // Figure 8 numerator
	HomeReads        uint64
	HomeOccupancy    uint64

	SDirHits      uint64
	SDirInserts   uint64
	SDirRetries   uint64
	SDirEvictions uint64

	SCacheHits    uint64
	SCacheInserts uint64

	NetSent     uint64
	NetFlitHops uint64
	NetSunk     uint64

	// Network fault-recovery counters, nonzero only under net-fault
	// injection. LinkRetransmits counts checksum-detected link-level
	// replays in the fabric (distinct from NI-level Retransmits);
	// Reroutes counts messages steered around downed links/switches;
	// Unroutable counts messages dropped with no surviving path;
	// DegradedHops counts traversals of failed (dumb-forwarding)
	// switches.
	LinkRetransmits uint64
	Reroutes        uint64
	Unroutable      uint64
	DegradedHops    uint64
	// Switch-directory loss accounting (switch death).
	SDirEntriesLost   uint64
	SDirPendingLost   uint64
	SDirHomeFallbacks uint64
	// NodeFallbacks counts requests completed only after NI timeout
	// recovery; HomeRedrives counts home-directory transaction
	// re-executions on duplicate-filtered retries.
	NodeFallbacks uint64
	HomeRedrives  uint64
}

// CtoC returns all dirty-miss services (home + switch).
func (s Stats) CtoC() uint64 { return s.ReadCtoCHome + s.ReadCtoCSwitch }

// CtoCFraction is Figure 1's dirty share of read misses.
func (s Stats) CtoCFraction() float64 {
	if s.ReadMisses == 0 {
		return 0
	}
	return float64(s.CtoC()) / float64(s.ReadMisses)
}

// AvgReadLatency is Figure 9's metric, over all reads (hits included).
func (s Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ReadLatency) / float64(s.Reads)
}

// CtoCLatencyShare is the fraction of total read latency spent on
// dirty misses — the paper's Section 2 observation that FFT's 65%
// CtoC miss count becomes a 74% latency component, because dirty
// misses are 1.5–2x costlier than clean ones.
func (s Stats) CtoCLatencyShare() float64 {
	if s.ReadLatency == 0 {
		return 0
	}
	return float64(s.CtoCLatency) / float64(s.ReadLatency)
}

// Collect gathers the roll-up from every component.
func (m *Machine) Collect() Stats {
	var s Stats
	s.Cycles = m.Now()
	for _, n := range m.Nodes {
		s.Reads += n.Stats.Reads
		s.ReadMisses += n.Stats.ReadMisses
		s.ReadClean += n.Stats.ReadClean
		s.ReadCleanSwitch += n.Stats.ReadCleanSwitch
		s.ReadCtoCHome += n.Stats.ReadCtoCHome
		s.ReadCtoCSwitch += n.Stats.ReadCtoCSwitch
		s.ReadLatency += n.Stats.ReadLatency
		s.CtoCLatency += n.Stats.CtoCLatency
		s.ReadStall += n.Stats.ReadStall
		s.Writes += n.Stats.Writes
		s.WriteMisses += n.Stats.WriteMisses
		s.WriteStall += n.Stats.WriteStall
		s.Retries += n.Stats.Retries
		s.Retransmits += n.Stats.Retransmits
		s.NodeFallbacks += n.Stats.Fallbacks
	}
	for _, h := range m.Homes {
		s.DupRequests += h.Stats.DupRequests
		s.HomeRedrives += h.Stats.Redrives
		s.HomeCtoCForwards += h.Stats.HomeCtoCForwards
		s.HomeReads += h.Stats.Reads
		s.HomeOccupancy += h.Stats.BusyCycles
	}
	if m.SDir != nil {
		sd := m.SDir.TotalStats()
		s.SDirHits = sd.Hits
		s.SDirInserts = sd.Inserts
		s.SDirRetries = sd.RetriesSent
		s.SDirEvictions = sd.Evictions
		s.SDirEntriesLost = sd.EntriesLost
		s.SDirPendingLost = sd.PendingLost
		s.SDirHomeFallbacks = sd.HomeFallbacks
	}
	if m.SCa != nil {
		sc := m.SCa.TotalStats()
		s.SCacheHits = sc.Hits
		s.SCacheInserts = sc.Inserts
	}
	net := m.Net.TotalStats()
	s.NetSent = net.Sent
	s.NetFlitHops = net.FlitHops
	s.NetSunk = net.Sunk
	s.LinkRetransmits = net.Retransmits
	s.Reroutes = net.Reroutes
	s.Unroutable = net.Unroutable
	s.DegradedHops = net.DegradedHops
	return s
}

// Recovered reports whether any fault-recovery machinery fired during
// the run (link retransmits, reroutes, degraded traversals, directory
// loss handling, or NI timeout fallbacks). HomeRedrives is excluded:
// the home re-executes duplicate-filtered transactions in healthy
// retry-policy runs too.
func (s Stats) Recovered() bool {
	return s.LinkRetransmits > 0 || s.Reroutes > 0 || s.Unroutable > 0 ||
		s.DegradedHops > 0 || s.SDirEntriesLost > 0 || s.NodeFallbacks > 0
}

// String renders a compact human-readable summary.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d reads=%d misses=%d (clean=%d ctocHome=%d ctocSwitch=%d)\n",
		s.Cycles, s.Reads, s.ReadMisses, s.ReadClean, s.ReadCtoCHome, s.ReadCtoCSwitch)
	fmt.Fprintf(&b, "avgReadLat=%.1f readStall=%d writes=%d writeMisses=%d writeStall=%d retries=%d\n",
		s.AvgReadLatency(), s.ReadStall, s.Writes, s.WriteMisses, s.WriteStall, s.Retries)
	fmt.Fprintf(&b, "homeCtoC=%d sdirHits=%d sdirInserts=%d net={sent=%d sunk=%d}",
		s.HomeCtoCForwards, s.SDirHits, s.SDirInserts, s.NetSent, s.NetSunk)
	if s.Recovered() {
		fmt.Fprintf(&b, "\nrecovery: linkRetx=%d reroutes=%d unroutable=%d degradedHops=%d sdirLost={entries=%d pending=%d homeFallbacks=%d} niFallbacks=%d homeRedrives=%d",
			s.LinkRetransmits, s.Reroutes, s.Unroutable, s.DegradedHops,
			s.SDirEntriesLost, s.SDirPendingLost, s.SDirHomeFallbacks,
			s.NodeFallbacks, s.HomeRedrives)
	}
	return b.String()
}
