// Command dresar-sim runs one scientific workload on the
// execution-driven CC-NUMA machine and prints the statistics roll-up.
//
// Usage:
//
//	dresar-sim -app fft [-entries 1024] [-size 16384] [-nodes 16]
//	           [-policy retry|bitvector] [-pending 0] [-check]
//	           [-faults drop=20,dup=10,seed=7]
//	           [-net-faults linkdown=0:4@5000,switchdown=6@8000]
//	           [-watchdog 1000000]
//	           [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// The paper's figure sweep (every app × directory size) is cmd/figures.
//
// -cpuprofile/-memprofile write pprof profiles (the heap profile is
// taken when the run ends, with the machine still live, so
// `go tool pprof -sample_index=inuse_space` shows what it retains).
//
// -entries 0 runs the base system with no switch directories. -size is
// the kernel's input parameter (points for FFT, a power of four; keys
// for radix, a power of two; matrix/grid dimension for the others, a
// multiple of 16 for lu; 0 uses the paper's Table 2 input). -iters sets
// SOR's iteration count at any -size; it exits 2 for any other kernel.
// A negative count, an input the kernel cannot take exactly, an unknown
// -policy or a -faults or -net-faults plan that does not parse exits 2.
//
// -faults takes a fault-injection plan (see fault.ParsePlan):
// drop/dup/delay permille rates for home-bound requests, periodic
// switch-directory corrupt/evict events, and disableall/disableone
// cycles. -net-faults takes a network fault plan (see
// fault.ParseNetPlan): transient link corruption and scheduled
// link/switch failures; runs print the recovery counters and exit
// non-zero with a structured partition error if a message has no
// surviving path. -watchdog bounds cycles-without-progress; a stall
// exits non-zero with a structured diagnostic on stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"runtime/pprof"

	"dresar/internal/core"
	"dresar/internal/fault"
	"dresar/internal/sdir"
	"dresar/internal/sim"
	"dresar/internal/workload"
	"dresar/internal/xbar"
)

func main() {
	app := flag.String("app", "fft", "kernel: fft, tc, sor, fwa, gauss (or ge), lu, radix")
	entries := flag.Int("entries", 1024, "switch-directory entries per switch (0 = base system)")
	size := flag.Int("size", 0, "input size (0 = paper default)")
	iters := flag.Int("iters", 4, "iterations (SOR only)")
	nodes := flag.Int("nodes", 16, "node count")
	radix := flag.Int("radix", 4, "switch ports per side")
	policy := flag.String("policy", "retry", "read-in-TRANSIENT policy: retry or bitvector")
	pending := flag.Int("pending", 0, "pending-buffer entries (0 = main array only)")
	swc := flag.Int("swcache", 0, "switch-cache entries per top switch (0 = off; the conclusion's extension)")
	check := flag.Bool("check", false, "enable the coherence checker (slower)")
	faults := flag.String("faults", "", "fault-injection plan, e.g. drop=20,dup=10,seed=7 (empty = none)")
	netFaults := flag.String("net-faults", "", "network fault plan, e.g. corruptlink=0:4,linkdown=1:5@5000,switchdown=6@8000 (empty = none)")
	watchdog := flag.Uint64("watchdog", 0, "liveness watchdog: max cycles without progress (0 = off)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at the end of the run: the in-use heap while the machine is still live, and all allocations")
	flag.Parse()
	itersSet := false
	flag.Visit(func(f *flag.Flag) { itersSet = itersSet || f.Name == "iters" })
	pol, plan, netPlan, err := checkFlags(*app, *size, *iters, itersSet, *entries, *pending, *swc, *policy, *faults, *netFaults)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dresar-sim: %v\n", err)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		fail(err)
		fail(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}

	cfg := core.DefaultConfig()
	cfg.Nodes, cfg.Radix = *nodes, *radix
	cfg.CheckCoherence = *check
	cfg.Faults = plan
	cfg.NetFaults = netPlan
	cfg.Watchdog = sim.Cycle(*watchdog)
	if plan.Active() || netPlan.Active() || cfg.Watchdog > 0 {
		// Fault runs want the message-level monitor: its obligations
		// make the stall diagnostic actionable.
		cfg.CheckProtocol = true
	}
	if *entries > 0 {
		cfg = cfg.WithSwitchDir(*entries)
		cfg.SwitchDir.Policy = pol
		cfg.SwitchDir.PendingEntries = *pending
	}
	if *swc > 0 {
		cfg = cfg.WithSwitchCache(*swc)
	}

	w, err := newWorkload(*app, *size, *iters, *nodes)
	fail(err)

	m, err := core.New(cfg)
	fail(err)
	d, err := workload.NewDriver(m, w)
	fail(err)
	s, err := d.Run()
	if *memprofile != "" {
		writeHeapProfile(*memprofile, m)
	}
	var unroutable *xbar.UnroutableError
	if errors.As(err, &unroutable) {
		// The surviving fabric cannot reach some endpoint: report the
		// partition structurally and exit non-zero — never hang.
		fmt.Fprintf(os.Stderr, "dresar-sim: network partitioned: %v\n", unroutable)
		if r := m.Net.DownReport(); r != "" {
			fmt.Fprint(os.Stderr, r)
		}
		os.Exit(1)
	}
	var stall *core.StallError
	if errors.As(err, &stall) {
		// The watchdog tripped: print the structured stall report and
		// exit non-zero — never hang, never dump a raw panic.
		fmt.Fprintf(os.Stderr, "dresar-sim: liveness watchdog tripped at cycle %d (no progress for %d cycles)\n",
			stall.Now, stall.SinceProgress)
		fmt.Fprint(os.Stderr, stall.Report)
		os.Exit(1)
	}
	fail(err)
	if *check {
		fail(m.CheckInvariants())
	}
	if m.Monitor != nil && m.Quiesced() {
		fail(m.Monitor.AtQuiesce())
	}

	fmt.Printf("app=%s entries=%d nodes=%d policy=%s\n", *app, *entries, *nodes, *policy)
	fmt.Println(s)
	if m.Injector != nil {
		fmt.Println(m.Injector.Stats.String())
		if s.Retransmits > 0 || s.DupRequests > 0 {
			fmt.Printf("recovery: retransmits=%d dupRequestsFiltered=%d\n", s.Retransmits, s.DupRequests)
		}
		if s.Recovered() {
			fmt.Printf("net-recovery: linkRetx=%d reroutes=%d degradedHops=%d sdirEntriesLost=%d homeFallbacks=%d niFallbacks=%d homeRedrives=%d\n",
				s.LinkRetransmits, s.Reroutes, s.DegradedHops,
				s.SDirEntriesLost, s.SDirHomeFallbacks, s.NodeFallbacks, s.HomeRedrives)
		}
	}
	if s.ReadMisses > 0 {
		fmt.Printf("ctocFraction=%.3f switchServedShare=%.3f\n",
			s.CtoCFraction(), float64(s.ReadCtoCSwitch)/float64(maxu(s.CtoC(), 1)))
	}
	fmt.Printf("readLatency: p50<=%d p90<=%d p99<=%d max=%d\n",
		m.ReadLatHist.Percentile(50), m.ReadLatHist.Percentile(90),
		m.ReadLatHist.Percentile(99), m.ReadLatHist.Max())
}

// luBlock is the LU kernel's block width; its -size must be a multiple.
const luBlock = 16

// newWorkload builds the kernel the flags name. Size 0 takes the
// paper's Table 2 input (workload.ByName), except that SOR runs its
// 512×512 grid for iters iterations, and LU and radix, which have no
// Table 2 input, take 128×128 and 64K keys.
func newWorkload(app string, size, iters, nodes int) (workload.Workload, error) {
	switch app {
	case "sor":
		if size == 0 {
			size = 512
		}
		return workload.NewSOR(size, iters, nodes), nil
	case "lu":
		if size == 0 {
			size = 128
		}
		return workload.NewLU(size, luBlock, nodes), nil
	case "radix":
		if size == 0 {
			size = 1 << 16
		}
		return workload.NewRadix(size, 4, nodes), nil
	}
	if size == 0 {
		return workload.ByName(app, nodes)
	}
	switch app {
	case "fft":
		return workload.NewFFT(size, nodes), nil
	case "tc":
		return workload.NewTC(size, nodes), nil
	case "fwa":
		return workload.NewFWA(size, nodes), nil
	case "gauss", "ge":
		return workload.NewGauss(size, nodes), nil
	}
	return nil, fmt.Errorf("unknown kernel %q", app)
}

// checkFlags rejects the flag values that main would quietly turn into
// a different run or fail on: a negative count (read as the base
// system, a feature switched off, or an empty or 1-point kernel), an
// -entries or -swcache the switch directories or switch caches cannot
// be built with (their own geometry checks), no SOR iterations, an
// explicit -iters (itersSet) for a kernel other than SOR, which has no
// iteration count, an FFT size that NewFFT would round up to a power
// of four, an LU size that is not whole blocks, a radix key count that
// is not a power of two, an unknown kernel, an unknown policy (with
// or without switch directories) and a fault or network fault plan
// that does not parse. It returns the policy and the two plans.
func checkFlags(app string, size, iters int, itersSet bool, entries, pending, swc int, policy, faults, netFaults string) (pol sdir.Policy, plan fault.Plan, netPlan fault.NetPlan, err error) {
	switch policy {
	case "retry":
		pol = sdir.PolicyRetry
	case "bitvector":
		pol = sdir.PolicyBitVector
	default:
		return pol, plan, netPlan, fmt.Errorf("-policy %q: want retry or bitvector", policy)
	}
	if plan, err = fault.ParsePlan(faults); err != nil {
		return pol, plan, netPlan, fmt.Errorf("-faults: %v", err)
	}
	if netPlan, err = fault.ParseNetPlan(netFaults); err != nil {
		return pol, plan, netPlan, fmt.Errorf("-net-faults: %v", err)
	}
	return pol, plan, netPlan, checkCounts(app, size, iters, itersSet, entries, pending, swc)
}

// checkCounts is checkFlags' check of the counts and the kernel.
func checkCounts(app string, size, iters int, itersSet bool, entries, pending, swc int) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"entries", entries}, {"pending", pending}, {"swcache", swc}, {"size", size}} {
		if f.v < 0 {
			return fmt.Errorf("-%s %d: want a count >= 0", f.name, f.v)
		}
	}
	if entries > 0 {
		if err := core.DefaultConfig().WithSwitchDir(entries).SwitchDir.Validate(); err != nil {
			return fmt.Errorf("-entries %d: %v", entries, err)
		}
	}
	if swc > 0 {
		if err := core.DefaultConfig().WithSwitchCache(swc).SwitchCache.Validate(); err != nil {
			return fmt.Errorf("-swcache %d: %v", swc, err)
		}
	}
	if iters < 1 {
		return fmt.Errorf("-iters %d: want at least one iteration", iters)
	}
	if itersSet && app != "sor" {
		return fmt.Errorf("-iters applies to sor only, not %s", app)
	}
	switch app {
	case "fft":
		if size != 0 && (size&(size-1) != 0 || bits.TrailingZeros(uint(size))%2 != 0) {
			return fmt.Errorf("-size %d: FFT points must be a power of four (a square matrix with a power-of-two side)", size)
		}
	case "lu":
		if size%luBlock != 0 {
			return fmt.Errorf("-size %d: LU takes a multiple of its %d-wide blocks", size, luBlock)
		}
	case "radix":
		if size&(size-1) != 0 {
			return fmt.Errorf("-size %d: radix takes a power-of-two key count", size)
		}
	case "tc", "sor", "fwa", "gauss", "ge":
	default:
		return fmt.Errorf("unknown kernel %q (want fft, tc, sor, fwa, gauss, ge, lu or radix)", app)
	}
	return nil
}

// writeHeapProfile writes a heap profile to path after a forced GC,
// while live is still reachable, so the profile's inuse_space shows
// what the run retains (the machine) beside its allocations.
func writeHeapProfile(path string, live any) {
	f, err := os.Create(path)
	fail(err)
	runtime.GC()
	fail(pprof.WriteHeapProfile(f))
	runtime.KeepAlive(live)
	fail(f.Close())
}

func maxu(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "dresar-sim: %v\n", err)
		os.Exit(1)
	}
}
