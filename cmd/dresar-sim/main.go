// Command dresar-sim runs one scientific workload on the
// execution-driven CC-NUMA machine and prints the statistics roll-up.
//
// Usage:
//
//	dresar-sim -app fft [-entries 1024] [-size 16384] [-nodes 16]
//	           [-policy retry|bitvector] [-pending 0] [-check]
//	           [-shard-workers N]
//	           [-faults drop=20,dup=10,seed=7]
//	           [-net-faults linkdown=0:4@5000,switchdown=6@8000]
//	           [-watchdog 1000000]
//	           [-cpuprofile cpu.prof] [-memprofile mem.prof] [-exectrace run.trace]
//	dresar-sim -sweep [-scale small|paper] [-workers N]
//
// -sweep regenerates the paper's figure sweep (every app × directory
// size) on a bounded worker pool — each cell is its own isolated
// single-threaded simulation, so the tables do not depend on -workers —
// and prints Figures 8–11.
//
// -shard-workers > 1 executes the single-run machine on the sharded
// parallel engine (cycle-identical statistics at any worker count;
// see DESIGN.md "Parallel execution model"); 0 or 1 runs it serially.
// Incompatible with -faults/-net-faults/-watchdog (serial-only
// features). -cpuprofile/-memprofile write pprof profiles (the heap
// profile is taken when the run ends, with the machine still live, so
// `go tool pprof -sample_index=inuse_space` shows what it retains), and
// -exectrace writes a runtime/trace execution trace — `go tool trace`
// on it shows per-shard goroutine timelines, barrier stalls, and shard
// imbalance directly (see EXPERIMENTS.md).
//
// -entries 0 runs the base system with no switch directories. -size is
// the kernel's input parameter (points for FFT, matrix/grid dimension
// for the others; 0 uses the paper's Table 2 input).
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
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"

	"dresar/internal/core"
	"dresar/internal/fault"
	"dresar/internal/figures"
	"dresar/internal/sdir"
	"dresar/internal/sim"
	"dresar/internal/workload"
	"dresar/internal/xbar"
)

func main() {
	app := flag.String("app", "fft", "kernel: fft, tc, sor, fwa, gauss")
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
	sweep := flag.Bool("sweep", false, "run the full figure sweep (every app × directory size) instead of one kernel")
	scale := flag.String("scale", "small", "sweep input scale: small or paper")
	workers := flag.Int("workers", 0, "sweep worker-pool width (0 = GOMAXPROCS, 1 = serial)")
	shardWorkers := flag.Int("shard-workers", 0, "intra-run shard count (0 or 1 = serial, >1 = parallel engine)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at the end of the run: the in-use heap while the machine is still live, and all allocations")
	exectrace := flag.String("exectrace", "", "write a runtime/trace execution trace to this file (inspect with `go tool trace`)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		fail(err)
		fail(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}
	if *exectrace != "" {
		f, err := os.Create(*exectrace)
		fail(err)
		fail(trace.Start(f))
		defer func() {
			trace.Stop()
			f.Close()
		}()
	}
	if *sweep {
		runSweep(*scale, *workers)
		if *memprofile != "" {
			writeHeapProfile(*memprofile, nil)
		}
		return
	}

	plan, err := fault.ParsePlan(*faults)
	fail(err)
	netPlan, err := fault.ParseNetPlan(*netFaults)
	fail(err)

	cfg := core.DefaultConfig()
	cfg.Nodes, cfg.Radix = *nodes, *radix
	cfg.CheckCoherence = *check
	cfg.ShardWorkers = *shardWorkers
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
		switch *policy {
		case "retry":
			cfg.SwitchDir.Policy = sdir.PolicyRetry
		case "bitvector":
			cfg.SwitchDir.Policy = sdir.PolicyBitVector
		default:
			fail(fmt.Errorf("unknown policy %q", *policy))
		}
		cfg.SwitchDir.PendingEntries = *pending
	}
	if *swc > 0 {
		cfg = cfg.WithSwitchCache(*swc)
	}

	var w workload.Workload
	if *size == 0 && *app != "lu" && *app != "radix" {
		w, err = workload.ByName(*app, *nodes)
	} else {
		n := *size
		switch *app {
		case "fft":
			w = workload.NewFFT(n, *nodes)
		case "tc":
			w = workload.NewTC(n, *nodes)
		case "sor":
			w = workload.NewSOR(n, *iters, *nodes)
		case "fwa":
			w = workload.NewFWA(n, *nodes)
		case "gauss", "ge":
			w = workload.NewGauss(n, *nodes)
		case "lu":
			if n == 0 {
				n = 128
			}
			w = workload.NewLU(n, 16, *nodes)
		case "radix":
			if n == 0 {
				n = 1 << 16
			}
			w = workload.NewRadix(n, 4, *nodes)
		default:
			err = fmt.Errorf("unknown kernel %q", *app)
		}
	}
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

// runSweep regenerates the paper's figure sweep (every app × switch
// directory size) on a bounded worker pool and prints Figures 8–11.
// Each cell is an isolated single-threaded simulation, so the tables
// are identical whatever the pool width.
func runSweep(scale string, workers int) {
	sc := figures.ScaleSmall
	switch scale {
	case "small":
	case "paper":
		sc = figures.ScalePaper
	default:
		fail(fmt.Errorf("unknown scale %q (want small or paper)", scale))
	}
	sweep, err := figures.SweepN(sc, figures.Apps, figures.DirSizes, workers)
	fail(err)
	fmt.Print(figures.Fig8(sweep))
	fmt.Println()
	fmt.Print(figures.Fig9(sweep))
	fmt.Println()
	fmt.Print(figures.Fig10(sweep))
	fmt.Println()
	fmt.Print(figures.Fig11(sweep))
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
