// Package figures regenerates every result figure of the paper's
// evaluation (Figures 1, 2, 8, 9, 10, 11): the workload construction,
// the parameter sweeps over switch-directory sizes, the base-system
// comparisons, and the table formatting. Both cmd/figures and the
// repository's benchmark harness (bench_test.go) drive this package.
//
// Two scales are supported: ScalePaper uses the paper's inputs (Table
// 2: FFT 16K points, TC/FWA/GAUSS 128×128, SOR 512×512; 16M-reference
// commercial traces) and ScaleSmall uses reduced inputs for quick runs
// and CI.
package figures

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"dresar/internal/core"
	"dresar/internal/sim"
	"dresar/internal/trace"
	"dresar/internal/tracesim"
	"dresar/internal/workload"
)

// Scale selects input sizes.
type Scale int

const (
	// ScaleSmall is a reduced configuration for fast runs.
	ScaleSmall Scale = iota
	// ScalePaper is the paper's evaluation configuration (Table 2/3).
	ScalePaper
)

func (s Scale) String() string {
	if s == ScalePaper {
		return "paper"
	}
	return "small"
}

// DirSizes is the paper's switch-directory size sweep (entries); 0 is
// the base system with no switch directories.
var DirSizes = []int{0, 256, 512, 1024, 2048}

// Apps lists every workload in the paper's figure order.
var Apps = []string{"fft", "tc", "sor", "fwa", "gauss", "tpcc", "tpcd"}

// Commercial reports whether app runs on the trace-driven simulator.
func Commercial(app string) bool { return app == "tpcc" || app == "tpcd" }

// ScientificWorkload builds the named kernel at the given scale for 16
// processors.
func ScientificWorkload(name string, scale Scale) (workload.Workload, error) {
	if scale == ScalePaper {
		return workload.ByName(name, 16)
	}
	switch name {
	case "fft":
		return workload.NewFFT(4096, 16), nil
	case "tc":
		return workload.NewTC(64, 16), nil
	case "sor":
		return workload.NewSOR(128, 3, 16), nil
	case "fwa":
		return workload.NewFWA(64, 16), nil
	case "gauss", "ge":
		return workload.NewGauss(64, 16), nil
	}
	return nil, fmt.Errorf("figures: unknown kernel %q", name)
}

// traceRefs returns the commercial trace length for a scale.
func traceRefs(scale Scale) uint64 {
	if scale == ScalePaper {
		return 16_000_000
	}
	return 2_000_000
}

// Result is one (app, directory-size) measurement, with unified fields
// across the execution-driven and trace-driven simulators.
type Result struct {
	App        string
	Entries    int // 0 = base system
	Reads      uint64
	ReadMisses uint64
	Clean      uint64
	CtoCHome   uint64
	CtoCSwitch uint64
	AvgReadLat float64
	// CtoCLatShare is the dirty-miss fraction of total read latency
	// (Section 2: count share understates the latency component).
	CtoCLatShare float64
	ReadStall    uint64
	ExecCycles   uint64
}

// CtoC is the total dirty-miss count.
func (r Result) CtoC() uint64 { return r.CtoCHome + r.CtoCSwitch }

// RunOne executes one (app, entries) cell.
func RunOne(app string, scale Scale, entries int) (Result, error) {
	return RunOneCtx(context.Background(), app, scale, entries)
}

// RunOneCtx executes one (app, entries) cell under a cancellation
// context: the simulation polls ctx cooperatively (serial engine:
// every few events; sharded: once per lookahead quantum; trace-driven:
// every few thousand records) and a cancelled or deadline-exceeded
// context aborts the run with a *core.AbortError, wrapped so
// errors.As finds it, alongside the partial Result measured so far.
func RunOneCtx(ctx context.Context, app string, scale Scale, entries int) (Result, error) {
	if Commercial(app) {
		return runCommercial(ctx, app, scale, entries)
	}
	return runScientific(ctx, app, scale, entries)
}

// stopProbe converts ctx into an engine stop check, or nil for
// contexts that can never be cancelled (no polling overhead then).
func stopProbe(ctx context.Context) func() bool {
	if ctx.Done() == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}

// ShardWorkers selects the intra-run execution engine for every
// execution-driven machine the figure helpers build: 0 or 1 runs each
// cell on the serial engine, >1 on the sharded parallel engine with
// that many workers. Figure values are cycle-identical at any setting
// (enforced by the serial-vs-sharded differential tests), so this is
// purely a wall-clock knob — combine with SweepN's pool width bearing
// in mind the two multiply.
var ShardWorkers int

func runScientific(ctx context.Context, app string, scale Scale, entries int) (Result, error) {
	w, err := ScientificWorkload(app, scale)
	if err != nil {
		return Result{}, err
	}
	cfg := core.DefaultConfig()
	cfg.ShardWorkers = ShardWorkers
	if entries > 0 {
		cfg = cfg.WithSwitchDir(entries)
	}
	m, err := core.New(cfg)
	if err != nil {
		return Result{}, err
	}
	m.SetStopCheck(stopProbe(ctx))
	d, err := workload.NewDriver(m, w)
	if err != nil {
		return Result{}, err
	}
	s, err := d.Run()
	r := Result{
		App: app, Entries: entries,
		Reads: s.Reads, ReadMisses: s.ReadMisses, Clean: s.ReadClean,
		CtoCHome: s.ReadCtoCHome, CtoCSwitch: s.ReadCtoCSwitch,
		AvgReadLat: s.AvgReadLatency(), CtoCLatShare: s.CtoCLatencyShare(),
		ReadStall:  uint64(s.ReadStall),
		ExecCycles: uint64(s.Cycles),
	}
	if err != nil {
		// An abort keeps its partial Result (the driver collected the
		// machine before returning); other failures discard it.
		var abort *core.AbortError
		if errors.As(err, &abort) {
			return r, err
		}
		return Result{}, err
	}
	return r, nil
}

func synthFor(app string, scale Scale) trace.SynthConfig {
	if app == "tpcd" {
		return trace.TPCD(traceRefs(scale))
	}
	return trace.TPCC(traceRefs(scale))
}

func runCommercial(ctx context.Context, app string, scale Scale, entries int) (Result, error) {
	cfg := tracesim.DefaultConfig()
	if entries > 0 {
		cfg = cfg.WithSDir(entries)
	}
	s, err := tracesim.New(cfg)
	if err != nil {
		return Result{}, err
	}
	s.Stop = stopProbe(ctx)
	st := s.Run(trace.NewSynth(synthFor(app, scale)))
	r := Result{
		App: app, Entries: entries,
		Reads: st.Reads, ReadMisses: st.ReadMisses, Clean: st.Clean,
		CtoCHome: st.CtoCHome, CtoCSwitch: st.CtoCSwitch,
		AvgReadLat: st.AvgReadLatency(), CtoCLatShare: st.CtoCLatencyShare(),
		ReadStall:  st.ReadStall,
		ExecCycles: st.ExecCycles,
	}
	if s.Stopped() {
		return r, fmt.Errorf("figures: %s/%d trace run aborted: %w", app, entries,
			&core.AbortError{Now: sim.Cycle(st.ExecCycles)})
	}
	return r, nil
}

// Sweep runs every app at every directory size (including the base)
// and indexes results by app then entries. Figures 8–11 all read from
// one sweep. Cells run concurrently on a bounded worker pool (each
// simulation is single-threaded and fully isolated, so results are
// bit-identical to a serial sweep); see SweepN to control the width.
func Sweep(scale Scale, apps []string, sizes []int) (map[string]map[int]Result, error) {
	return SweepN(scale, apps, sizes, 0)
}

// Fig1 reproduces Figure 1: the clean vs dirty split of read misses
// per application, on the base system.
func Fig1(scale Scale) (string, map[string][2]float64, error) {
	data := map[string][2]float64{}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: Fraction of Clean vs. Dirty (CtoC) Read Misses\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %12s %14s\n", "app", "clean", "dirty", "readMisses", "dirtyLatShare")
	for _, app := range Apps {
		r, err := RunOne(app, scale, 0)
		if err != nil {
			return "", nil, err
		}
		if r.ReadMisses == 0 {
			return "", nil, fmt.Errorf("fig1: %s produced no misses", app)
		}
		dirty := float64(r.CtoC()) / float64(r.ReadMisses)
		data[app] = [2]float64{1 - dirty, dirty}
		// The latency component (Section 2): dirty misses cost 1.5-2x
		// a clean access, so their latency share exceeds their count
		// share (the paper quotes FFT 65%->74%, TPC-C 38%->49%).
		fmt.Fprintf(&b, "%-8s %9.1f%% %9.1f%% %12d %13.1f%%\n",
			app, 100*(1-dirty), 100*dirty, r.ReadMisses, 100*r.CtoCLatShare)
	}
	return b.String(), data, nil
}

// Fig2 reproduces Figure 2: the cumulative distribution of TPC-C read
// misses and CtoC transfers over blocks sorted by misses/block.
func Fig2(scale Scale) (string, [][3]float64, error) {
	s, err := tracesim.New(tracesim.DefaultConfig())
	if err != nil {
		return "", nil, err
	}
	s.Run(trace.NewSynth(synthFor("tpcc", scale)))
	points := []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.40, 0.60, 0.80, 1.00}
	miss, ctoc := s.Profile.CDF(points)
	var rows [][3]float64
	var b strings.Builder
	totalMiss, totalCtoC := s.Profile.Totals()
	fmt.Fprintf(&b, "Figure 2: Access Frequency of TPC-C Blocks\n")
	fmt.Fprintf(&b, "blocks=%d readMisses=%d ctocs=%d\n", s.Profile.Len(), totalMiss, totalCtoC)
	fmt.Fprintf(&b, "%10s %10s %10s\n", "blockFrac", "cumMiss", "cumCtoC")
	for i, p := range points {
		rows = append(rows, [3]float64{p, miss[i], ctoc[i]})
		fmt.Fprintf(&b, "%9.0f%% %9.1f%% %9.1f%%\n", 100*p, 100*miss[i], 100*ctoc[i])
	}
	return b.String(), rows, nil
}

// normTable renders one of Figures 8–11: metric(app, size) normalized
// to the base system.
func normTable(title, metric string, sweep map[string]map[int]Result, value func(Result) float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	sizes := append([]int{}, DirSizes...)
	sort.Ints(sizes)
	fmt.Fprintf(&b, "%-8s", "app")
	for _, n := range sizes {
		if n == 0 {
			fmt.Fprintf(&b, " %10s", "base")
		} else {
			fmt.Fprintf(&b, " %9dE", n)
		}
	}
	fmt.Fprintf(&b, "   (%s, normalized to base)\n", metric)
	for _, app := range Apps {
		row, ok := sweep[app]
		if !ok {
			continue
		}
		base := value(row[0])
		fmt.Fprintf(&b, "%-8s", app)
		for _, n := range sizes {
			r, ok := row[n]
			if !ok {
				fmt.Fprintf(&b, " %10s", "-")
				continue
			}
			v := 1.0
			if base > 0 {
				v = value(r) / base
			}
			fmt.Fprintf(&b, " %10.3f", v)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Fig8 renders home-node CtoC transfers normalized to base.
func Fig8(sweep map[string]map[int]Result) string {
	return normTable("Figure 8: Reduction in Home Node CtoC Transfers",
		"home-node CtoC transfers", sweep,
		func(r Result) float64 { return float64(r.CtoCHome) })
}

// Fig9 renders average read latency normalized to base.
func Fig9(sweep map[string]map[int]Result) string {
	return normTable("Figure 9: Reduction in the Average Read Latency",
		"avg read latency", sweep,
		func(r Result) float64 { return r.AvgReadLat })
}

// Fig10 renders read stall time normalized to base.
func Fig10(sweep map[string]map[int]Result) string {
	return normTable("Figure 10: Reduction in the Read Stall Time",
		"read stall cycles", sweep,
		func(r Result) float64 { return float64(r.ReadStall) })
}

// Fig11 renders execution time normalized to base.
func Fig11(sweep map[string]map[int]Result) string {
	return normTable("Figure 11: Execution Time Reduction",
		"execution cycles", sweep,
		func(r Result) float64 { return float64(r.ExecCycles) })
}

// FigE1 is an extension experiment beyond the paper: the conclusion's
// proposed combination of switch directories with the switch-cache
// framework, across the scientific kernels. Reported per app: home
// directory requests and execution time of directory-only vs the
// combined fabric, both normalized to the base system.
func FigE1(scale Scale) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension E1: switch directory + switch cache (conclusion's proposal)\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %12s %12s\n",
		"app", "homeReads/b", "homeReads/c", "exec/base-d", "exec/base-c", "cacheServed")
	for _, app := range []string{"fft", "tc", "sor", "fwa", "gauss"} {
		w0, err := ScientificWorkload(app, scale)
		if err != nil {
			return "", err
		}
		base, err := runScientificW(w0, core.DefaultConfig())
		if err != nil {
			return "", err
		}
		w1, _ := ScientificWorkload(app, scale)
		dir, err := runScientificW(w1, core.DefaultConfig().WithSwitchDir(1024))
		if err != nil {
			return "", err
		}
		w2, _ := ScientificWorkload(app, scale)
		comb, err := runScientificW(w2, core.DefaultConfig().WithSwitchDir(1024).WithSwitchCache(512))
		if err != nil {
			return "", err
		}
		norm := func(v, bv uint64) float64 {
			if bv == 0 {
				return 1
			}
			return float64(v) / float64(bv)
		}
		fmt.Fprintf(&b, "%-8s %12.3f %12.3f %12.3f %12.3f %12d\n", app,
			norm(dir.HomeReads, base.HomeReads), norm(comb.HomeReads, base.HomeReads),
			norm(uint64(dir.Cycles), uint64(base.Cycles)), norm(uint64(comb.Cycles), uint64(base.Cycles)),
			comb.ReadCleanSwitch)
	}
	return b.String(), nil
}

// runScientificW runs one prepared workload under cfg.
func runScientificW(w workload.Workload, cfg core.Config) (core.Stats, error) {
	if cfg.ShardWorkers == 0 {
		cfg.ShardWorkers = ShardWorkers
	}
	m, err := core.New(cfg)
	if err != nil {
		return core.Stats{}, err
	}
	d, err := workload.NewDriver(m, w)
	if err != nil {
		return core.Stats{}, err
	}
	return d.Run()
}
