// Command dresar-bench is the repository's benchmark. One run measures
// one seeded workload through the simulator's public layers, checks the
// outputs, and prints every metric with its unit followed by one JSON
// result line. A traced run reports the per-layer metrics instead:
// CPU time by layer from a CPU profile, benchmark-side spans, work
// counters and line counts. README.md documents workloads and metrics.
//
// Usage, from the repository root:
//
//	dresar-bench --workload W --seed N --seconds S --trace 0|1
//	dresar-bench compare A/ B/
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"time"

	"dresar/internal/figures"
)

// runOpts are one run's settings.
type runOpts struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	scratch string // per-run scratch directory, removed at exit
	root    string // repository root, whose sources loc.* counts
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runOpts) (*report, error){
	"sweep16": func(o runOpts) (*report, error) {
		return runSim(sweepCells(figures.Apps, figures.DirSizes, smallKernel, smallTraceRefs), o), nil
	},
	"bigfft": func(o runOpts) (*report, error) {
		return runSim(fftCells(16384, []int{64, 256, 1024}, 1), o), nil
	},
	"bigfft-2w": func(o runOpts) (*report, error) {
		return runSim(fftCells(16384, []int{64, 256, 1024}, 2), o), nil
	},
	"serve-mix": func(o runOpts) (*report, error) { return runServe(serveMix, o) },
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// traceFlag is a boolean flag that takes its value as a separate
// argument ("--trace 1"), unlike flag.Bool.
type traceFlag bool

func (t *traceFlag) String() string { return strconv.FormatBool(bool(*t)) }
func (t *traceFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*t = traceFlag(v)
	return err
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("dresar-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep16, bigfft, bigfft-2w or serve-mix")
	seed := fs.Uint64("seed", 1, "seed for the cell order and the serving load")
	seconds := fs.Float64("seconds", 25, "how long to measure")
	var traced traceFlag
	fs.Var(&traced, "trace", "1 reports the per-layer metrics of a profiled run, 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if os.Getenv("DRESAR_ENGINE") != "" {
		fmt.Fprintln(stderr, "dresar-bench: DRESAR_ENGINE is set; every workload chooses its engine explicitly, unset it")
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds <= 0 {
		fmt.Fprintf(stderr, "dresar-bench: need --workload (sweep16, bigfft, bigfft-2w, serve-mix) and --seconds > 0\n")
		return 2
	}
	if _, err := os.Stat(filepath.Join("internal", "core")); err != nil {
		fmt.Fprintln(stderr, "dresar-bench: run from the repository root")
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "dresar-bench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(stderr, "dresar-bench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	o := runOpts{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), traced: bool(traced), scratch: scratch, root: "."}
	r, err := measure(runner, o)
	if err != nil {
		fmt.Fprintln(stderr, "dresar-bench:", err)
		return 1
	}
	catalogue := endToEnd
	if o.traced {
		// The end-to-end values of a traced run, set against an untraced
		// run's, give the tracing overhead.
		for _, m := range endToEnd {
			r.note("traced %s %.6g %s", m.Name, r.values[m.Name], m.Unit)
		}
		catalogue = perLayer()
	}
	if err := r.write(stdout, catalogue, o.traced); err != nil {
		fmt.Fprintln(stderr, "dresar-bench:", err)
		return 1
	}
	if r.failed > 0 {
		return 1
	}
	return 0
}

// measure runs one workload; a traced run profiles it and adds the
// per-layer metrics.
func measure(runner func(runOpts) (*report, error), o runOpts) (*report, error) {
	if !o.traced {
		return runner(o)
	}
	profile := filepath.Join(o.scratch, "cpu.pprof")
	f, err := os.Create(profile)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	start := time.Now()
	r, err := runner(o)
	wall := time.Since(start)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	cpu, err := profileLayers(profile)
	if err != nil {
		return nil, fmt.Errorf("attributing the CPU profile: %w", err)
	}
	total := 0.0
	for _, v := range cpu {
		total += v
	}
	if total == 0 {
		return nil, errors.New("the CPU profile holds no samples")
	}
	r.set("cpu_s.total", total)
	for _, l := range cpuLayers {
		r.set("cpu_pct."+l, 100*cpu[l]/total)
	}
	for _, s := range spanNames {
		r.set("span_pct."+s, 100*r.spans[s].Seconds()/wall.Seconds())
	}
	loc, err := countLines(o.root)
	if err != nil {
		return nil, err
	}
	for name, n := range loc {
		r.set("loc."+name, float64(n))
	}
	return r, nil
}
