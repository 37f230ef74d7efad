package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"dresar/internal/figures"
	"dresar/internal/serve"
	"dresar/internal/workload"
)

// Toy-size versions of the four workloads run the same code paths as
// the real ones in well under a second each.

func toyKernel(app string) (workload.Workload, error) {
	switch app {
	case "fft":
		return workload.NewFFT(1024, 16), nil
	case "tc":
		return workload.NewTC(16, 16), nil
	}
	return nil, fmt.Errorf("no toy kernel %q", app)
}

func toySweep() []simCell {
	return sweepCells([]string{"fft", "tc", "tpcc"}, []int{0, 1024}, toyKernel, 20000)
}

var toyServe = serveLoad{
	HitRate: 50, MissRate: 4,
	HitSpecs: []serve.JobSpec{cell("fft", 0), cell("fft", 1024)},
	MissApps: []string{"gauss"}, MissMaxK: 3,
	Conns: 2, SetupReps: 2, Poll: 10 * time.Millisecond,
}

func toyOpts(t *testing.T, seconds time.Duration, traced bool) runOpts {
	return runOpts{seed: 3, seconds: seconds, traced: traced, scratch: t.TempDir(), root: ".."}
}

// output writes r as the benchmark does and returns the parsed result
// line, failing the test unless the run is correct and every catalogue
// metric is a finite number.
func output(t *testing.T, r *report, catalogue []metricDef, traced bool) result {
	t.Helper()
	var buf bytes.Buffer
	if err := r.write(&buf, catalogue, traced); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(catalogue) {
		t.Fatalf("run not clean:\n%s", buf.String())
	}
	return res
}

// positive requires the end-to-end metrics to be measured and non-zero.
func positive(t *testing.T, res result) {
	t.Helper()
	for _, m := range endToEnd {
		if v := res.Metrics[m.Name].Value; !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%s = %g", m.Name, v)
		}
	}
}

func digest(r *report) string {
	for _, n := range r.notes {
		if strings.HasPrefix(n, "figures_digest ") {
			return n
		}
	}
	return ""
}

func TestSmokeSweep(t *testing.T) {
	positive(t, output(t, runSim(toySweep(), toyOpts(t, time.Millisecond, false)), endToEnd, false))
}

// The sharded engine's statistics match the serial engine's, so both
// FFT workloads print the same digest.
func TestSmokeBigFFT(t *testing.T) {
	serial := runSim(fftCells(1024, []int{64}, 1), toyOpts(t, time.Millisecond, false))
	sharded := runSim(fftCells(1024, []int{64}, 2), toyOpts(t, time.Millisecond, false))
	positive(t, output(t, serial, endToEnd, false))
	positive(t, output(t, sharded, endToEnd, false))
	if digest(serial) == "" || digest(serial) != digest(sharded) {
		t.Errorf("serial %q, sharded %q", digest(serial), digest(sharded))
	}
}

func TestSmokeServe(t *testing.T) {
	r, err := runServe(toyServe, toyOpts(t, time.Second, false))
	if err != nil {
		t.Fatal(err)
	}
	positive(t, output(t, r, endToEnd, false))
	if n := r.values["count.hits"]; n != 50 {
		t.Errorf("%g cache hits, want 50", n)
	}
}

// A traced run charges all its CPU time to the layers and reports every
// per-layer metric.
func TestSmokeTraced(t *testing.T) {
	o := toyOpts(t, time.Millisecond, true)
	r, err := measure(func(o runOpts) (*report, error) { return runSim(toySweep(), o), nil }, o)
	if err != nil {
		t.Fatal(err)
	}
	res := output(t, r, perLayer(), true)
	pct := 0.0
	for _, l := range cpuLayers {
		pct += res.Metrics["cpu_pct."+l].Value
	}
	if math.Abs(pct-100) > 1e-6 || res.Metrics["cpu_s.total"].Value <= 0 {
		t.Errorf("CPU shares sum to %g%% of %g s", pct, res.Metrics["cpu_s.total"].Value)
	}
	for _, m := range []string{"span_pct.drive", "span_pct.tracesim", "span_pct.tracegen", "count.refs", "count.trace_recs", "ratio.exec_1k.16n", "loc.bench"} {
		if res.Metrics[m].Value <= 0 {
			t.Errorf("%s = %g", m, res.Metrics[m].Value)
		}
	}
}

// sweep16's cells reproduce the Figures 8–11 sweep cell for cell.
func TestSweepCellsMatchFigures(t *testing.T) {
	cells := sweepCells(figures.Apps, figures.DirSizes, smallKernel, smallTraceRefs)
	if len(cells) != len(figures.Apps)*len(figures.DirSizes) {
		t.Fatalf("%d cells", len(cells))
	}
	for _, c := range cells {
		if c.Entries != 1024 || (c.App != "fft" && c.App != "tpcc") {
			continue
		}
		out, err := runCell(c, false, true)
		if err != nil {
			t.Fatal(err)
		}
		want, err := figures.RunOne(c.App, figures.ScaleSmall, c.Entries)
		if err != nil {
			t.Fatal(err)
		}
		got := [4]uint64{out.exec.ReadMisses, out.exec.ReadCtoCHome, out.exec.ReadCtoCSwitch, uint64(out.exec.Cycles)}
		if c.Kernel == nil {
			got = [4]uint64{out.trace.ReadMisses, out.trace.CtoCHome, out.trace.CtoCSwitch, out.trace.ExecCycles}
		}
		if got != [4]uint64{want.ReadMisses, want.CtoCHome, want.CtoCSwitch, want.ExecCycles} {
			t.Errorf("%s: misses/home/switch/cycles %v, figures %+v", c.key(), got, want)
		}
	}
}

// serve-mix's references per miss are the references a driver issues.
func TestKernelRefs(t *testing.T) {
	n, err := kernelRefs("gauss")
	if err != nil {
		t.Fatal(err)
	}
	out, err := runCell(sweepCells([]string{"gauss"}, []int{0}, smallKernel, 0)[0], false, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(out.exec.Reads + out.exec.Writes); got != n {
		t.Errorf("driver issued %g references, kernelRefs counted %g", got, n)
	}
}

func TestRefusesEngineOverride(t *testing.T) {
	t.Setenv("DRESAR_ENGINE", "sharded")
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "bigfft", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errb); code == 0 || out.Len() != 0 || !strings.Contains(errb.String(), "DRESAR_ENGINE") {
		t.Errorf("exit %d with output %q", code, out.String())
	}
}
