package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// runCompare implements `dresar-bench compare A/ B/`. A and B hold one
// subdirectory per workload, each with the saved output of several runs
// (the last line of each file is its result), A from the parent commit
// and B from the change, made in alternating order. For every workload
// and metric it prints each side's median and quartiles, the share of
// index-paired runs B wins, and a verdict for end-to-end metrics:
//
//   - unresolved: either side's quartile spread exceeds the bound and B
//     does not beat A on every pair of runs;
//   - regression: B's median is worse than A's by more than the bound;
//   - gain: B wins at least nine tenths of the pairs and the medians
//     differ by more than A's quartile spread;
//   - same: otherwise.
//
// It exits 1 when any end-to-end metric is a regression or unresolved,
// or is measured in A but missing from B, and 2 when a run failed its
// correctness checks: a run that failed is not compared at all. Each
// metric's direction and bound come from the benchmark's catalogue,
// which BENCHMARK.json repeats.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: dresar-bench compare A/ B/")
		return 2
	}
	a, err := loadRuns(args[0])
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = loadRuns(args[1]); err == nil {
			return compareRuns(endToEnd, perLayer(), a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "dresar-bench compare:", err)
	return 2
}

// compareRuns prints the comparison table and returns the exit code. A
// workload, or an end-to-end metric, that A measured and B did not is a
// failure; per-layer metrics missing on either side are left out.
func compareRuns(e2e, layers []metricDef, a, b map[string]map[string][]float64, w io.Writer) int {
	var names []string
	for wl := range a {
		names = append(names, wl)
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(w, "%-10s %-26s %26s %26s %5s  %s\n", "workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "B win", "verdict")
	for _, wl := range names {
		if _, ok := b[wl]; !ok {
			fmt.Fprintf(w, "%-10s %-26s %s\n", wl, "-", "missing from B")
			code = 1
			continue
		}
		for i, m := range append(append([]metricDef(nil), e2e...), layers...) {
			av, bv := a[wl][m.Name], b[wl][m.Name]
			if len(av) > 0 && len(bv) == 0 && i < len(e2e) {
				fmt.Fprintf(w, "%-10s %-26s %s\n", wl, m.Name, "missing from B")
				code = 1
			}
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := judge(av, bv, m)
			if i >= len(e2e) {
				v.word = "-"
			} else if v.word == "regression" || v.word == "unresolved" {
				code = 1
			}
			fmt.Fprintf(w, "%-10s %-26s %10.4g [%6.4g %6.4g] %10.4g [%6.4g %6.4g] %4.0f%%  %s\n",
				wl, m.Name, v.medA, v.q1A, v.q3A, v.medB, v.q1B, v.q3B, 100*v.win, v.word)
		}
	}
	return code
}

// verdict is the comparison of one metric on one workload.
type verdict struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	win            float64 // share of index-paired runs B is better on; ties count for neither
	word           string
}

func judge(a, b []float64, m metricDef) verdict {
	better := func(x, y float64) bool { // x is better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	v := verdict{medA: median(a), medB: median(b)}
	v.q1A, v.q3A = quartiles(a)
	v.q1B, v.q3B = quartiles(b)
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	v.win = float64(wins) / float64(pairs)
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	slack := m.Bound * math.Abs(v.medA)
	worse := v.medB > v.medA+slack
	if m.Better == "higher" {
		worse = v.medB < v.medA-slack
	}
	switch {
	case (spread(a) > m.Bound || spread(b) > m.Bound) && !allBetter:
		v.word = "unresolved"
	case worse:
		v.word = "regression"
	case v.win >= 0.9 && math.Abs(v.medB-v.medA) > v.q3A-v.q1A && better(v.medB, v.medA):
		v.word = "gain"
	default:
		v.word = "same"
	}
	return v
}

// loadRuns reads dir/<workload>/<run> files, in name order, into
// workload → metric → values. A run that failed its correctness checks
// is an error: its metrics leave out the operations that failed.
func loadRuns(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*", "*"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	runs := map[string]map[string][]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %v", f, err)
		}
		if !res.Correct || res.Failed > 0 {
			return nil, fmt.Errorf("%s: run failed its checks (%d of %d operations failed)", f, res.Failed, res.Attempted)
		}
		wl := filepath.Base(filepath.Dir(f))
		if runs[wl] == nil {
			runs[wl] = map[string][]float64{}
		}
		for name, mv := range res.Metrics {
			runs[wl][name] = append(runs[wl][name], mv.Value)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs under %s/<workload>/", dir, dir)
	}
	return runs, nil
}
