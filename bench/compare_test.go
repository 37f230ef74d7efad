package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "job_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim_krefs_per_s", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "exec_ratio_1k", Better: "lower", Bound: 0}
	steady := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		m    metricDef
		a, b []float64
		want string
	}{
		{"unchanged", lower, steady, steady, "same"},
		{"slower beyond the bound", lower, steady, scale(steady, 1.2), "regression"},
		{"slower within the bound", lower, steady, scale(steady, 1.05), "same"},
		{"faster on every pair", lower, steady, scale(steady, 0.8), "gain"},
		{"higher is better", higher, steady, scale(steady, 0.8), "regression"},
		{"too noisy to tell", lower, []float64{8, 12, 9, 11, 10, 14, 6}, []float64{10, 10, 10, 10, 10, 10, 10}, "unresolved"},
		{"noisy but every run better", lower, []float64{8, 12, 9, 11, 10, 14, 6}, []float64{2, 3, 2, 3, 2, 3, 2}, "gain"},
		{"exact metric moved", exact, []float64{1, 1, 1}, []float64{1.001, 1.001, 1.001}, "regression"},
		{"exact metric held", exact, []float64{1, 1, 1}, []float64{1, 1, 1}, "same"},
	} {
		if got := judge(tc.a, tc.b, tc.m).word; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// compare reads saved run outputs from <dir>/<workload>/, refuses runs
// that failed, and exits 1 on a regression or on an end-to-end metric or
// workload that B lacks.
func TestCompareDirectories(t *testing.T) {
	e2e := []metricDef{{"job_s", "s", "lower", 0.1}, {"setup_s", "s", "lower", 0.1}}
	layers := []metricDef{{"cpu_s.total", "s", "lower", 0}}
	dir := t.TempDir()
	// write saves five runs of one side; metrics holds the result's
	// metrics with %g standing for that run's value.
	write := func(side, workload string, v float64, failed int, metrics string) {
		for i := 0; i < 5; i++ {
			p := filepath.Join(dir, side, workload, fmt.Sprintf("%02d.out", i))
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				t.Fatal(err)
			}
			x := v + 0.01*float64(i)
			out := fmt.Sprintf("job_s %g s\n{\"correct\":%v,\"attempted\":10,\"failed\":%d,\"metrics\":{%s}}\n",
				x, failed == 0, failed, strings.ReplaceAll(metrics, "%g", fmt.Sprint(x)))
			if err := os.WriteFile(p, []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	both := `"job_s":{"value":%g,"unit":"s"},"setup_s":{"value":0.2,"unit":"s"},"cpu_s.total":{"value":%g,"unit":"s"}`
	write("a", "bigfft", 8, 0, both)
	write("same", "bigfft", 8, 0, both)
	write("slower", "bigfft", 10, 0, both)
	write("nosetup", "bigfft", 8, 0, `"job_s":{"value":%g,"unit":"s"}`)
	write("otherworkload", "sweep16", 8, 0, both)
	write("failed", "bigfft", 8, 1, both)

	a, err := loadRuns(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		b    string
		code int
		word string
	}{
		{"same", 0, "same"},
		{"slower", 1, "regression"},
		{"nosetup", 1, "setup_s                    missing from B"},
		{"otherworkload", 1, "bigfft     -                          missing from B"},
	} {
		b, err := loadRuns(filepath.Join(dir, tc.b))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if code := compareRuns(e2e, layers, a, b, &out); code != tc.code || !strings.Contains(out.String(), tc.word) {
			t.Errorf("compare a %s: exit %d, output\n%s", tc.b, code, out.String())
		}
	}
	if _, err := loadRuns(filepath.Join(dir, "failed")); err == nil || !strings.Contains(err.Error(), "1 of 10 operations failed") {
		t.Errorf("runs that failed loaded with error %v", err)
	}
}
