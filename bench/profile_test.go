package main

import (
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAttributeFixture charges each sample of a checked-in
// `pprof -traces -lines` listing to its layer: the innermost repository
// frame wins (runtime helpers such as duffcopy count against their
// caller; sim's shard.go and sharded.go are "shard"), and a sample with
// no repository frame falls into gc, sched, net, syscall, bench or
// runtime_other.
func TestAttributeFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := attribute(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim": 1.22, "shard": 0.03, "xbar": 0.02, "serve": 0.06, "gc": 0.05,
		"sched": 0.04, "net": 0.02, "syscall": 0.03, "bench": 0.01, "runtime_other": 0.02,
	}
	total := 0.0
	for l, v := range got {
		total += v
		if math.Abs(v-want[l]) > 1e-9 {
			t.Errorf("layer %s: %.3f s, want %.3f s", l, v, want[l])
		}
		if !slices.Contains(cpuLayers, l) {
			t.Errorf("layer %s is not in cpuLayers", l)
		}
	}
	for l := range want {
		if _, ok := got[l]; !ok {
			t.Errorf("layer %s missing", l)
		}
	}
	if math.Abs(total-1.5) > 1e-9 {
		t.Errorf("attributed %.3f s, the listing holds 1.50 s", total)
	}
}

func TestAttributeRejectsMalformed(t *testing.T) {
	for _, listing := range []string{
		"-----------+---\n      bogus   runtime.main /x.go:1\n",
		"-----------+---\nruntime.main /x.go:1\n",
	} {
		if _, err := attribute(strings.NewReader(listing)); err == nil {
			t.Errorf("listing %q accepted", listing)
		}
	}
}

// Every repository package that runs in the benchmark's process is a
// CPU layer of its own, so that no layer's time hides in another.
func TestCPULayersCoverInternal(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		// analysis holds the static checkers, which never run here.
		if e.IsDir() && e.Name() != "analysis" && !slices.Contains(cpuLayers, e.Name()) {
			t.Errorf("internal/%s has no CPU layer", e.Name())
		}
	}
}

func TestCountLines(t *testing.T) {
	got, err := countLines("..")
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, p := range locPackages {
		if got[p] <= 0 {
			t.Errorf("loc.%s = %d", p, got[p])
		}
		sum += got[p]
	}
	if len(got) != len(locPackages)+1 || got["total"] != sum {
		t.Errorf("counts %v do not cover exactly locPackages plus their total", got)
	}
}
