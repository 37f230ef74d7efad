package core_test

import (
	"runtime"
	"testing"

	"dresar/internal/core"
	"dresar/internal/workload"
)

// TestIdleMachineHeap pins what a big, mostly idle machine retains. A
// 1024-point FFT has 32 rows, so on a 1024-node radix-8 machine with
// 1K-entry switch directories only 32 processors reference memory:
// the other caches and most switch directories never take an insert,
// and must cost no line or entry memory. After a collection, with the
// machine still live, the run must retain under 16 MiB; building every
// cache and directory up front retained 93 MiB, and building them
// at first use retains 7 MiB.
func TestIdleMachineHeap(t *testing.T) {
	cfg := core.DefaultConfig().WithSwitchDir(1024)
	cfg.Nodes, cfg.Radix = 1024, 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := workload.NewDriver(m, workload.NewFFT(1024, cfg.Nodes))
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	if s.Reads == 0 || s.SDirInserts == 0 {
		t.Fatalf("the FFT did no work: %+v", s)
	}
	if mb := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20); mb > 16 {
		t.Errorf("a 1024-node machine running a 1024-point FFT retains %.1f MiB, want < 16", mb)
	}
}
