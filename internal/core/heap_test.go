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

// TestFFTMachineHeap pins what the home directories retain. A 64-node
// radix-8 machine with 1K-entry switch directories, still live after
// FFT 16K, must retain under 11 MiB after a collection. It retains
// 9.8 MiB: 4.5 MiB of cache lines and versions, and 3.85 MiB in the 64
// homes' 16K block records and 32K duplicate-filter rings with their
// two maps. A 144-byte record object per block, a 64-byte filter ring
// of 64-bit Tx per (block, requester), and requests left reachable
// after the pending queue pops them retained 13.4 MiB and fail.
func TestFFTMachineHeap(t *testing.T) {
	cfg := core.DefaultConfig().WithSwitchDir(1024)
	cfg.Nodes, cfg.Radix = 64, 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := workload.NewDriver(m, workload.NewFFT(16384, cfg.Nodes))
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
	if s.Reads == 0 || s.ReadCtoCSwitch == 0 {
		t.Fatalf("the FFT did no work: %+v", s)
	}
	if mb := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20); mb > 11 {
		t.Errorf("a 64-node machine running a 16K-point FFT retains %.1f MiB, want < 11", mb)
	}
}
