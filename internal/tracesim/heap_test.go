package tracesim

import (
	"runtime"
	"testing"

	"dresar/internal/trace"
)

// TestTraceCellHeap pins what one of the sweep's trace-driven cells
// retains: a TPC-C machine with 2048-entry switch directories, still
// live after its 2M records, must retain under 14 MiB after a
// collection. It retains 13.6 MiB: 8 MiB of line words in its 16 built
// 2 MB caches (8 bytes a line), 2.8 MiB of home records (16 bytes per
// block up to the highest block referenced, with the slice's growth
// slack) and 2.5 MiB of block profile. 10-byte lines and 24-byte home
// records would retain 17.2 MiB and fail.
func TestTraceCellHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := MustNew(DefaultConfig().WithSDir(2048))
	st := s.Run(trace.NewSynth(trace.TPCC(2_000_000)))
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	if st.Refs != 2_000_000 || st.CtoCSwitch == 0 {
		t.Fatalf("the cell did not run its trace: %+v", st)
	}
	if mb := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20); mb > 14 {
		t.Errorf("a 2048-entry TPC-C machine retains %.1f MiB after 2M records, want < 14", mb)
	}
}
