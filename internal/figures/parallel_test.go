package figures

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dresar/internal/core"
)

// TestSweepNMatchesSerial pins the parallel sweep's core guarantee:
// whatever the pool width, every cell's Result is bit-identical to a
// serial run, because each cell owns its whole machine (engine, RNG,
// message pool, topology). A small app × size subset keeps the test in
// the default suite; one scientific and one trace-driven app covers
// both simulator kinds. Run with -race in CI (make test-race) to prove
// the workers really share no state.
func TestSweepNMatchesSerial(t *testing.T) {
	apps := []string{"fft", "tpcc"}
	sizes := []int{0, 512}

	want := map[string]map[int]Result{}
	for _, app := range apps {
		want[app] = map[int]Result{}
		for _, n := range sizes {
			r, err := RunOne(app, ScaleSmall, n)
			if err != nil {
				t.Fatalf("RunOne(%s, %d): %v", app, n, err)
			}
			want[app][n] = r
		}
	}

	for _, workers := range []int{1, 2, 4, 16} {
		got, err := SweepCtx(context.Background(), ScaleSmall, apps, sizes, workers)
		if err != nil {
			t.Fatalf("SweepCtx(workers=%d): %v", workers, err)
		}
		for _, app := range apps {
			for _, n := range sizes {
				if got[app][n] != want[app][n] {
					t.Errorf("workers=%d %s/%d diverges from serial:\n got %+v\nwant %+v",
						workers, app, n, got[app][n], want[app][n])
				}
			}
		}
	}
}

// TestSweepNCanonicalError: when several cells fail, the error must be
// the canonically (apps, sizes) first one regardless of which worker
// finished first, so failures replay identically.
func TestSweepNCanonicalError(t *testing.T) {
	apps := []string{"no-such-app-a", "no-such-app-b"}
	sizes := []int{0, 256}
	for _, workers := range []int{1, 4} {
		_, err := SweepCtx(context.Background(), ScaleSmall, apps, sizes, workers)
		if err == nil {
			t.Fatalf("workers=%d: want error for unknown apps", workers)
		}
		want := fmt.Sprintf("%s/%d: ", apps[0], sizes[0])
		if got := err.Error(); len(got) < len(want) || got[:len(want)] != want {
			t.Errorf("workers=%d: error %q does not lead with canonical first cell %q", workers, got, want)
		}
	}
}

// TestSweepCtxCancelled: a cancelled context aborts the sweep with a
// typed *core.AbortError — every cell either stops cooperatively or
// never starts — instead of running the full sweep.
func TestSweepCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the sweep begins
	_, err := SweepCtx(ctx, ScaleSmall, []string{"fft", "tpcc"}, []int{0, 512}, 2)
	if err == nil {
		t.Fatalf("cancelled sweep returned no error")
	}
	var abort *core.AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("cancelled sweep returned %v, want wrapped *core.AbortError", err)
	}
}

// TestSweepCtxPanicRecovered: a panic inside one cell must not crash
// the process (the serving layer shares it with every other job); it
// surfaces as the sweep's canonical *CellPanic error, beating any
// abort errors from sibling cells.
func TestSweepCtxPanicRecovered(t *testing.T) {
	runCellHook = func(app string, entries int) {
		if app == "fft" && entries == 512 {
			panic("injected cell failure")
		}
	}
	defer func() { runCellHook = nil }()
	for _, workers := range []int{1, 4} {
		_, err := SweepCtx(context.Background(), ScaleSmall, []string{"fft"}, []int{0, 512}, workers)
		if err == nil {
			t.Fatalf("workers=%d: sweep with panicking cell returned no error", workers)
		}
		var cp *CellPanic
		if !errors.As(err, &cp) {
			t.Fatalf("workers=%d: error %v, want wrapped *CellPanic", workers, err)
		}
		if cp.App != "fft" || cp.Entries != 512 {
			t.Fatalf("panic attributed to %s/%d, want fft/512", cp.App, cp.Entries)
		}
		if !strings.Contains(cp.Value.(string), "injected") || cp.Stack == "" {
			t.Fatalf("CellPanic lost the panic value or stack: %+v", cp.Value)
		}
	}
}
