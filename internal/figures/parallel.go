package figures

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"dresar/internal/core"
	"dresar/internal/tracesim"
)

// cell names one (app, entries) simulation of a sweep.
type cell struct {
	app     string
	entries int
}

// CellPanic reports a panic raised while simulating one sweep cell.
// SweepCtx recovers it into the canonical-error path so one broken
// cell fails its sweep with a structured error instead of crashing
// the whole process (a long-running server must survive a model bug
// in a single job).
type CellPanic struct {
	App     string
	Entries int
	Value   any
	Stack   string
}

func (p *CellPanic) Error() string {
	return fmt.Sprintf("figures: panic in cell %s/%d: %v\n%s", p.App, p.Entries, p.Value, p.Stack)
}

// runCellHook, when non-nil, runs at the top of every cell; the
// package tests use it to inject failures (panics) into chosen cells.
var runCellHook func(app string, entries int)

// runCell executes one cell, converting a panic anywhere under it —
// workload construction, machine wiring, the simulation itself — into
// a *CellPanic error.
func runCell(ctx context.Context, app string, scale Scale, entries int) (r Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &CellPanic{App: app, Entries: entries, Value: p, Stack: string(debug.Stack())}
		}
	}()
	if runCellHook != nil {
		runCellHook(app, entries)
	}
	return RunOneCtx(ctx, app, scale, entries)
}

// CheckSizes reports the first directory size in sizes that a sweep
// cell could not be built with: a negative count, or one that the
// execution-driven switch directories (sdir) or the trace-driven ones
// (tracesim) reject by their own geometry checks. 0, the base system,
// is always valid.
func CheckSizes(sizes []int) error {
	for _, n := range sizes {
		if n < 0 {
			return fmt.Errorf("directory size %d: want an entry count >= 0", n)
		}
		if n == 0 {
			continue
		}
		if err := core.DefaultConfig().WithSwitchDir(n).SwitchDir.Validate(); err != nil {
			return fmt.Errorf("directory size %d: %w", n, err)
		}
		if _, err := tracesim.New(tracesim.DefaultConfig().WithSDir(n)); err != nil {
			return fmt.Errorf("directory size %d: %w", n, err)
		}
	}
	return nil
}

// SweepCtx runs every app at every directory size (0 is the base
// system) and indexes the results by app, then entries; Figures 8–11
// all read one sweep. The cells fan out over a bounded pool of workers
// goroutines (workers <= 0 uses GOMAXPROCS; 1 degenerates to a serial
// run). Each cell builds its own Machine with its own engine, RNG, and
// message pool, so runs share no state and every cell's Result is
// bit-identical to a serial run; only wall-clock time changes. Results
// are merged in canonical (apps, sizes) order, and when several cells
// fail the error reported is the canonically first one, so failures
// replay identically too.
//
// Cancelling ctx (or its deadline passing) stops every running cell
// cooperatively, within a few events, skips cells not yet started, and
// returns an error wrapping *core.AbortError. A cell that panics is
// recovered into a *CellPanic error rather than taking down the
// caller; when both real failures and aborts are present the
// canonically first real failure wins (an abort is a consequence of
// the cancellation, not its cause).
func SweepCtx(ctx context.Context, scale Scale, apps []string, sizes []int, workers int) (map[string]map[int]Result, error) {
	cells := make([]cell, 0, len(apps)*len(sizes))
	for _, app := range apps {
		for _, n := range sizes {
			cells = append(cells, cell{app, n})
		}
	}
	results := make([]Result, len(cells))
	errs := make([]error, len(cells))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				if ctx.Err() != nil {
					// Cancelled before this cell started: record the
					// same typed abort a running cell would produce.
					errs[i] = fmt.Errorf("%s/%d not started: %w",
						cells[i].app, cells[i].entries, &core.AbortError{})
					continue
				}
				results[i], errs[i] = runCell(ctx, cells[i].app, scale, cells[i].entries)
			}
		}()
	}
	wg.Wait()
	// Canonical error selection: first non-abort failure if any exists
	// (deterministic replay of real failures), else the first abort.
	var firstAbort error
	for i, c := range cells {
		if errs[i] == nil {
			continue
		}
		var abort *core.AbortError
		if errors.As(errs[i], &abort) {
			if firstAbort == nil {
				firstAbort = fmt.Errorf("%s/%d: %w", c.app, c.entries, errs[i])
			}
			continue
		}
		return nil, fmt.Errorf("%s/%d: %w", c.app, c.entries, errs[i])
	}
	if firstAbort != nil {
		return nil, firstAbort
	}
	out := map[string]map[int]Result{}
	for i, c := range cells {
		if out[c.app] == nil {
			out[c.app] = map[int]Result{}
		}
		out[c.app][c.entries] = results[i]
	}
	return out, nil
}
