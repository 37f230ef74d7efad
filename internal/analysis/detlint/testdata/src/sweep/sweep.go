// Package sweep is the goAllowedFuncs fixture: it stands in for the
// package with a registered goroutine exception (figures.SweepCtx).
// Only the registered function — here,
// pool — may start goroutines; a `go` statement anywhere else in the
// same package is still flagged, and every other determinism rule
// still applies inside the allowed function.
package sweep

import "sync"

// pool is the registered function: goroutines carry no diagnostics here.
func pool(jobs []func(), workers int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// stray proves the exception is function-scoped, not package-wide: an
// unregistered function in an excepted package is still flagged.
func stray(f func()) {
	go f() // want `detlint: goroutine in event-path package sweep`
}

// order proves the map-order rule still fires in an excepted package.
func order(m map[int]int, out func(int)) {
	for k := range m { // want `detlint: iteration over map m has order-sensitive body \(calls out\)`
		out(k)
	}
}
