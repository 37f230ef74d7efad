// Package a is the detlint fixture: each `want` line must produce a
// diagnostic, every other construct must stay clean.
package a

import (
	"math/rand" // want `detlint: import of math/rand`
	"os"
	"sort"
	"time"
)

// order: calling out of a map range is order-sensitive; the
// accumulate-sort-iterate rewrite below it is the canonical fix.
func order(m map[int]int, out func(int)) {
	for k := range m { // want `detlint: iteration over map m has order-sensitive body \(calls out\)`
		out(k)
	}
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		out(k)
	}
}

// totals: integer accumulation commutes, any iteration order sums the
// same.
func totals(m map[int]uint64) (sum uint64) {
	for _, v := range m {
		sum += v
	}
	return sum
}

// concat: string += is concatenation — order-sensitive.
func concat(m map[int]string) string {
	s := ""
	for _, v := range m { // want `detlint: iteration over map m has order-sensitive body \(writes s declared outside the loop\)`
		s += v
	}
	return s
}

// selfRef: x += x + k is an affine map, not a sum; order matters.
func selfRef(m map[int]int) int {
	x := 1
	for k := range m { // want `detlint: iteration over map m has order-sensitive body \(writes x declared outside the loop\)`
		x += x + k
	}
	return x
}

// counting is integer accumulation — order-free.
func localOnly(m map[int]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

func clock() int64 {
	return time.Now().UnixNano() // want `detlint: time\.Now`
}

// env: a setting read from the environment bypasses the config.
func env() bool {
	_, set := os.LookupEnv("ENGINE")        // want `detlint: os\.LookupEnv in event-path package a: the environment is a side channel`
	return set || os.Getenv("ENGINE") != "" // want `detlint: os\.Getenv`
}

// file: the rest of package os is not an environment read.
func file() error {
	_, err := os.Stat("x")
	return err
}

func spawn(f func()) {
	go f() // want `detlint: goroutine`
}

func seeded() int {
	return rand.Int()
}

// suppressed: the //lint:ignore marker must drop the finding.
func suppressed(m map[int]int, out func(int)) {
	//lint:ignore detlint fixture proves the marker works
	for k := range m {
		out(k)
	}
}
