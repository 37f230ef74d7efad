package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"path"
	"strings"
	"time"
)

// profileLayers attributes a CPU profile to layers, in CPU seconds,
// using the stack listing of `go tool pprof -traces -lines`.
func profileLayers(profile string) (map[string]float64, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-lines", profile)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errb.String())
	}
	return attribute(&out)
}

// frame is one stack frame of a profile sample.
type frame struct{ fn, file string }

// attribute reads a `pprof -traces -lines` listing and sums each
// sample's CPU time into the layer layerOf charges it to.
func attribute(rd io.Reader) (map[string]float64, error) {
	layers := map[string]float64{}
	var value time.Duration
	var stack []frame
	flush := func() {
		if stack != nil {
			layers[layerOf(stack)] += value.Seconds()
		}
		stack = nil
	}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	inSamples := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		fields := strings.Fields(line)
		if !inSamples || len(fields) == 0 {
			continue
		}
		if !strings.HasPrefix(line, " ") || stack == nil && len(fields) < 2 {
			return nil, fmt.Errorf("unexpected pprof line %q", line)
		}
		if stack == nil {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof sample value in %q: %v", line, err)
			}
			value, fields = d, fields[1:]
		}
		f := frame{fn: fields[0]}
		if len(fields) > 1 {
			f.file = fields[1]
			if i := strings.LastIndexByte(f.file, ':'); i >= 0 {
				f.file = f.file[:i]
			}
		}
		stack = append(stack, f)
	}
	flush()
	return layers, sc.Err()
}

// repoPrefix starts the import path of every repository package a
// sample can be charged to.
const repoPrefix = "dresar/internal/"

// layerOf charges a sample, innermost frame first, to the innermost
// frame in a repository package, so that runtime helpers such as
// memmove, duffcopy or mallocgc count against the layer that called
// them. The sharded engine's files (sim/shard.go, sim/sharded.go) form
// the layer "shard". A sample with no repository frame goes to the
// first of gc, syscall, net, the benchmark itself ("bench") or the
// goroutine scheduler ("sched") that a frame belongs to, walking
// outwards, or else to runtime_other. The scheduler runs on its own
// stack, so a yield's cost cannot be traced back to its caller: on the
// sharded engine most of "sched" is the barrier's spin-then-yield.
func layerOf(stack []frame) string {
	for _, f := range stack {
		if rest, ok := strings.CutPrefix(f.fn, repoPrefix); ok {
			pkg := rest[:strings.IndexAny(rest+".", "./")]
			if base := path.Base(f.file); pkg == "sim" && (base == "shard.go" || base == "sharded.go") {
				return "shard"
			}
			return pkg
		}
	}
	for _, f := range stack {
		switch {
		case isGC(f.fn):
			return "gc"
		case strings.HasPrefix(f.fn, "syscall.") || strings.HasPrefix(f.fn, "internal/poll.") ||
			strings.HasPrefix(f.fn, "internal/runtime/syscall."):
			return "syscall"
		case strings.HasPrefix(f.fn, "net.") || strings.HasPrefix(f.fn, "net/"):
			return "net"
		case strings.HasPrefix(f.fn, "main."):
			return "bench"
		case isSched(f.fn):
			return "sched"
		}
	}
	return "runtime_other"
}

// isSched reports whether fn is one of the goroutine scheduler's entry
// points: finding, switching to and waking goroutines.
func isSched(fn string) bool {
	switch fn {
	case "runtime.schedule", "runtime.findRunnable", "runtime.mcall", "runtime.park_m",
		"runtime.gosched_m", "runtime.goschedImpl", "runtime.wakep", "runtime.goexit0":
		return true
	}
	return false
}

// isGC reports whether fn belongs to the garbage collector's own work:
// background marking and sweeping, assists, and forced collections.
func isGC(fn string) bool {
	for _, p := range []string{
		"runtime.gc", "runtime.GC", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.scanobject", "runtime.scanblock",
		"runtime.sweepone", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}
