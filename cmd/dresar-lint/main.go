// Command dresar-lint is the repo's static-analysis gate. It bundles
// seven analyzers that enforce invariants the test suite can only probe
// statistically:
//
//	detlint    determinism of the event path (no map-order side
//	           effects, wall clock, global rand, or goroutines)
//	kindswitch exhaustive switches over protocol enums
//	msgown     no mutation or re-send of a message already handed to
//	           the interconnect
//	statlint   Stats counters increment-only outside their owning
//	           package
//	lockheld   Lock/Unlock balanced on every CFG path, no blocking
//	           operations under the serving locks, and acquisitions
//	           respect the declared Server.mu → Job.mu → Cache.mu order
//	ctxflow    every blocking operation on the serve request path is
//	           cancellable (select with a ctx.Done/stop case)
//	fsyncorder file handles follow the crash-safe create → write →
//	           Sync → Close → Rename → dir-sync protocol
//
// It speaks the `go vet -vettool=` protocol, so the usual invocation is
//
//	go build -o bin/dresar-lint ./cmd/dresar-lint
//	go vet -vettool=$(pwd)/bin/dresar-lint ./...
//
// (`make lint` does exactly that, with go vet's per-package caching).
// Run directly with package patterns it loads and checks them itself:
//
//	dresar-lint ./...
//	dresar-lint -json ./...   # machine-readable findings on stdout
//
// The -json form always writes a document (findings may be empty) and
// is what CI archives as its lint artifact.
//
// Suppress an individual finding with a marker on, or on the line
// above, the flagged line:
//
//	//lint:ignore detlint reason why this one is safe
//
// A marker that suppresses nothing is itself reported (analyzer name
// `suppress`), so stale ignores cannot mask future regressions.
//
// See docs/ANALYSIS.md for each analyzer's contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dresar/internal/analysis"
	"dresar/internal/analysis/suite"
)

// jsonFinding is one diagnostic in -json output.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the -json document: always emitted, findings possibly
// empty, so CI can archive it unconditionally.
type jsonReport struct {
	Findings []jsonFinding `json:"findings"`
	Count    int           `json:"count"`
}

func main() {
	// Under `go vet -vettool=` the driver passes -flags / -V=full /
	// <objdir>/vet.cfg; VetMain recognizes and fully handles those.
	if analysis.VetMain(suite.All...) {
		return
	}
	// Standalone mode: load and check package patterns ourselves.
	jsonOut := flag.Bool("json", false, "write findings as JSON to stdout")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dresar-lint:", err)
		os.Exit(1)
	}
	diags, err := analysis.Run(cwd, patterns, suite.All)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dresar-lint:", err)
		os.Exit(1)
	}
	if *jsonOut {
		report := jsonReport{Findings: []jsonFinding{}, Count: len(diags)}
		for _, d := range diags {
			report.Findings = append(report.Findings, jsonFinding{
				File:     d.Position.Filename,
				Line:     d.Position.Line,
				Column:   d.Position.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "dresar-lint:", err)
			os.Exit(1)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s\n", d.Position, d.Message)
		}
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}
