package suite_test

import (
	"testing"

	"dresar/internal/analysis"
	"dresar/internal/analysis/suite"
)

// corePackages are the concurrent-core packages the CFG/dataflow
// analyzers were written for; the suite must hold them at zero
// findings (the full-repo run is `make lint`).
var corePackages = []string{
	"dresar/internal/serve",
	"dresar/internal/sim",
	"dresar/internal/xbar",
}

// TestSuiteCleanOnCore pins the "repo lints clean" invariant at the
// unit-test level: every analyzer over the concurrent core, zero
// surviving findings. It shells out to `go list -export`, so it skips
// under -short.
func TestSuiteCleanOnCore(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list -export")
	}
	diags, err := analysis.Run("", corePackages, suite.All)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
	}
}

// BenchmarkLintSuite times the full seven-analyzer suite over
// internal/serve — the package with the deepest CFG/dataflow work
// (lock ranking, fsync automata, cancellation closure) — so that a
// lint-cost regression can be timed like any package benchmark.
func BenchmarkLintSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		diags, err := analysis.Run("", []string{"dresar/internal/serve"}, suite.All)
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("expected zero findings, got %d", len(diags))
		}
	}
}
