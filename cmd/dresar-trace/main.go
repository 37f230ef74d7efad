// Command dresar-trace runs the trace-driven simulator (Table 3 model)
// on a trace file produced by tracegen, or on a freshly generated
// synthetic trace, and prints the statistics roll-up.
//
// Usage:
//
//	dresar-trace -workload tpcc -refs 16000000 -entries 1024
//	dresar-trace -in tpcc.trace -entries 0
package main

import (
	"flag"
	"fmt"
	"os"

	"dresar/internal/trace"
	"dresar/internal/tracesim"
)

func main() {
	in := flag.String("in", "", "trace file (empty = generate synthetically)")
	kind := flag.String("workload", "tpcc", "tpcc or tpcd (for synthetic generation)")
	refs := flag.Uint64("refs", 16_000_000, "references (synthetic generation)")
	entries := flag.Int("entries", 1024, "switch-directory entries per switch (0 = base)")
	flag.Parse()
	if err := checkFlags(*in, *refs, *entries); err != nil {
		fmt.Fprintf(os.Stderr, "dresar-trace: %v\n", err)
		os.Exit(2)
	}

	cfg := tracesim.DefaultConfig()
	if *entries > 0 {
		cfg = cfg.WithSDir(*entries)
	}
	s, err := tracesim.New(cfg)
	fail(err)

	var src trace.Source
	var fileSrc *trace.ReaderSource
	if *in != "" {
		f, err := os.Open(*in)
		fail(err)
		defer f.Close()
		fileSrc = &trace.ReaderSource{R: trace.NewReader(f), Procs: cfg.Procs}
		src = fileSrc
	} else {
		switch *kind {
		case "tpcc":
			src = trace.NewSynth(trace.TPCC(*refs))
		case "tpcd":
			src = trace.NewSynth(trace.TPCD(*refs))
		default:
			fmt.Fprintf(os.Stderr, "dresar-trace: unknown workload %q\n", *kind)
			os.Exit(2)
		}
	}

	st := s.Run(src)
	if fileSrc != nil {
		// A malformed or truncated trace, or a record naming a
		// processor the machine lacks, stops the stream early; report
		// it instead of printing stats for a partial run.
		fail(fileSrc.Err())
		if st.Refs == 0 {
			fail(fmt.Errorf("%s: empty trace", *in))
		}
	}
	fmt.Printf("refs=%d reads=%d misses=%d hits=%d\n", st.Refs, st.Reads, st.ReadMisses, st.ReadHits)
	fmt.Printf("clean=%d ctocHome=%d ctocSwitch=%d stale=%d ctocFraction=%.3f\n",
		st.Clean, st.CtoCHome, st.CtoCSwitch, st.StaleSDir, st.CtoCFraction())
	fmt.Printf("avgReadLatency=%.1f readStall=%d execCycles=%d\n",
		st.AvgReadLatency(), st.ReadStall, st.ExecCycles)
	miss, ctoc := s.Profile.CDF([]float64{0.10})
	fmt.Printf("top10%%Blocks: misses=%.1f%% ctocs=%.1f%% (blocks=%d)\n",
		100*miss[0], 100*ctoc[0], s.Profile.Len())
}

// checkFlags rejects the flag values that main would quietly turn into
// a different run or fail on: a negative -entries (read as the base
// system), an -entries the switch directories cannot be built with
// (tracesim.New's own check) and, for a synthetic trace, -refs 0 (an
// empty run).
func checkFlags(in string, refs uint64, entries int) error {
	if entries < 0 {
		return fmt.Errorf("-entries %d: want a count >= 0", entries)
	}
	if entries > 0 {
		if _, err := tracesim.New(tracesim.DefaultConfig().WithSDir(entries)); err != nil {
			return fmt.Errorf("-entries %d: %v", entries, err)
		}
	}
	if in == "" && refs == 0 {
		return fmt.Errorf("-refs must be positive")
	}
	return nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "dresar-trace: %v\n", err)
		os.Exit(1)
	}
}
