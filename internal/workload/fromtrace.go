package workload

import (
	"fmt"

	"dresar/internal/trace"
)

// RecSource is the record stream both trace readers and the synthetic
// generators implement (trace.ReaderSource, trace.Synth).
type RecSource interface {
	Next() (trace.Rec, bool)
}

// FromTrace materializes up to max records from src as a single-phase
// Workload: each record becomes a zero-gap reference on processor
// Pid%procs. This bridges the commercial-workload traces into the
// execution driver, so the same machinery (barrier drain, statistics,
// the corpus pin TestCorpusPinned in package figures) covers
// trace-driven runs.
// max <= 0 drains the source.
func FromTrace(name string, procs int, src RecSource, max uint64) (Workload, error) {
	if procs <= 0 {
		return nil, fmt.Errorf("workload: FromTrace needs procs > 0, got %d", procs)
	}
	w := &traceWorkload{name: name, refs: make([][]Ref, procs)}
	var n uint64
	for max <= 0 || n < max {
		r, ok := src.Next()
		if !ok {
			break
		}
		p := int(r.Pid) % procs
		w.refs[p] = append(w.refs[p], Ref{Addr: r.Addr, Write: r.Op == trace.Store})
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("workload: trace %q produced no records", name)
	}
	return w, nil
}

// traceWorkload is a materialized single-phase reference stream.
type traceWorkload struct {
	name string
	refs [][]Ref
}

func (w *traceWorkload) Name() string { return "trace:" + w.name }
func (w *traceWorkload) Procs() int   { return len(w.refs) }
func (w *traceWorkload) Phases() int  { return 1 }

func (w *traceWorkload) Refs(p, ph int, emit func(Ref)) {
	for _, r := range w.refs[p] {
		emit(r)
	}
}
