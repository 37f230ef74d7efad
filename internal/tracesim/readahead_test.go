package tracesim

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dresar/internal/trace"
)

// TestRunBatchEdges: Run hands the simulation the same records in the
// same order as the source yields them, at every length around a
// read-ahead batch boundary, so its Stats and block profile equal those
// of feeding the records to step one at a time.
func TestRunBatchEdges(t *testing.T) {
	cfg := DefaultConfig().WithSDir(4)
	cfg.CacheBytes = 2048
	for _, n := range []int{0, 1, readAheadBatch - 1, readAheadBatch, readAheadBatch + 1, 3*readAheadBatch + 5} {
		recs := randomRecs(n, 16, uint64(n)+1)
		ref := MustNew(cfg)
		for _, rec := range recs {
			ref.step(rec)
		}
		for _, c := range ref.clocks {
			ref.Stats.ExecCycles = max(ref.Stats.ExecCycles, c)
		}
		s := MustNew(cfg)
		if st := s.Run(&script{recs: recs}); st != ref.Stats {
			t.Errorf("%d records: Run stats\n %+v\nstepped one by one\n %+v", n, st, ref.Stats)
		}
		gotMiss, gotCtoC := s.Profile.Totals()
		wantMiss, wantCtoC := ref.Profile.Totals()
		if s.Profile.Len() != ref.Profile.Len() || gotMiss != wantMiss || gotCtoC != wantCtoC {
			t.Errorf("%d records: profile %d blocks, %d misses, %d CtoCs; stepped one by one %d, %d, %d",
				n, s.Profile.Len(), gotMiss, gotCtoC, ref.Profile.Len(), wantMiss, wantCtoC)
		}
	}
}

// hooked is a source that calls at before it yields record n.
type hooked struct {
	script
	n  int
	at func()
}

func (h *hooked) Next() (trace.Rec, bool) {
	if h.i == h.n {
		h.at()
	}
	return h.script.Next()
}

// watched counts the calls to its source's Next made after the test
// marked Run as returned.
type watched struct {
	trace.Source
	returned atomic.Bool
	late     atomic.Int64
}

func (w *watched) Next() (trace.Rec, bool) {
	if w.returned.Load() {
		w.late.Add(1)
	}
	return w.Source.Next()
}

// goroutinesBackTo reports whether the goroutine count is back to n.
// A reader that has just closed its channel is counted until it has
// finished returning, a few instructions later, but its thread may be
// descheduled in between on a loaded host; so the check polls for up
// to a second. A reader that Run left blocked never returns.
func goroutinesBackTo(n int) bool {
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); runtime.Gosched() {
		if runtime.NumGoroutine() <= n {
			return true
		}
	}
	return false
}

// TestRunJoinsReader: Run returns only after its reader goroutine has
// exited, whether the trace ends, the Stop probe trips, src.Next
// panics (Run raises the same value again, once the records before it
// are simulated) or step panics on a record that names a processor the
// machine lacks. So the goroutine count falls back, and the source is
// never called after Run returns.
func TestRunJoinsReader(t *testing.T) {
	recs := randomRecs(6*readAheadBatch, 16, 7)
	nextPanic := &struct{ msg string }{"record 5000"}
	badPid := append(randomRecs(5000, 16, 8), trace.Rec{Pid: 200, Addr: 0x40})
	badPid = append(badPid, randomRecs(3*readAheadBatch, 16, 9)...)
	// The probe trips while the reader waits inside Next, partway
	// through the second batch, so the reader still has records to
	// read when Run decides to return.
	gate := make(chan struct{})
	stop := func() bool { close(gate); return true }
	cases := []struct {
		name   string
		src    trace.Source
		stop   func() bool
		panics bool
		value  any    // when not nil, the value Run must panic with
		refs   uint64 // when not 0, the records Run must have simulated
	}{
		{name: "end", src: &script{recs: recs}, refs: uint64(len(recs))},
		{name: "stop", src: &hooked{script: script{recs: recs}, n: readAheadBatch + 10, at: func() { <-gate }}, stop: stop, refs: stopPollRefs},
		{name: "next panics", src: &hooked{script: script{recs: recs}, n: 5000, at: func() { panic(nextPanic) }}, panics: true, value: nextPanic, refs: 5000},
		{name: "step panics", src: &script{recs: badPid}, panics: true},
	}
	for _, c := range cases {
		s := MustNew(DefaultConfig().WithSDir(1024))
		s.Stop = c.stop
		src := &watched{Source: c.src}
		before := runtime.NumGoroutine()
		var got any
		func() {
			defer func() { got = recover() }()
			defer src.returned.Store(true)
			s.Run(src)
		}()
		if !goroutinesBackTo(before) {
			t.Errorf("%s: %d goroutines after Run, %d before", c.name, runtime.NumGoroutine(), before)
		}
		if n := src.late.Load(); n != 0 {
			t.Errorf("%s: src.Next called %d times after Run returned", c.name, n)
		}
		if (got != nil) != c.panics || (c.value != nil && got != c.value) {
			t.Errorf("%s: Run panicked with %v, want a panic %v (value %v)", c.name, got, c.panics, c.value)
		}
		if c.refs != 0 && s.Stats.Refs != c.refs {
			t.Errorf("%s: simulated %d records, want %d", c.name, s.Stats.Refs, c.refs)
		}
		if s.Stopped() != (c.stop != nil) {
			t.Errorf("%s: Stopped() = %v", c.name, s.Stopped())
		}
	}
}

// TestRunReaderSourceErr: a file trace of n good records and a
// truncated one simulates exactly the n, and the source's error, which
// the reader goroutine set, is safe to read as soon as Run returns.
func TestRunReaderSourceErr(t *testing.T) {
	const n = 2*readAheadBatch + 17
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, rec := range randomRecs(n, 16, 3) {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	buf.Write([]byte{1, 2, 3}) // a record cut short
	src := &trace.ReaderSource{R: trace.NewReader(&buf), Procs: 16}
	st := MustNew(DefaultConfig()).Run(src)
	if st.Refs != n {
		t.Errorf("simulated %d records, want %d", st.Refs, n)
	}
	if src.Err() == nil {
		t.Error("Err() = nil after a truncated record")
	}
}
