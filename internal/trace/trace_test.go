package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestRecRoundTrip(t *testing.T) {
	f := func(pid uint8, op bool, addr uint64) bool {
		r := Rec{Pid: pid, Addr: addr & ((1 << 48) - 1)}
		if op {
			r.Op = Store
		}
		return unpack(r.pack()) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriterReader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := []Rec{
		{Pid: 0, Op: Load, Addr: 0x1000},
		{Pid: 15, Op: Store, Addr: 0xFFFFFFFFF},
		{Pid: 7, Op: Load, Addr: 0},
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Fatalf("count = %d", w.Count())
	}
	r := NewReader(&buf)
	for i, want := range recs {
		got, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestTruncatedTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(Rec{Addr: 0x40})
	w.Flush()
	trunc := buf.Bytes()[:5]
	r := NewReader(bytes.NewReader(trunc))
	if _, err := r.Read(); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestReaderSource(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(Rec{Pid: 3, Addr: 0x40})
	w.Flush()
	s := ReaderSource{R: NewReader(&buf)}
	rec, ok := s.Next()
	if !ok || rec.Pid != 3 {
		t.Fatalf("source = %+v %v", rec, ok)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("source did not end")
	}
}

func TestSynthDeterminism(t *testing.T) {
	a := NewSynth(TPCC(1000))
	b := NewSynth(TPCC(1000))
	for i := 0; i < 1000; i++ {
		ra, oka := a.Next()
		rb, okb := b.Next()
		if oka != okb || ra != rb {
			t.Fatalf("diverged at %d: %+v vs %+v", i, ra, rb)
		}
	}
	if _, ok := a.Next(); ok {
		t.Fatal("generator did not stop at Refs")
	}
}

func TestSynthShape(t *testing.T) {
	cfg := TPCC(200000)
	s := NewSynth(cfg)
	procs := map[uint8]int{}
	stores := 0
	blocks := map[uint64]bool{}
	n := 0
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		n++
		procs[r.Pid]++
		if r.Op == Store {
			stores++
		}
		blocks[r.Addr&^31] = true
		if r.Addr >= 1<<48 {
			t.Fatalf("address out of packable range: %#x", r.Addr)
		}
	}
	if n != 200000 {
		t.Fatalf("emitted %d", n)
	}
	if len(procs) != 16 {
		t.Fatalf("procs covered = %d", len(procs))
	}
	// Round-robin: perfectly balanced.
	for p, c := range procs {
		if c != n/16 {
			t.Fatalf("proc %d issued %d of %d", p, c, n)
		}
	}
	if stores == 0 || stores > n/2 {
		t.Fatalf("stores = %d of %d", stores, n)
	}
	if len(blocks) < 1000 {
		t.Fatalf("too few distinct blocks: %d", len(blocks))
	}
}

func TestSynthRegionsDisjoint(t *testing.T) {
	s := NewSynth(TPCC(1))
	if s.hotBase <= uint64(s.cfg.Procs*s.cfg.PrivateBlocksPerProc-1)*32 {
		t.Fatal("hot region overlaps private")
	}
	if s.cleanBase < s.hotBase+uint64(s.cfg.HotBlocks)*32 {
		t.Fatal("clean region overlaps hot")
	}
}

func TestReaderReportsTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Rec{Pid: 1, Op: Load, Addr: 0x40}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Chop the record mid-way: a truncated file.
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()-3])
	r := NewReader(trunc)
	_, err := r.Read()
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated read error = %v", err)
	}
}

func TestReaderSourceRetainsStreamError(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 3; i++ {
		if err := w.Write(Rec{Pid: 1, Op: Load, Addr: uint64(i) * 32}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Clean stream: Err is nil after draining.
	clean := &ReaderSource{R: NewReader(bytes.NewReader(buf.Bytes()))}
	n := 0
	for {
		if _, ok := clean.Next(); !ok {
			break
		}
		n++
	}
	if n != 3 || clean.Err() != nil {
		t.Fatalf("clean stream: n=%d err=%v", n, clean.Err())
	}
	// Truncated stream: iteration stops AND the corruption is visible.
	cut := &ReaderSource{R: NewReader(bytes.NewReader(buf.Bytes()[:buf.Len()-5]))}
	n = 0
	for {
		if _, ok := cut.Next(); !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("truncated stream yielded %d records, want 2", n)
	}
	if cut.Err() == nil || !strings.Contains(cut.Err().Error(), "truncated") {
		t.Fatalf("truncation not retained: %v", cut.Err())
	}
}

// TestReaderSourceRejectsUnknownProcessor: a trace file is outside
// input, so a record naming a processor the machine lacks must end the
// stream with an error that names the record, not reach a simulator
// that indexes its per-processor state by the ID.
func TestReaderSourceRejectsUnknownProcessor(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, pid := range []uint8{15, 20, 3} {
		if err := w.Write(Rec{Pid: pid, Op: Load, Addr: 0x40}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	s := &ReaderSource{R: NewReader(&buf), Procs: 16}
	if rec, ok := s.Next(); !ok || rec.Pid != 15 {
		t.Fatalf("first record = %+v %v, want P15", rec, ok)
	}
	if rec, ok := s.Next(); ok {
		t.Fatalf("record naming P20 of 16 returned: %+v", rec)
	}
	if err := s.Err(); err == nil || !strings.Contains(err.Error(), "record 1 ") || !strings.Contains(err.Error(), "processor 20") {
		t.Fatalf("Err() = %v, want one naming record 1 and processor 20", err)
	}
}

// TestSynthStreamPinned pins the first 1M records of the TPC-C and
// TPC-D generators to a SHA-256 of their binary trace encoding, so a
// change to any draw (the RNG, the Zipf sampler, the reference mix)
// fails here directly rather than through a simulated statistic.
func TestSynthStreamPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  SynthConfig
		want string
	}{
		{"tpcc", TPCC(1_000_000), "482548d74ac016ee5c8884c8e836cfbb591443be5e0a8772d8fb684d4322a7e7"},
		{"tpcd", TPCD(1_000_000), "8063269adaa5e5d902479792e5a8000eab90a0742e57b94ee14ea9ae9d6d6d07"},
	} {
		h := sha256.New()
		w := NewWriter(h)
		src := NewSynth(c.cfg)
		for {
			rec, ok := src.Next()
			if !ok {
				break
			}
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if w.Count() != c.cfg.Refs {
			t.Fatalf("%s: %d records, want %d", c.name, w.Count(), c.cfg.Refs)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: sha256 of the first %d records = %s, want %s", c.name, c.cfg.Refs, got, c.want)
		}
	}
}
