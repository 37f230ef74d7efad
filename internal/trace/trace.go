// Package trace provides the commercial-workload side of the
// evaluation: a compact binary memory-reference trace format (standing
// in for the IBM COMPASS traces of TPC-C and TPC-D the paper used) and
// synthetic generators calibrated to the paper's published trace
// statistics — see DESIGN.md substitution 2. The traces feed the
// trace-driven simulator in package tracesim.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Op is a memory operation.
type Op uint8

const (
	// Load is a read reference.
	Load Op = iota
	// Store is a write reference.
	Store
)

func (o Op) String() string {
	switch o {
	case Load:
		return "load"
	case Store:
		return "store"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Rec is one trace record: processor pid performs Op at Addr.
type Rec struct {
	Pid  uint8
	Op   Op
	Addr uint64
}

// pack lays a record into 8 bytes: 48-bit address, 8-bit pid, 8-bit op.
func (r Rec) pack() uint64 {
	return (r.Addr & ((1 << 48) - 1)) | uint64(r.Pid)<<48 | uint64(r.Op)<<56
}

func unpack(v uint64) Rec {
	return Rec{
		Addr: v & ((1 << 48) - 1),
		Pid:  uint8(v >> 48),
		Op:   Op(v >> 56),
	}
}

// Writer streams records to w in the binary format.
type Writer struct {
	bw  *bufio.Writer
	buf [8]byte
	n   uint64
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{bw: bufio.NewWriterSize(w, 1<<16)} }

// Write appends one record.
func (w *Writer) Write(r Rec) error {
	binary.LittleEndian.PutUint64(w.buf[:], r.pack())
	if _, err := w.bw.Write(w.buf[:]); err != nil {
		return err
	}
	w.n++
	return nil
}

// Count reports records written.
func (w *Writer) Count() uint64 { return w.n }

// Flush drains buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Reader streams records from r.
type Reader struct {
	br  *bufio.Reader
	buf [8]byte
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{br: bufio.NewReaderSize(r, 1<<16)} }

// Read returns the next record; io.EOF at end.
func (r *Reader) Read() (Rec, error) {
	if _, err := io.ReadFull(r.br, r.buf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Rec{}, fmt.Errorf("trace: truncated record: %w", err)
		}
		return Rec{}, err
	}
	return unpack(binary.LittleEndian.Uint64(r.buf[:])), nil
}

// Source yields records one at a time; Next reports false at end of
// trace. Both *Synth and file readers satisfy it.
type Source interface {
	Next() (Rec, bool)
}

// ReaderSource adapts a Reader into a Source, stopping at end of
// stream. A malformed stream also stops iteration, but the error is
// retained: callers that care about corruption (the CLI tools) must
// check Err after the stream ends.
type ReaderSource struct {
	R *Reader
	// Procs, when positive, is the processor count of the machine the
	// trace feeds: a record naming processor Procs or above is
	// malformed and ends the stream.
	Procs int
	n     uint64 // records returned
	err   error
}

// Next implements Source.
func (s *ReaderSource) Next() (Rec, bool) {
	rec, err := s.R.Read()
	if err == nil && s.Procs > 0 && int(rec.Pid) >= s.Procs {
		err = fmt.Errorf("trace: record %d (byte %d) names processor %d; the machine has %d", s.n, 8*s.n, rec.Pid, s.Procs)
	}
	if err != nil {
		if err != io.EOF {
			s.err = err
		}
		return Rec{}, false
	}
	s.n++
	return rec, true
}

// Err returns the error that terminated the stream, nil for a clean
// end-of-trace.
func (s *ReaderSource) Err() error { return s.err }
