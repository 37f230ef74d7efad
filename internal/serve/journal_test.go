package serve

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// appendRecords writes a submit/start/finish life for id into j.
func appendLife(t *testing.T, j *Journal, id, tenant string, state JobState) {
	t.Helper()
	spec := JobSpec{Scale: "small", Apps: []string{"fft"}, Sizes: []int{0}}
	for _, rec := range []journalRecord{
		{Op: opSubmit, Job: id, Tenant: tenant, Key: "k-" + id, Spec: &spec},
		{Op: opStart, Job: id, Tenant: tenant},
		{Op: opFinish, Job: id, Tenant: tenant, State: state},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, jobs, report, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 || report.Records != 0 {
		t.Fatalf("fresh journal replayed jobs=%d records=%d", len(jobs), report.Records)
	}
	appendLife(t, j, "j000001", "acme", StateDone)
	spec := JobSpec{Scale: "small", Apps: []string{"fft"}, Sizes: []int{0}}
	// An interrupted job: submit + start, no finish.
	for _, rec := range []journalRecord{
		{Op: opSubmit, Job: "j000002", Tenant: "beta", Key: "k2", Spec: &spec},
		{Op: opStart, Job: "j000002", Tenant: "beta"},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	_, jobs, report, err = OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if report.Records != 5 || report.CorruptFrames != 0 {
		t.Fatalf("report = %+v, want 5 clean records", report)
	}
	done := jobs["j000001"]
	if done == nil || done.State != StateDone || done.Tenant != "acme" || done.Key != "k-j000001" || done.Finishes != 1 || !done.HasSpec {
		t.Fatalf("done job = %+v", done)
	}
	run := jobs["j000002"]
	if run == nil || run.State != StateRunning || run.Tenant != "beta" || run.Finishes != 0 {
		t.Fatalf("interrupted job = %+v", run)
	}
	if report.Terminal != 1 || report.Requeued != 1 {
		t.Fatalf("report = %+v, want 1 terminal 1 requeued", report)
	}
}

func TestJournalTornTailQuarantinedAndHealed(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendLife(t, j, "j000001", "acme", StateDone)
	j.Close()

	// Simulate kill -9 mid-append: a partial frame at the tail.
	seg := segPath(dir, 1)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0x20, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'p', 'a', 'r'}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(seg)

	j2, jobs, report, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if report.Records != 3 || report.CorruptFrames != 1 || !report.TruncatedTail {
		t.Fatalf("report = %+v, want 3 records + 1 corrupt frame + truncated tail", report)
	}
	if report.QuarantinedBytes != int64(len(torn)) {
		t.Fatalf("quarantined %d bytes, want %d", report.QuarantinedBytes, len(torn))
	}
	if jobs["j000001"].State != StateDone {
		t.Fatalf("job lost to torn tail: %+v", jobs["j000001"])
	}
	// The tail landed in quarantine/ and the segment shrank.
	q, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*.corrupt"))
	if len(q) != 1 {
		t.Fatalf("quarantine holds %v", q)
	}
	qb, _ := os.ReadFile(q[0])
	if !bytes.Equal(qb, torn) {
		t.Fatalf("quarantined bytes differ: %x vs %x", qb, torn)
	}
	after, _ := os.Stat(seg)
	if after.Size() != before.Size()-int64(len(torn)) {
		t.Fatalf("segment not truncated: %d -> %d", before.Size(), after.Size())
	}
	// Appends resume cleanly from the healed tail.
	appendLife(t, j2, "j000002", "acme", StateDone)
	j2.Close()
	_, jobs, report, err = OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if report.CorruptFrames != 0 || len(jobs) != 2 {
		t.Fatalf("post-heal replay = %+v jobs=%d, want clean + 2 jobs", report, len(jobs))
	}
}

func TestJournalBitFlipMidSegment(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendLife(t, j, "j000001", "acme", StateDone)
	appendLife(t, j, "j000002", "acme", StateDone)
	j.Close()

	// Flip one payload byte in the middle of the segment: framing is
	// unrecoverable from there, so everything after quarantines.
	seg := segPath(dir, 1)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, jobs, report, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if report.CorruptFrames != 1 || report.QuarantinedBytes == 0 {
		t.Fatalf("report = %+v, want 1 corrupt frame", report)
	}
	// The prefix before the flip replays; nothing panics; any job that
	// survived must have consistent state.
	for id, rj := range jobs {
		if rj.Finishes > 1 {
			t.Fatalf("bit flip produced duplicate finishes for %s: %+v", id, rj)
		}
	}
}

func TestJournalSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := OpenJournal(dir, 256) // tiny segments force rotation
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		appendLife(t, j, fmtID(i), "acme", StateDone)
	}
	st := j.Stats()
	if st.Rotations == 0 || st.Segment < 2 {
		t.Fatalf("no rotation at 256-byte segments: %+v", st)
	}
	j.Close()
	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("segments on disk = %v, want >= 2", segs)
	}
	// Replay spans all segments.
	_, jobs, report, err := OpenJournal(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 || report.Terminal != 8 || report.CorruptFrames != 0 {
		t.Fatalf("cross-segment replay: jobs=%d report=%+v", len(jobs), report)
	}
}

func fmtID(n int) string {
	return string([]byte{'j', '0', '0', '0', '0', byte('0' + n/10), byte('0' + n%10)})
}

func TestJournalDuplicateRecordsIdempotent(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Scale: "small", Apps: []string{"fft"}, Sizes: []int{0}}
	recs := []journalRecord{
		{Op: opSubmit, Job: "j000001", Tenant: "acme", Key: "k1", Spec: &spec},
		{Op: opSubmit, Job: "j000001", Tenant: "acme", Key: "k1", Spec: &spec}, // dup submit
		{Op: opStart, Job: "j000001"},
		{Op: opFinish, Job: "j000001", State: StateDone},
		{Op: opFinish, Job: "j000001", State: StateFailed}, // dup finish, conflicting
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	_, jobs, report, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rj := jobs["j000001"]
	if rj.State != StateDone { // first terminal record wins
		t.Fatalf("state = %s, want done", rj.State)
	}
	if rj.Finishes != 2 || report.DuplicateFinishes != 1 {
		t.Fatalf("finishes=%d dup=%d, want 2/1", rj.Finishes, report.DuplicateFinishes)
	}
	// CheckJournal flags the exactly-once violation.
	if _, err := CheckJournal(dir, false); err == nil {
		t.Fatal("CheckJournal accepted duplicate finishes")
	}
}

func TestJournalCheck(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendLife(t, j, "j000001", "acme", StateDone)
	spec := JobSpec{Scale: "small", Apps: []string{"fft"}, Sizes: []int{0}}
	if err := j.Append(journalRecord{Op: opSubmit, Job: "j000002", Spec: &spec, Key: "k2"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := CheckJournal(dir, false); err != nil {
		t.Fatalf("CheckJournal: %v", err)
	}
	// With -require-terminal the unfinished job is an error.
	if _, err := CheckJournal(dir, true); err == nil {
		t.Fatal("CheckJournal(requireTerminal) accepted an unfinished job")
	}
}

func TestJournalOversizeRecordRejected(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	big := make([]int, 700000) // ~1.4 MB of JSON, over the 1 MiB record bound
	spec := JobSpec{Scale: "small", Apps: []string{"fft"}, Sizes: big}
	if err := j.Append(journalRecord{Op: opSubmit, Job: "j000001", Spec: &spec}); err == nil {
		t.Fatal("oversize record accepted")
	}
}

// TestJournalImplausibleLengthHeader pins the allocation guard: a
// frame whose length field claims gigabytes must be treated as
// corruption, not trusted.
func TestJournalImplausibleLengthHeader(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "quarantine"), 0o755); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, journalFrameHeader+4)
	binary.LittleEndian.PutUint32(frame[:4], 0xfffffff0)
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[8:]))
	if err := os.WriteFile(segPath(dir, 1), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	_, jobs, report, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 || report.CorruptFrames != 1 {
		t.Fatalf("implausible length: jobs=%d report=%+v", len(jobs), report)
	}
}
