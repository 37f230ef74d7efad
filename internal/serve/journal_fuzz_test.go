package serve

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// frameRecord builds one valid journal frame around payload.
func frameRecord(payload []byte) []byte {
	frame := make([]byte, journalFrameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[journalFrameHeader:], payload)
	return frame
}

// FuzzJournalReplay feeds arbitrary bytes to the journal decoder as a
// segment file. The contract under fuzz: never panic, never error on
// mere corruption, and healing must be complete — after OpenJournal
// quarantines and truncates, a second replay of the same directory
// must be entirely clean, and replayed jobs must never carry more
// than the duplicate-finish count implies.
func FuzzJournalReplay(f *testing.F) {
	spec := JobSpec{Scale: "small", Apps: []string{"fft"}, Sizes: []int{0}}
	sub, _ := json.Marshal(journalRecord{V: 1, Op: opSubmit, Job: "j000001", Tenant: "t", Key: "k", Spec: &spec})
	fin, _ := json.Marshal(journalRecord{V: 1, Op: opFinish, Job: "j000001", State: StateDone})

	var clean []byte
	clean = append(clean, frameRecord(sub)...)
	clean = append(clean, frameRecord(fin)...)
	f.Add(clean)                                        // well-formed log
	f.Add(clean[:len(clean)-3])                         // torn tail
	f.Add(append(append([]byte{}, clean...), clean...)) // duplicated records
	flipped := append([]byte{}, clean...)
	flipped[len(flipped)/2] ^= 1
	f.Add(flipped)                         // bit flip
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})  // zero-length frame
	f.Add(frameRecord([]byte("not json"))) // framed garbage
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, jobs, report, err := OpenJournal(dir, 0)
		if err != nil {
			t.Fatalf("OpenJournal errored on corruption instead of quarantining: %v", err)
		}
		j.Close()
		for id, rj := range jobs {
			if id == "" {
				t.Fatal("replay produced a job with an empty ID")
			}
			if rj.State.Terminal() && rj.Finishes == 0 {
				t.Fatalf("job %s terminal with no finish record", id)
			}
		}
		if report.CorruptFrames > 0 {
			// Healing must have quarantined the unreadable suffix.
			q, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*.corrupt"))
			if len(q) == 0 {
				t.Fatalf("corrupt frames reported (%d) but nothing quarantined", report.CorruptFrames)
			}
		}
		// Second open: the heal was complete, so replay is clean and
		// reproduces the same job states.
		j2, jobs2, report2, err := OpenJournal(dir, 0)
		if err != nil {
			t.Fatalf("second OpenJournal: %v", err)
		}
		j2.Close()
		if report2.CorruptFrames != 0 {
			t.Fatalf("healed journal still corrupt on second replay: %+v", report2)
		}
		if len(jobs2) != len(jobs) {
			t.Fatalf("heal changed job count: %d -> %d", len(jobs), len(jobs2))
		}
		for id, rj := range jobs {
			rj2 := jobs2[id]
			if rj2 == nil || rj2.State != rj.State || rj2.Finishes != rj.Finishes {
				t.Fatalf("heal changed job %s: %+v -> %+v", id, rj, rj2)
			}
		}
	})
}
