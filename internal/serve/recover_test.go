package serve

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// seedJournal fabricates the journal a crashed server would leave
// behind. Returns the canonical specs keyed by job ID.
func seedJournal(t *testing.T, dir string, recs []journalRecord) {
	t.Helper()
	j, _, _, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartResume is the durability contract end to end: a server
// opened over a crashed predecessor's journal and cache re-registers
// terminal jobs (results re-attached from cache), re-runs interrupted
// work, dedupes through the cache when the result survived the crash,
// fails orphaned transitions explicitly, and continues the ID sequence.
func TestRestartResume(t *testing.T) {
	journalDir := t.TempDir()
	cacheDir := t.TempDir()

	spec := spec1()
	if err := spec.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	specB := JobSpec{Apps: []string{"tc"}, Sizes: []int{512}}
	if err := specB.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	keyA, keyB := CacheKey(spec), CacheKey(specB)

	// Pre-crash cache state: keyA's payload survived, keyB's did not.
	payloadA := []byte(`{"v":1,"rows":["survived"]}`)
	{
		c, err := OpenCache(cacheDir, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put(keyA, payloadA); err != nil {
			t.Fatal(err)
		}
	}

	seedJournal(t, journalDir, []journalRecord{
		// j1: finished before the crash, result still cached.
		{Op: opSubmit, Job: "j000001", Tenant: "acme", Key: keyA, Spec: &spec},
		{Op: opStart, Job: "j000001", Tenant: "acme"},
		{Op: opFinish, Job: "j000001", Tenant: "acme", Key: keyA, State: StateDone},
		// j2: running at the crash, result never reached the cache —
		// must re-run.
		{Op: opSubmit, Job: "j000002", Tenant: "acme", Key: keyB, Spec: &specB},
		{Op: opStart, Job: "j000002", Tenant: "acme"},
		// j3: queued at the crash, but its key is already cached (same
		// spec as j1) — must finish instantly from cache, no re-run.
		{Op: opSubmit, Job: "j000003", Tenant: "beta", Key: keyA, Spec: &spec},
		// j4: submit record lost to corruption; only the start survived.
		{Op: opStart, Job: "j000004", Tenant: "acme"},
	})

	s := newTestServer(t, Config{
		Workers: 1, JournalDir: journalDir, CacheDir: cacheDir,
	}, instantSweep)
	rep := s.Recovery()
	if rep == nil {
		t.Fatal("no recovery report")
	}
	if rep.Jobs != 4 || rep.Terminal != 1 || rep.Requeued != 3 || rep.OrphanTransitions != 1 {
		t.Fatalf("recovery report = %+v", rep)
	}

	// j1: terminal, result re-attached from cache.
	j1, ok := s.Get("j000001")
	if !ok {
		t.Fatal("j1 not re-registered")
	}
	if st := j1.Status(); st.State != StateDone || st.Tenant != "acme" {
		t.Fatalf("j1 = %+v", st)
	}
	j1.mu.Lock()
	r1 := j1.result
	j1.mu.Unlock()
	if !bytes.Equal(r1, payloadA) {
		t.Fatalf("j1 result = %s, want cached payload", r1)
	}

	// j3: deduped through the cache — done, cached, byte-identical,
	// without ever running.
	j3, ok := s.Get("j000003")
	if !ok {
		t.Fatal("j3 not re-registered")
	}
	select {
	case <-j3.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("j3 not finished")
	}
	if st := j3.Status(); st.State != StateDone || !st.Cached || st.Tenant != "beta" {
		t.Fatalf("j3 = %+v", st)
	}

	// j2: re-enqueued and re-run to completion by the new server.
	j2, ok := s.Get("j000002")
	if !ok {
		t.Fatal("j2 not re-registered")
	}
	select {
	case <-j2.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("j2 not re-run")
	}
	if st := j2.Status(); st.State != StateDone || st.Cached {
		t.Fatalf("j2 = %+v", st)
	}

	// j4: unrunnable (no spec) — failed explicitly, never dangling.
	j4, ok := s.Get("j000004")
	if !ok {
		t.Fatal("j4 not registered")
	}
	if st := j4.Status(); st.State != StateFailed || st.Error == nil || st.Error.Kind != KindInternal {
		t.Fatalf("j4 = %+v err=%+v", st, st.Error)
	}

	// The ID sequence continues past the recovered jobs.
	j5, je := s.Submit(JobSpec{Apps: []string{"fft"}, Sizes: []int{8}})
	if je != nil {
		t.Fatal(je)
	}
	if j5.ID != "j000005" {
		t.Fatalf("post-recovery ID = %s, want j000005", j5.ID)
	}
	<-j5.Done()

	// Per-tenant accounting folded the recovered jobs in.
	st := s.StatsSnapshot()
	if st.Tenants["acme"].Submitted != 3 || st.Tenants["beta"].Submitted != 1 {
		t.Fatalf("tenant stats = %+v", st.Tenants)
	}
}

// TestRestartResumeExactlyOnce closes the loop with CheckJournal: after
// recovery completes and the server drains, the journal shows every job
// terminal with exactly one finish record.
func TestRestartResumeExactlyOnce(t *testing.T) {
	journalDir := t.TempDir()
	spec := spec1()
	if err := spec.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	seedJournal(t, journalDir, []journalRecord{
		{Op: opSubmit, Job: "j000001", Key: CacheKey(spec), Spec: &spec},
		{Op: opStart, Job: "j000001"},
	})
	s, err := newServer(Config{Workers: 1, JournalDir: journalDir}, instantSweep)
	if err != nil {
		t.Fatal(err)
	}
	j, ok := s.Get("j000001")
	if !ok {
		t.Fatal("job not recovered")
	}
	<-j.Done()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	rep, err := CheckJournal(journalDir, true)
	if err != nil {
		t.Fatalf("CheckJournal: %v (report %+v)", err, rep)
	}
	if rep.Jobs != 1 || rep.DuplicateFinishes != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestRecoveryTornJournal: a journal with a torn tail still opens; the
// damage is quarantined and reported, never fatal.
func TestRecoveryTornJournal(t *testing.T) {
	journalDir := t.TempDir()
	spec := spec1()
	if err := spec.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	seedJournal(t, journalDir, []journalRecord{
		{Op: opSubmit, Job: "j000001", Key: CacheKey(spec), Spec: &spec},
		{Op: opStart, Job: "j000001"},
		{Op: opFinish, Job: "j000001", State: StateDone},
	})
	appendBytes(t, segPath(journalDir, 1), []byte{9, 0, 0, 0, 1, 2, 3}) // torn frame
	s := newTestServer(t, Config{Workers: 1, JournalDir: journalDir}, instantSweep)
	rep := s.Recovery()
	if rep == nil || rep.CorruptFrames != 1 || !rep.TruncatedTail {
		t.Fatalf("recovery = %+v", rep)
	}
	if _, ok := s.Get("j000001"); !ok {
		t.Fatal("job before the tear lost")
	}
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSlowClientHeaderTimeout: a client that dribbles its headers is
// disconnected by ReadHeaderTimeout instead of pinning a connection.
func TestSlowClientHeaderTimeout(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1}, instantSweep)
	srv := NewHTTPServer(s.Handler(), HTTPTimeouts{ReadHeader: 50 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln)
	defer srv.Close()

	// A well-behaved request completes.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fastReq := "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
	if _, err := conn.Write([]byte(fastReq)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	conn.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fast client got %d", resp.StatusCode)
	}

	// A slowloris client sends a partial request line and stalls: the
	// server must drop it shortly after the header timeout.
	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := slow.Write([]byte("GET /healthz HTTP/1.1\r\nHost:")); err != nil {
		t.Fatal(err)
	}
	slow.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := slow.Read(buf); err == nil {
		// Any bytes back (e.g. a 408) also mean the server cut us off.
		slow.SetReadDeadline(time.Now().Add(5 * time.Second))
		for err == nil {
			_, err = slow.Read(buf)
		}
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("slow client still connected 5s after the 50ms header timeout")
	}
}

func TestHTTPTimeoutDefaults(t *testing.T) {
	var tt HTTPTimeouts
	tt.fill()
	if tt.ReadHeader != 5*time.Second || tt.Read != time.Minute || tt.Idle != 2*time.Minute {
		t.Fatalf("defaults = %+v", tt)
	}
	neg := HTTPTimeouts{ReadHeader: -1, Read: -1, Idle: -1}
	neg.fill()
	if neg.ReadHeader != 0 || neg.Read != 0 || neg.Idle != 0 {
		t.Fatalf("negative (disabled) = %+v", neg)
	}
	srv := NewHTTPServer(http.NotFoundHandler(), HTTPTimeouts{})
	if srv.ReadHeaderTimeout != 5*time.Second || srv.MaxHeaderBytes != 1<<20 {
		t.Fatalf("server fields = %+v", srv)
	}
}

// TestEWMARetryAfter pins the estimator: never below 1s, capped at
// 60s, scaled by backlog over workers, and negative observations are
// clamped rather than driving the average negative.
func TestEWMARetryAfter(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2}, instantSweep)
	if got := s.retryAfter(); got != 1 {
		t.Fatalf("cold retryAfter = %d, want 1", got)
	}
	s.observe(4 * time.Second)
	if got := time.Duration(s.ewmaNS.Load()); got != 4*time.Second {
		t.Fatalf("first observation = %s, want 4s", got)
	}
	s.observe(8 * time.Second) // 4 + (8-4)/4 = 5s
	if got := time.Duration(s.ewmaNS.Load()); got != 5*time.Second {
		t.Fatalf("ewma = %s, want 5s", got)
	}
	// Empty queue: ceil(5s * 1 / 2 workers) = 3.
	if got := s.retryAfter(); got != 3 {
		t.Fatalf("retryAfter = %d, want 3", got)
	}
	// A pathological duration cannot push the estimate past the cap.
	s.ewmaNS.Store(int64(time.Hour))
	if got := s.retryAfter(); got != 60 {
		t.Fatalf("huge-ewma retryAfter = %d, want capped 60", got)
	}
	// Negative durations (clock weirdness) clamp to zero...
	s.ewmaNS.Store(0)
	s.observe(-time.Second)
	if got := s.ewmaNS.Load(); got != 0 {
		t.Fatalf("negative observation stored %d", got)
	}
	// ...and cannot drag an existing average below zero.
	s.observe(time.Second)
	for i := 0; i < 100; i++ {
		s.observe(-time.Minute)
	}
	if got := s.ewmaNS.Load(); got < 0 {
		t.Fatalf("ewma went negative: %d", got)
	}
	if got := s.retryAfter(); got < 1 || got > 60 {
		t.Fatalf("retryAfter = %d out of [1,60]", got)
	}
}

// TestRegistryEvictionKeepsLiveJobs: the MaxJobs bound evicts only
// terminal jobs (oldest first); live jobs are never dropped even when
// they alone exceed the bound.
func TestRegistryEvictionKeepsLiveJobs(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1, MaxJobs: 2, QueueDepth: 8}, blockingSweep(release))

	var live []*Job
	for i := 0; i < 3; i++ {
		j, je := s.Submit(JobSpec{Apps: []string{"fft"}, Sizes: []int{4 << i}})
		if je != nil {
			t.Fatal(je)
		}
		live = append(live, j)
	}
	// 3 live jobs > MaxJobs=2: all must still be registered.
	for _, j := range live {
		if _, ok := s.Get(j.ID); !ok {
			t.Fatalf("live job %s evicted", j.ID)
		}
	}
	close(release)
	for _, j := range live {
		select {
		case <-j.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("job %s never finished", j.ID)
		}
	}
	// New submissions evict the oldest terminal jobs down to the bound.
	j4, je := s.Submit(JobSpec{Apps: []string{"fft"}, Sizes: []int{128}})
	if je != nil {
		t.Fatal(je)
	}
	<-j4.Done()
	if _, ok := s.Get(live[0].ID); ok {
		t.Fatal("oldest terminal job not evicted")
	}
	if _, ok := s.Get(j4.ID); !ok {
		t.Fatal("newest job evicted")
	}
	if n := len(s.List()); n > 2 {
		t.Fatalf("registry holds %d jobs, bound 2", n)
	}
}
