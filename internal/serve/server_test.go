package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dresar/internal/core"
	"dresar/internal/figures"
	"dresar/internal/xbar"
)

// fakeResults builds a result map covering apps x sizes.
func fakeResults(apps []string, sizes []int) map[string]map[int]figures.Result {
	out := map[string]map[int]figures.Result{}
	for _, app := range apps {
		out[app] = map[int]figures.Result{}
		for _, n := range sizes {
			out[app][n] = figures.Result{App: app, Entries: n, Reads: 100, ReadMisses: 10}
		}
	}
	return out
}

// instantSweep completes immediately with fake results.
func instantSweep(ctx context.Context, scale figures.Scale, apps []string, sizes []int, workers int) (map[string]map[int]figures.Result, error) {
	return fakeResults(apps, sizes), nil
}

// blockingSweep waits for release (success) or ctx (typed abort, the
// same shape the engines produce).
func blockingSweep(release <-chan struct{}) sweepFunc {
	return func(ctx context.Context, scale figures.Scale, apps []string, sizes []int, workers int) (map[string]map[int]figures.Result, error) {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("fake sweep: %w", &core.AbortError{Now: 42, Pending: 7})
		case <-release:
			return fakeResults(apps, sizes), nil
		}
	}
}

// newTestServer builds a server with the fake sweep and joins it at
// test end.
func newTestServer(t *testing.T, cfg Config, sweep sweepFunc) *Server {
	t.Helper()
	s, err := newServer(cfg, sweep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// waitState polls until the job reaches state or the test deadline.
func waitState(t *testing.T, j *Job, state JobState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j.Status().State == state {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", j.ID, j.Status().State, state)
}

func spec1() JobSpec { return JobSpec{Apps: []string{"fft"}, Sizes: []int{0}} }

func TestSubmitBadSpec(t *testing.T) {
	s := newTestServer(t, Config{}, instantSweep)
	for _, spec := range []JobSpec{
		{},                      // no apps
		{Apps: []string{"fft"}}, // no sizes
		{Apps: []string{"nope"}, Sizes: []int{0}}, // unknown app
		{Scale: "huge", Apps: []string{"fft"}, Sizes: []int{0}},
		{Apps: []string{"fft"}, Sizes: []int{-1}}, // negative size
		{Apps: []string{"fft"}, Sizes: []int{0}, Workers: -1},
	} {
		if _, je := s.Submit(spec); je == nil || je.Kind != KindBadRequest {
			t.Errorf("Submit(%+v) error = %v, want bad_request", spec, je)
		}
	}
}

// TestSubmitChecksGeometry: a directory size that no cell can build is
// refused at submit with the geometry check's message, while the base
// system, the sweep's sizes and every size serve-mix submits as a cache
// miss (4·2^k entries, k ≤ 13) are admitted.
func TestSubmitChecksGeometry(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 64}, instantSweep)
	for _, c := range []struct {
		app  string
		size int
	}{{"fft", 768}, {"tpcc", 10}} {
		spec := JobSpec{Apps: []string{c.app}, Sizes: []int{c.size}}
		_, je := s.Submit(spec)
		if je == nil || je.Kind != KindBadRequest {
			t.Errorf("Submit(%+v) error = %v, want bad_request", spec, je)
			continue
		}
		if want := figures.CheckSizes([]int{c.size}).Error(); je.Message != want {
			t.Errorf("Submit(%+v) message %q, want %q", spec, je.Message, want)
		}
	}
	sizes := [][]int{{0, 1024}}
	for k := 0; k <= 13; k++ {
		sizes = append(sizes, []int{4 << k})
	}
	for _, sz := range sizes {
		spec := JobSpec{Apps: []string{"fft", "tpcc"}, Sizes: sz}
		j, je := s.Submit(spec)
		if je != nil {
			t.Errorf("Submit(%+v) refused: %v", spec, je)
			continue
		}
		<-j.Done()
	}
}

func TestSubmitRuns(t *testing.T) {
	s := newTestServer(t, Config{}, instantSweep)
	j, je := s.Submit(spec1())
	if je != nil {
		t.Fatal(je)
	}
	<-j.Done()
	st := j.Status()
	if st.State != StateDone || st.Cached || st.Error != nil {
		t.Fatalf("status = %+v", st)
	}
	j.mu.Lock()
	payload := j.result
	j.mu.Unlock()
	if !bytes.Contains(payload, []byte(`"app":"fft"`)) {
		t.Fatalf("payload %s missing result row", payload)
	}
}

func TestAdmissionShed(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1}, blockingSweep(release))
	defer close(release)

	j1, je := s.Submit(spec1())
	if je != nil {
		t.Fatal(je)
	}
	waitState(t, j1, StateRunning) // worker is occupied
	j2, je := s.Submit(spec1())
	if je != nil {
		t.Fatal(je) // fills the queue
	}
	_, je = s.Submit(spec1())
	if je == nil || je.Kind != KindOverloaded {
		t.Fatalf("third submit = %v, want overloaded", je)
	}
	if je.RetryAfterS < 1 {
		t.Fatalf("Retry-After %d, want >= 1s", je.RetryAfterS)
	}
	_ = j2
}

func TestCancelQueued(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4}, blockingSweep(release))
	defer close(release)

	j1, _ := s.Submit(spec1())
	waitState(t, j1, StateRunning)
	j2, je := s.Submit(spec1())
	if je != nil {
		t.Fatal(je)
	}
	cj, ce := s.Cancel(j2.ID)
	if ce != nil {
		t.Fatal(ce)
	}
	st := cj.Status()
	if st.State != StateCanceled || st.Error == nil ||
		st.Error.Kind != KindAborted || st.Error.Reason != "canceled" {
		t.Fatalf("cancelled-while-queued status = %+v err = %+v", st, st.Error)
	}
	// Cancel is idempotent.
	if _, ce := s.Cancel(j2.ID); ce != nil {
		t.Fatalf("second cancel: %v", ce)
	}
}

func TestCancelRunning(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1}, blockingSweep(nil))
	j, _ := s.Submit(spec1())
	waitState(t, j, StateRunning)
	if _, ce := s.Cancel(j.ID); ce != nil {
		t.Fatal(ce)
	}
	<-j.Done()
	st := j.Status()
	if st.State != StateCanceled || st.Error == nil || st.Error.Kind != KindAborted {
		t.Fatalf("status = %+v err = %+v", st, st.Error)
	}
	if st.Error.Reason != "canceled" || st.Error.Cycle != 42 || st.Error.Pending != 7 {
		t.Fatalf("abort detail = %+v, want reason=canceled cycle=42 pending=7", st.Error)
	}
}

func TestCancelUnknown(t *testing.T) {
	s := newTestServer(t, Config{}, instantSweep)
	if _, ce := s.Cancel("j999999"); ce == nil || ce.Kind != KindNotFound {
		t.Fatalf("cancel unknown = %v, want not_found", ce)
	}
}

func TestDeadlineAbort(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1}, blockingSweep(nil))
	spec := spec1()
	spec.DeadlineMS = 20
	j, je := s.Submit(spec)
	if je != nil {
		t.Fatal(je)
	}
	<-j.Done()
	st := j.Status()
	if st.State != StateFailed || st.Error == nil ||
		st.Error.Kind != KindAborted || st.Error.Reason != "deadline" {
		t.Fatalf("deadline status = %+v err = %+v", st, st.Error)
	}
}

// TestTypedErrorClassification drives every engine failure shape
// through the server and checks the typed mapping — never a bare
// internal error for a known failure mode.
func TestTypedErrorClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		kind string
		chk  func(t *testing.T, je *JobError)
	}{
		{"stall", fmt.Errorf("wrap: %w", &core.StallError{Now: 900, SinceProgress: 512, Pending: 3, Report: "stuck\ndetail"}), KindStall,
			func(t *testing.T, je *JobError) {
				if je.Cycle != 900 || je.SinceProgress != 512 || je.Pending != 3 {
					t.Errorf("stall detail = %+v", je)
				}
			}},
		{"unroutable", fmt.Errorf("wrap: %w", &xbar.UnroutableError{At: 77}), KindUnroutable,
			func(t *testing.T, je *JobError) {
				if je.Cycle != 77 {
					t.Errorf("cycle = %d, want 77", je.Cycle)
				}
			}},
		{"cell panic", fmt.Errorf("wrap: %w", &figures.CellPanic{App: "fft", Entries: 512, Value: "nil deref", Stack: "stack"}), KindPanic,
			func(t *testing.T, je *JobError) {}},
		{"unknown", errors.New("mystery\nsecond line"), KindInternal,
			func(t *testing.T, je *JobError) {
				if je.Message != "mystery" {
					t.Errorf("message %q not truncated to first line", je.Message)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			failErr := tc.err
			s := newTestServer(t, Config{Workers: 1}, func(ctx context.Context, scale figures.Scale, apps []string, sizes []int, workers int) (map[string]map[int]figures.Result, error) {
				return nil, failErr
			})
			j, je := s.Submit(spec1())
			if je != nil {
				t.Fatal(je)
			}
			<-j.Done()
			st := j.Status()
			if st.State != StateFailed || st.Error == nil || st.Error.Kind != tc.kind {
				t.Fatalf("status = %+v err = %+v, want failed/%s", st, st.Error, tc.kind)
			}
			tc.chk(t, st.Error)
		})
	}
}

func TestShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	s, err := newServer(Config{Workers: 1}, blockingSweep(release))
	if err != nil {
		t.Fatal(err)
	}
	j, je := s.Submit(spec1())
	if je != nil {
		t.Fatal(je)
	}
	waitState(t, j, StateRunning)
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	// Draining servers refuse new work immediately...
	deadline := time.Now().Add(2 * time.Second)
	for !s.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, je := s.Submit(spec1()); je == nil || je.Kind != KindDraining {
		t.Fatalf("submit during drain = %v, want draining", je)
	}
	// ...but the in-flight job completes normally.
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("drained job = %+v", st)
	}
}

func TestShutdownForcesStragglers(t *testing.T) {
	s, err := newServer(Config{Workers: 1}, blockingSweep(nil)) // only a ctx cancel releases it
	if err != nil {
		t.Fatal(err)
	}
	j, je := s.Submit(spec1())
	if je != nil {
		t.Fatal(je)
	}
	waitState(t, j, StateRunning)
	// An already-expired drain deadline forces immediate cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	st := j.Status()
	if st.State != StateCanceled || st.Error == nil || st.Error.Kind != KindAborted {
		t.Fatalf("forced job = %+v err = %+v", st, st.Error)
	}
}

// TestCacheHitServesByteIdenticalResult is the cache contract end to
// end: same canonical spec, second submit is served from disk, bytes
// equal, no second simulation.
func TestCacheHitServesByteIdenticalResult(t *testing.T) {
	var runs atomic.Int64
	s := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir()},
		func(ctx context.Context, scale figures.Scale, apps []string, sizes []int, workers int) (map[string]map[int]figures.Result, error) {
			runs.Add(1)
			return fakeResults(apps, sizes), nil
		})
	j1, je := s.Submit(JobSpec{Apps: []string{"tc", "fft"}, Sizes: []int{512, 0}})
	if je != nil {
		t.Fatal(je)
	}
	<-j1.Done()
	if st := j1.Status(); st.State != StateDone || st.Cached {
		t.Fatalf("first run = %+v", st)
	}
	// Different order, extra duplicates, different wall-clock knobs:
	// canonically the same job.
	j2, je := s.Submit(JobSpec{Apps: []string{"fft", "tc", "tc"}, Sizes: []int{0, 512}, Workers: 3, DeadlineMS: 60000})
	if je != nil {
		t.Fatal(je)
	}
	<-j2.Done()
	st := j2.Status()
	if st.State != StateDone || !st.Cached {
		t.Fatalf("second run not a cache hit: %+v", st)
	}
	j1.mu.Lock()
	p1 := j1.result
	j1.mu.Unlock()
	j2.mu.Lock()
	p2 := j2.result
	j2.mu.Unlock()
	if !bytes.Equal(p1, p2) {
		t.Fatalf("cache hit not byte-identical:\n%s\n%s", p1, p2)
	}
	if runs.Load() != 1 {
		t.Fatalf("sweep ran %d times, want 1", runs.Load())
	}
	if cs := s.CacheStats(); cs.Hits != 1 || cs.Writes != 1 {
		t.Fatalf("cache stats = %+v", cs)
	}
}

// TestHTTPAPI walks the wire protocol through a real listener with the
// retrying client.
func TestHTTPAPI(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir()}, blockingSweep(release))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL, MaxRetries: 2}
	ctx := context.Background()

	st, err := c.Submit(ctx, spec1())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("submitted state = %s", st.State)
	}
	// Result before completion: 409 not_ready.
	if _, err := c.Result(ctx, st.ID); err == nil {
		t.Fatal("result of running job succeeded")
	} else if je, ok := err.(*JobError); !ok || je.Kind != KindNotReady {
		t.Fatalf("result of running job = %v, want not_ready", err)
	}
	close(release)
	fin, err := c.Wait(ctx, st.ID, time.Millisecond)
	if err != nil || fin.State != StateDone {
		t.Fatalf("Wait = %+v, %v", fin, err)
	}
	payload, err := c.Result(ctx, st.ID)
	if err != nil || !bytes.Contains(payload, []byte(`"rows"`)) {
		t.Fatalf("Result = %s, %v", payload, err)
	}

	// Unknown job: typed 404 on every endpoint.
	if _, err := c.Status(ctx, "j999999"); err == nil {
		t.Fatal("status of unknown job succeeded")
	} else if je, ok := err.(*JobError); !ok || je.Kind != KindNotFound {
		t.Fatalf("unknown status err = %v", err)
	}
	if _, err := c.Cancel(ctx, "j999999"); err == nil {
		t.Fatal("cancel of unknown job succeeded")
	}

	// Malformed JSON: typed 400.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(`{"apps": 3`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed submit = %d", resp.StatusCode)
	}

	// Liveness and readiness.
	for _, ep := range []string{"/healthz", "/readyz", "/v1/metrics"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", ep, resp.StatusCode)
		}
	}
}

// TestClientRetriesOverload: a server that sheds twice then accepts
// must be survivable with backoff; a 400 must not be retried.
func TestClientRetriesOverload(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, apiError{&JobError{Kind: KindOverloaded, Message: "full", RetryAfterS: 0}})
			return
		}
		writeJSON(w, http.StatusAccepted, JobStatus{ID: "j1", State: StateQueued})
	})
	var badCalls atomic.Int64
	mux.HandleFunc("GET /v1/jobs/bad", func(w http.ResponseWriter, r *http.Request) {
		badCalls.Add(1)
		writeError(w, &JobError{Kind: KindBadRequest, Message: "nope"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := &Client{Base: ts.URL, MaxRetries: 4, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}
	st, err := c.Submit(context.Background(), spec1())
	if err != nil || st.ID != "j1" {
		t.Fatalf("Submit = %+v, %v", st, err)
	}
	if calls.Load() != 3 {
		t.Fatalf("submit attempts = %d, want 3", calls.Load())
	}
	if _, err := c.Status(context.Background(), "bad"); err == nil {
		t.Fatal("bad request succeeded")
	}
	if badCalls.Load() != 1 {
		t.Fatalf("400 retried: %d calls", badCalls.Load())
	}
}

// TestResultPayloadCanonical: the payload is independent of map
// iteration order and of wall-clock knobs in the spec.
func TestResultPayloadCanonical(t *testing.T) {
	spec := JobSpec{Scale: "small", Apps: []string{"fft", "tc"}, Sizes: []int{0, 512}, Workers: 5, DeadlineMS: 1234}
	res := fakeResults(spec.Apps, spec.Sizes)
	p1, err := resultPayload(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p2, err := resultPayload(spec, res)
		if err != nil || !bytes.Equal(p1, p2) {
			t.Fatalf("payload not deterministic (iteration %d)", i)
		}
	}
	if bytes.Contains(p1, []byte(`"workers"`)) || bytes.Contains(p1, []byte(`"deadline_ms"`)) {
		t.Fatalf("wall-clock knobs leaked into payload: %s", p1)
	}
	// A sweep missing a requested cell is an internal error, not a
	// silently short document.
	delete(res["fft"], 512)
	if _, err := resultPayload(spec, res); err == nil {
		t.Fatal("missing cell accepted")
	}
}
