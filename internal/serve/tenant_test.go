package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dresar/internal/figures"
)

func TestValidTenant(t *testing.T) {
	for _, ok := range []string{"default", "acme", "Team-B.9", "a_b"} {
		if err := validTenant(ok); err != nil {
			t.Errorf("validTenant(%q) = %v", ok, err)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "has space", "semi;colon", "sl/ash", string(long)} {
		if err := validTenant(bad); err == nil {
			t.Errorf("validTenant(%q) accepted", bad)
		}
	}
}

func TestTokenBucket(t *testing.T) {
	b := tokenBucket{rate: 10, burst: 2}
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := b.take(now); !ok {
			t.Fatalf("burst token %d denied", i)
		}
	}
	ok, wait := b.take(now)
	if ok {
		t.Fatal("third immediate take allowed past burst")
	}
	if wait <= 0 || wait > 100*time.Millisecond {
		t.Fatalf("wait = %s, want ~1/rate", wait)
	}
	// After 100ms one token has accrued.
	if ok, _ := b.take(now.Add(100 * time.Millisecond)); !ok {
		t.Fatal("token not refilled after 1/rate")
	}
	// Unlimited bucket never blocks.
	u := tokenBucket{}
	for i := 0; i < 1000; i++ {
		if ok, _ := u.take(now); !ok {
			t.Fatal("unlimited bucket denied")
		}
	}
}

// TestTenantQuotaThrottles: a tenant over its admission rate is shed
// with the typed quota error and a Retry-After, while another tenant
// is untouched.
func TestTenantQuotaThrottles(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:    1,
		TenantRate: 0.5, TenantBurst: 2, // 2 immediate, then ~2s/token
	}, instantSweep)
	for i := 0; i < 2; i++ {
		if _, je := s.SubmitAs("flood", spec1()); je != nil {
			t.Fatalf("burst submit %d: %v", i, je)
		}
	}
	_, je := s.SubmitAs("flood", spec1())
	if je == nil || je.Kind != KindQuota {
		t.Fatalf("over-rate submit = %v, want quota", je)
	}
	if je.RetryAfterS < 1 {
		t.Fatalf("quota Retry-After = %d, want >= 1", je.RetryAfterS)
	}
	// The flood's bucket is not the other tenant's problem.
	if _, je := s.SubmitAs("calm", spec1()); je != nil {
		t.Fatalf("other tenant throttled by flood: %v", je)
	}
	st := s.StatsSnapshot()
	if st.Tenants["flood"].Throttled != 1 {
		t.Fatalf("flood stats = %+v, want throttled=1", st.Tenants["flood"])
	}
}

// TestTenantQueueIsolation: one tenant filling its sub-queue is shed,
// the other still has its full depth available.
func TestTenantQueueIsolation(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2}, blockingSweep(release))
	defer close(release)

	j, _ := s.Submit(spec1()) // occupies the worker (default tenant)
	waitState(t, j, StateRunning)
	for i := 0; i < 2; i++ {
		if _, je := s.SubmitAs("flood", spec1()); je != nil {
			t.Fatalf("flood submit %d: %v", i, je)
		}
	}
	_, je := s.SubmitAs("flood", spec1())
	if je == nil || je.Kind != KindOverloaded {
		t.Fatalf("flood overflow = %v, want overloaded", je)
	}
	// Tenant B's queue is empty; its submits are admitted.
	for i := 0; i < 2; i++ {
		if _, je := s.SubmitAs("calm", spec1()); je != nil {
			t.Fatalf("calm submit %d shed by flood: %v", i, je)
		}
	}
	st := s.StatsSnapshot()
	if st.Tenants["flood"].Shed != 1 || st.Tenants["flood"].Queued != 2 || st.Tenants["calm"].Queued != 2 {
		t.Fatalf("stats = flood %+v calm %+v", st.Tenants["flood"], st.Tenants["calm"])
	}
}

// TestWeightedFairDispatch is the fairness acceptance test: tenant A
// floods the queue, tenant B trickles in behind it, and dispatch must
// interleave by weight rather than drain A first. With equal weights,
// each of B's jobs starts within two dispatches of its neighbors; with
// weight 2:1 the flood gets two starts per B start.
func TestWeightedFairDispatch(t *testing.T) {
	step := make(chan struct{})
	sweep := func(ctx context.Context, scale figures.Scale, apps []string, sizes []int, workers int) (map[string]map[int]figures.Result, error) {
		<-step // each job blocks until the test releases it
		return fakeResults(apps, sizes), nil
	}
	s, err := newServer(Config{
		Workers: 1, QueueDepth: 64,
		Tenants: map[string]TenantConfig{"flood": {Weight: 2}, "calm": {Weight: 1}},
	}, sweep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(step)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	var jobs []*Job
	hold, _ := s.Submit(spec1()) // occupy the worker so both queues back up
	waitState(t, hold, StateRunning)
	for i := 0; i < 6; i++ {
		j, je := s.SubmitAs("flood", JobSpec{Apps: []string{"fft"}, Sizes: []int{4 << i}})
		if je != nil {
			t.Fatal(je)
		}
		jobs = append(jobs, j)
	}
	for i := 0; i < 3; i++ {
		j, je := s.SubmitAs("calm", JobSpec{Apps: []string{"tc"}, Sizes: []int{4 << i}})
		if je != nil {
			t.Fatal(je)
		}
		jobs = append(jobs, j)
	}
	// Release jobs one at a time, recording which tenant starts next.
	// With one worker only one job runs at a time, so the first
	// not-yet-recorded running job is the next dispatch.
	recorded := map[string]bool{}
	var startOrder []string
	record := func() bool {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			for _, j := range jobs {
				if !recorded[j.ID] && j.Status().State == StateRunning {
					recorded[j.ID] = true
					startOrder = append(startOrder, j.Tenant)
					return true
				}
			}
			time.Sleep(time.Millisecond)
		}
		t.Errorf("no new job started; order so far %v", startOrder)
		return false
	}
	step <- struct{}{} // finish the holder
	for i := 0; i < 9; i++ {
		if !record() {
			t.FailNow()
		}
		step <- struct{}{} // let the recorded job finish
	}
	if len(startOrder) != 9 {
		t.Fatalf("recorded %d starts, want 9: %v", len(startOrder), startOrder)
	}
	// Weight 2:1 smooth WRR over backlogged queues dispatches
	// flood,flood,calm repeating — calm's first job starts by the
	// third dispatch even though flood queued 6 jobs first.
	firstCalm := -1
	for i, tn := range startOrder {
		if tn == "calm" {
			firstCalm = i
			break
		}
	}
	if firstCalm < 0 || firstCalm > 2 {
		t.Fatalf("calm first start at %d in %v, want within the first 3", firstCalm, startOrder)
	}
	// Every calm job is dispatched within its weighted share: after
	// any prefix with k calm starts, flood has at most 2k+2 starts.
	flood, calm := 0, 0
	for _, tn := range startOrder {
		if tn == "flood" {
			flood++
		} else {
			calm++
		}
		if calm < 3 && flood > 2*calm+2 {
			t.Fatalf("flood starved calm: order %v", startOrder)
		}
	}
}

// TestTenantHTTPHeader drives tenancy through the wire: the header
// routes to per-tenant queues, an invalid header is a typed 400, and
// /stats exposes per-tenant counters.
func TestTenantHTTPHeader(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1}, instantSweep)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()

	ca := &Client{Base: ts.URL, Tenant: "acme"}
	st, err := ca.Submit(ctx, spec1())
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "acme" {
		t.Fatalf("submitted tenant = %q, want acme", st.Tenant)
	}
	if _, err := ca.Wait(ctx, st.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// No header: default tenant.
	cd := &Client{Base: ts.URL}
	st2, err := cd.Submit(ctx, spec1())
	if err != nil {
		t.Fatal(err)
	}
	if st2.Tenant != DefaultTenant {
		t.Fatalf("headerless tenant = %q, want %q", st2.Tenant, DefaultTenant)
	}
	// Invalid tenant name: typed 400 before any work.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", nil)
	req.Header.Set(TenantHeader, "bad tenant name!")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid tenant = %d, want 400", resp.StatusCode)
	}
	// Per-tenant counters visible over /stats.
	stats, err := cd.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tenants["acme"].Submitted != 1 || stats.Tenants[DefaultTenant].Submitted != 1 {
		t.Fatalf("stats tenants = %+v", stats.Tenants)
	}
}

// TestSmoothWRRPickDeterministic pins the dispatch order directly:
// equal weights alternate; 2:1 weights dispatch two-for-one.
func TestSmoothWRRPickDeterministic(t *testing.T) {
	mk := func(weights map[string]int, queued map[string]int) *Server {
		s := &Server{tenants: map[string]*tenantState{}, jobs: map[string]*Job{}}
		s.cond = sync.NewCond(&s.mu)
		for name, w := range weights {
			ts := &tenantState{name: name, weight: w, depth: 100}
			for i := 0; i < queued[name]; i++ {
				ts.queue = append(ts.queue, &Job{
					ID: fmt.Sprintf("%s-%d", name, i), Tenant: name,
					state: StateQueued, done: make(chan struct{}),
				})
				ts.stats.Queued++
				s.inFlight++
			}
			s.tenants[name] = ts
		}
		return s
	}
	t.Run("equal weights alternate", func(t *testing.T) {
		s := mk(map[string]int{"a": 1, "b": 1}, map[string]int{"a": 4, "b": 4})
		var order []string
		for i := 0; i < 8; i++ {
			j := s.pickLocked()
			order = append(order, j.Tenant)
		}
		for i := 1; i < len(order); i++ {
			if order[i] == order[i-1] {
				t.Fatalf("equal weights did not alternate: %v", order)
			}
		}
	})
	t.Run("2:1 dispatches two-for-one", func(t *testing.T) {
		s := mk(map[string]int{"a": 2, "b": 1}, map[string]int{"a": 6, "b": 3})
		counts := map[string]int{}
		for i := 0; i < 6; i++ {
			j := s.pickLocked()
			counts[j.Tenant]++
		}
		if counts["a"] != 4 || counts["b"] != 2 {
			t.Fatalf("first 6 dispatches = %v, want a:4 b:2", counts)
		}
	})
	t.Run("terminal jobs skimmed", func(t *testing.T) {
		s := mk(map[string]int{"a": 1}, map[string]int{"a": 3})
		s.tenants["a"].queue[0].state = StateCanceled
		j := s.pickLocked()
		if j == nil || j.Status().State != StateQueued {
			t.Fatalf("pick returned %+v, want first live job", j)
		}
		if s.inFlight != 2 {
			t.Fatalf("inFlight = %d after skimming a canceled job, want 2", s.inFlight)
		}
	})
}
