package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dresar/internal/figures"
)

// Config sizes the server's failure domains.
type Config struct {
	// Workers is the number of jobs simulated concurrently (the worker
	// pool size). <= 0 means 2.
	Workers int
	// QueueDepth bounds each tenant's admission sub-queue; a submit
	// that finds its tenant's queue full is shed with 429 +
	// Retry-After rather than queued without bound. <= 0 means 16.
	QueueDepth int
	// CacheDir roots the crash-safe run cache; "" disables caching.
	CacheDir string
	// CacheMaxBytes bounds the run cache's objects/ directory;
	// exceeding it evicts entries LRU-by-bytes. <= 0 means unbounded.
	CacheMaxBytes int64
	// QuarantineMaxBytes bounds the cache's quarantine/ directory
	// (oldest evidence deleted first). <= 0 means unbounded.
	QuarantineMaxBytes int64
	// JournalDir roots the write-ahead job journal; "" disables
	// durability (a crash then drops queued and running jobs).
	JournalDir string
	// JournalSegmentBytes sets the journal's segment-rotation
	// threshold. <= 0 means 4 MiB.
	JournalSegmentBytes int64
	// DefaultDeadline applies to jobs that set no deadline_ms (0 means
	// 2 minutes); MaxDeadline caps client-requested deadlines (0 means
	// 10 minutes).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxSweepWorkers caps the per-job cell-level parallelism a client
	// may request. <= 0 means GOMAXPROCS.
	MaxSweepWorkers int
	// MaxJobs bounds the in-memory job registry; beyond it the oldest
	// terminal jobs are evicted. <= 0 means 1024.
	MaxJobs int
	// TenantRate is the default per-tenant admission rate in
	// submits/second (token bucket; TenantBurst deep). 0 means
	// unlimited; individual tenants override via Tenants.
	TenantRate  float64
	TenantBurst int
	// TenantQueueDepth bounds each tenant's sub-queue; <= 0 inherits
	// QueueDepth.
	TenantQueueDepth int
	// Tenants pre-provisions per-tenant weights/rates; tenants not
	// listed are created on first use with the defaults above.
	Tenants map[string]TenantConfig
	// Log receives structured events (job transitions, recovery,
	// drain); nil falls back to Logf.
	Log *slog.Logger
	// Logf receives unstructured diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.TenantQueueDepth <= 0 {
		c.TenantQueueDepth = c.QueueDepth
	}
	if c.JournalSegmentBytes <= 0 {
		c.JournalSegmentBytes = 4 << 20
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Minute
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 10 * time.Minute
	}
	if c.MaxSweepWorkers <= 0 {
		c.MaxSweepWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Server owns the worker pool, the per-tenant admission queues, the
// job registry, the write-ahead journal, and the run cache. Every
// goroutine it starts is joined by Shutdown.
type Server struct {
	cfg     Config
	cache   *Cache
	journal *Journal

	baseCtx    context.Context
	baseCancel context.CancelFunc

	wg sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond // signals workers: work queued or server closing
	tenants  map[string]*tenantState
	jobs     map[string]*Job
	order    []string // insertion order, for terminal-job eviction
	nextID   uint64
	closed   bool // no further dispatch; workers exit when queues drain
	inFlight int  // queued + running jobs

	draining atomic.Bool
	ewmaNS   atomic.Int64 // smoothed job duration, for Retry-After

	recovery *RecoveryReport // startup replay report (nil: no journal)

	// sweep runs a job's cells; figures.SweepCtx in production, a
	// fake in the unit tests that exercise scheduling and failure
	// classification without real simulations.
	sweep sweepFunc
}

// sweepFunc has figures.SweepCtx's signature.
type sweepFunc func(ctx context.Context, scale figures.Scale, apps []string, sizes []int, workers int) (map[string]map[int]figures.Result, error)

// NewServer builds a server, replays its journal (re-registering
// terminal jobs and re-enqueueing interrupted ones), and starts its
// worker pool.
func NewServer(cfg Config) (*Server, error) { return newServer(cfg, figures.SweepCtx) }

// newServer is NewServer with the sweep set before any job can run.
func newServer(cfg Config, sweep sweepFunc) (*Server, error) {
	cfg.fill()
	s := &Server{
		cfg:     cfg,
		tenants: map[string]*tenantState{},
		jobs:    map[string]*Job{},
		sweep:   sweep,
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if cfg.CacheDir != "" {
		c, err := OpenCache(cfg.CacheDir, cfg.CacheMaxBytes, cfg.QuarantineMaxBytes)
		if err != nil {
			return nil, err
		}
		s.cache = c
	}
	if cfg.JournalDir != "" {
		j, replayed, report, err := OpenJournal(cfg.JournalDir, cfg.JournalSegmentBytes)
		if err != nil {
			return nil, err
		}
		s.journal = j
		s.recovery = &report
		s.recover(replayed)
		s.logEvent("journal recovered",
			"segments", report.Segments, "records", report.Records,
			"jobs", report.Jobs, "terminal", report.Terminal,
			"requeued", report.Requeued, "corrupt_frames", report.CorruptFrames,
			"quarantined_bytes", report.QuarantinedBytes,
			"duplicate_finishes", report.DuplicateFinishes)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// logEvent emits one structured event, falling back to Logf when no
// slog handler is configured.
func (s *Server) logEvent(msg string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Info(msg, args...)
		return
	}
	s.cfg.Logf("serve: %s %v", msg, args)
}

// recover re-registers every journaled job: terminal ones come back
// queryable (results re-attached from the cache when still present),
// interrupted ones are re-enqueued — completed work that reached the
// cache before the crash dedupes into an instant, byte-identical
// finish.
func (s *Server) recover(replayed map[string]*ReplayedJob) {
	ids := make([]string, 0, len(replayed))
	for id := range replayed {
		ids = append(ids, id)
	}
	sort.Strings(ids) // deterministic re-enqueue order
	var maxID uint64
	for _, id := range ids {
		if n, err := strconv.ParseUint(strings.TrimPrefix(id, "j"), 10, 64); err == nil && n > maxID {
			maxID = n
		}
	}
	s.mu.Lock()
	s.nextID = maxID
	s.mu.Unlock()

	for _, id := range ids {
		rj := replayed[id]
		j := &Job{
			ID:        rj.ID,
			Key:       rj.Key,
			Tenant:    rj.Tenant,
			spec:      rj.Spec,
			state:     StateQueued,
			submitted: time.Now(),
			done:      make(chan struct{}),
		}
		if rj.State.Terminal() {
			// Historical job: visible to status queries, never re-run.
			j.state = rj.State
			j.cached = rj.Cached
			j.finished = time.Now()
			if rj.ErrKind != "" {
				j.err = &JobError{Kind: rj.ErrKind, Message: "replayed from journal"}
			}
			if rj.State == StateDone && rj.Key != "" {
				if payload, ok := s.cache.Get(rj.Key); ok {
					j.result = payload
				}
			}
			close(j.done)
			s.registerRecovered(j, rj, false)
			continue
		}
		if !rj.HasSpec {
			// The submit record was lost in a quarantined region; there
			// is nothing runnable to recover. Fail it explicitly so the
			// ID resolves rather than dangling forever.
			j.onFinish = s.jobFinished
			s.registerRecovered(j, rj, false)
			j.finish(StateFailed, &JobError{Kind: KindInternal,
				Message: "journal submit record lost to corruption; resubmit"}, nil, false)
			continue
		}
		j.onFinish = s.jobFinished
		s.registerRecovered(j, rj, true)
		// Dedupe through the content-addressed cache: a job whose
		// result survived the crash finishes without re-running.
		if payload, ok := s.cache.Get(j.Key); ok {
			s.logEvent("job recovered from cache", "job", j.ID, "tenant", j.Tenant)
			j.started = j.submitted
			j.finish(StateDone, nil, payload, true)
			continue
		}
		s.logEvent("job requeued", "job", j.ID, "tenant", j.Tenant, "was", string(rj.State))
		s.enqueueRecovered(j)
	}
}

// registerRecovered places a replayed job in the registry and folds it
// into its tenant's counters. live marks jobs that will run again.
func (s *Server) registerRecovered(j *Job, rj *ReplayedJob, live bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	ts := s.tenantLocked(j.Tenant)
	ts.stats.Submitted++
	if !live {
		switch rj.State {
		case StateDone:
			ts.stats.Done++
		case StateFailed:
			ts.stats.Failed++
		case StateCanceled:
			ts.stats.Canceled++
		}
	}
	s.evictTerminalLocked()
}

// enqueueRecovered puts a recovered job back on its tenant's queue,
// bypassing admission control: durability beats rate limits for work
// the server already accepted.
func (s *Server) enqueueRecovered(j *Job) {
	s.mu.Lock()
	ts := s.tenantLocked(j.Tenant)
	ts.queue = append(ts.queue, j)
	ts.stats.Queued++
	s.inFlight++
	s.mu.Unlock()
	s.cond.Signal()
}

// worker pulls jobs off the tenant queues (weighted round-robin) until
// the server closes and the queues drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.nextJob()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// nextJob blocks until a job is dispatchable or the server has closed
// with nothing left to drain.
func (s *Server) nextJob() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if j := s.pickLocked(); j != nil {
			return j
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// CacheStats exposes the run cache counters (zero value when caching
// is disabled).
func (s *Server) CacheStats() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	return s.cache.Stats()
}

// evictTerminalLocked trims the registry to MaxJobs by evicting the
// oldest terminal jobs; live jobs are never dropped, so the registry
// can exceed the bound only when every member is still in flight.
func (s *Server) evictTerminalLocked() {
	for len(s.jobs) > s.cfg.MaxJobs {
		evicted := false
		for i, id := range s.order {
			old := s.jobs[id]
			if old != nil && old.Status().State.Terminal() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // every registered job is live; keep them all
		}
	}
}

// newJob registers a job for tenant, evicting the oldest terminal jobs
// beyond the registry bound.
func (s *Server) newJob(tenant string, spec JobSpec, key string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	j := &Job{
		ID:        fmt.Sprintf("j%06d", s.nextID),
		Key:       key,
		Tenant:    tenant,
		spec:      spec,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
		onFinish:  s.jobFinished,
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.tenantLocked(tenant).stats.Submitted++
	s.evictTerminalLocked()
	return j
}

// jobFinished is every job's terminal-transition hook (invoked exactly
// once, outside the job's lock): journal the transition, update tenant
// accounting, and log it.
func (s *Server) jobFinished(j *Job, prev, state JobState, err *JobError, cached bool) {
	errKind := ""
	if err != nil {
		errKind = err.Kind
	}
	if jerr := s.journal.Append(journalRecord{
		Op: opFinish, Job: j.ID, Tenant: j.Tenant, Key: j.Key,
		State: state, Cached: cached, ErrKind: errKind,
	}); jerr != nil {
		// Availability over durability for the terminal record: the
		// job finished; a replay would re-run it and dedupe via cache.
		s.cfg.Logf("serve: journal finish %s: %v", j.ID, jerr)
	}
	s.mu.Lock()
	ts := s.tenantLocked(j.Tenant)
	if prev == StateRunning {
		ts.stats.Running--
	}
	switch state {
	case StateDone:
		ts.stats.Done++
		if cached {
			ts.stats.CacheHits++
		}
	case StateFailed:
		ts.stats.Failed++
	case StateCanceled:
		ts.stats.Canceled++
	}
	s.mu.Unlock()
	s.logEvent("job finished", "job", j.ID, "tenant", j.Tenant,
		"state", string(state), "err_kind", errKind, "cached", cached)
}

// Submit admits a job for the default tenant.
func (s *Server) Submit(spec JobSpec) (*Job, *JobError) {
	return s.SubmitAs(DefaultTenant, spec)
}

// SubmitAs admits a job: canonicalize, rate-limit the tenant, journal
// the submission, serve from cache when possible, otherwise enqueue on
// the tenant's sub-queue — or shed with a Retry-After estimate when
// the tenant is over its rate or its queue is full.
func (s *Server) SubmitAs(tenant string, spec JobSpec) (*Job, *JobError) {
	if err := validTenant(tenant); err != nil {
		return nil, &JobError{Kind: KindBadRequest, Message: err.Error()}
	}
	if err := spec.Canonicalize(); err != nil {
		return nil, &JobError{Kind: KindBadRequest, Message: err.Error()}
	}
	if s.draining.Load() {
		return nil, &JobError{Kind: KindDraining, Message: "server is draining"}
	}

	// Token-bucket admission: a tenant over its sustained rate is
	// throttled before any work (journal append, cache read) happens
	// on its behalf.
	s.mu.Lock()
	ts := s.tenantLocked(tenant)
	ok, wait := ts.bucket.take(time.Now())
	if !ok {
		ts.stats.Throttled++
		s.mu.Unlock()
		sec := int((wait + time.Second - 1) / time.Second)
		if sec < 1 {
			sec = 1
		}
		return nil, &JobError{
			Kind:        KindQuota,
			Message:     fmt.Sprintf("tenant %q over its admission rate", tenant),
			RetryAfterS: sec,
		}
	}
	s.mu.Unlock()

	key := CacheKey(spec)
	if payload, ok := s.cache.Get(key); ok {
		j := s.newJob(tenant, spec, key)
		if err := s.journalSubmit(j); err != nil {
			j.finish(StateFailed, err, nil, false)
			return nil, err
		}
		j.mu.Lock()
		j.started = j.submitted
		j.mu.Unlock()
		j.finish(StateDone, nil, payload, true)
		return j, nil
	}

	nj := s.newJob(tenant, spec, key)
	if err := s.journalSubmit(nj); err != nil {
		nj.finish(StateFailed, err, nil, false)
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nj.finish(StateCanceled, &JobError{Kind: KindDraining, Message: "server is draining"}, nil, false)
		return nil, &JobError{Kind: KindDraining, Message: "server is draining"}
	}
	ts = s.tenantLocked(tenant)
	if len(ts.queue) >= ts.depth {
		queued := len(ts.queue)
		ts.stats.Shed++
		s.mu.Unlock()
		nj.finish(StateFailed, &JobError{Kind: KindOverloaded, Message: "admission queue full"}, nil, false)
		retry := s.retryAfter()
		return nil, &JobError{
			Kind:        KindOverloaded,
			Message:     fmt.Sprintf("tenant %q admission queue full (%d queued)", tenant, queued),
			RetryAfterS: retry,
		}
	}
	ts.queue = append(ts.queue, nj)
	ts.stats.Queued++
	s.inFlight++
	s.mu.Unlock()
	s.cond.Signal()
	s.logEvent("job submitted", "job", nj.ID, "tenant", tenant, "key", key)
	return nj, nil
}

// journalSubmit makes the submission durable before the job becomes
// runnable. Unlike transition records, a submit append failure is
// surfaced to the client: accepting work the journal cannot record
// would break the restart-resume contract.
func (s *Server) journalSubmit(j *Job) *JobError {
	spec := j.spec
	if err := s.journal.Append(journalRecord{
		Op: opSubmit, Job: j.ID, Tenant: j.Tenant, Key: j.Key, Spec: &spec,
	}); err != nil {
		return &JobError{Kind: KindInternal, Message: "journal append: " + err.Error()}
	}
	return nil
}

// retryAfter estimates, from the smoothed job duration and the current
// backlog, how long a shed client should wait before retrying.
func (s *Server) retryAfter() int {
	ewma := time.Duration(s.ewmaNS.Load())
	if ewma <= 0 {
		return 1
	}
	backlog := s.queuedTotal() + 1
	est := ewma * time.Duration(backlog) / time.Duration(s.cfg.Workers)
	sec := int((est + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// queuedTotal counts jobs across all tenant queues.
func (s *Server) queuedTotal() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ts := range s.tenants {
		n += len(ts.queue)
	}
	return n
}

// observe folds a finished job's duration into the EWMA (alpha 1/4).
func (s *Server) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	for {
		old := s.ewmaNS.Load()
		nw := int64(d)
		if old > 0 {
			nw = old + (int64(d)-old)/4
		}
		if s.ewmaNS.CompareAndSwap(old, nw) {
			return
		}
	}
}

// jobDone decrements the in-flight count.
func (s *Server) jobDone() {
	s.mu.Lock()
	s.inFlight--
	s.mu.Unlock()
}

// runJob executes one queued job under its deadline and the server's
// base context, classifying every failure into the typed vocabulary.
func (s *Server) runJob(j *Job) {
	defer s.jobDone()
	j.mu.Lock()
	if j.state.Terminal() { // cancelled while queued
		j.mu.Unlock()
		return
	}
	spec := j.spec
	j.state = StateRunning
	j.started = time.Now()
	deadline := s.cfg.DefaultDeadline
	if spec.DeadlineMS > 0 {
		deadline = time.Duration(spec.DeadlineMS) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, deadline)
	j.cancel = func(string) { cancel() }
	j.mu.Unlock()
	defer cancel()

	s.mu.Lock()
	s.tenantLocked(j.Tenant).stats.Running++
	s.mu.Unlock()
	if err := s.journal.Append(journalRecord{Op: opStart, Job: j.ID, Tenant: j.Tenant}); err != nil {
		s.cfg.Logf("serve: journal start %s: %v", j.ID, err)
	}
	s.logEvent("job started", "job", j.ID, "tenant", j.Tenant)

	if s.baseCtx.Err() != nil { // shutting down: don't start new work
		j.finish(StateCanceled,
			&JobError{Kind: KindAborted, Message: "job aborted before completion", Reason: "canceled"},
			nil, false)
		return
	}

	workers := spec.Workers
	if workers <= 0 || workers > s.cfg.MaxSweepWorkers {
		workers = s.cfg.MaxSweepWorkers
	}
	start := time.Now()
	sweep, err := s.sweep(ctx, spec.scale(), spec.Apps, spec.Sizes, workers)
	dur := time.Since(start)
	if err != nil {
		je := classify(err, s.abortReason(j, ctx))
		state := StateFailed
		if je.Kind == KindAborted && je.Reason == "canceled" {
			state = StateCanceled
		}
		s.cfg.Logf("serve: job %s %s: %v", j.ID, state, err)
		j.finish(state, je, nil, false)
		return
	}
	s.observe(dur)
	payload, perr := resultPayload(spec, sweep)
	if perr != nil {
		j.finish(StateFailed, &JobError{Kind: KindInternal, Message: perr.Error()}, nil, false)
		return
	}
	if err := s.cache.Put(j.Key, payload); err != nil {
		// A cache write failure degrades to uncached service, never
		// fails the job — the result itself is sound.
		s.cfg.Logf("serve: cache put %s: %v", j.Key, err)
	}
	j.finish(StateDone, nil, payload, false)
}

// abortReason distinguishes why an aborted job stopped: an explicit
// client cancel (or server drain) vs its own deadline.
func (s *Server) abortReason(j *Job, ctx context.Context) string {
	j.mu.Lock()
	cancelled := j.cancelled
	j.mu.Unlock()
	switch {
	case cancelled || s.baseCtx.Err() != nil:
		return "canceled"
	case ctx.Err() == context.DeadlineExceeded:
		return "deadline"
	default:
		return ""
	}
}

// resultPayload renders the canonical result document: the canonical
// spec (wall-clock knobs zeroed) plus rows in (app, size) canonical
// order. Determinism end to end: identical specs yield byte-identical
// payloads, which the cache-hit e2e test asserts literally.
func resultPayload(spec JobSpec, sweep map[string]map[int]figures.Result) ([]byte, error) {
	spec.Workers = 0
	spec.DeadlineMS = 0
	type row struct {
		App    string         `json:"app"`
		Size   int            `json:"size"`
		Result figures.Result `json:"result"`
	}
	doc := struct {
		V    int     `json:"v"`
		Spec JobSpec `json:"spec"`
		Rows []row   `json:"rows"`
	}{V: 1, Spec: spec}
	apps := append([]string{}, spec.Apps...)
	sort.Strings(apps)
	sizes := append([]int{}, spec.Sizes...)
	sort.Ints(sizes)
	for _, app := range apps {
		for _, n := range sizes {
			r, ok := sweep[app][n]
			if !ok {
				return nil, fmt.Errorf("serve: sweep missing cell %s/%d", app, n)
			}
			doc.Rows = append(doc.Rows, row{App: app, Size: n, Result: r})
		}
	}
	return json.Marshal(doc)
}

// Get looks up a job by ID.
func (s *Server) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List snapshots every registered job, sorted by ID.
func (s *Server) List() []JobStatus {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Cancel requests cancellation: a queued job is finished immediately;
// a running job gets its context cancelled and winds down at the
// engine's next stop-check poll.
func (s *Server) Cancel(id string) (*Job, *JobError) {
	j, ok := s.Get(id)
	if !ok {
		return nil, &JobError{Kind: KindNotFound, Message: fmt.Sprintf("no job %q", id)}
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return j, nil // idempotent
	}
	j.cancelled = true
	if j.state == StateQueued {
		j.mu.Unlock()
		// The worker that eventually dequeues it sees the terminal
		// state and drops it.
		j.finish(StateCanceled,
			&JobError{Kind: KindAborted, Message: "job aborted before completion", Reason: "canceled"},
			nil, false)
		return j, nil
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel("canceled")
	}
	return j, nil
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight counts queued plus running jobs.
func (s *Server) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inFlight
}

// Recovery returns the startup journal-replay report (nil when the
// server runs without a journal).
func (s *Server) Recovery() *RecoveryReport { return s.recovery }

// Shutdown drains gracefully: stop admitting, let in-flight jobs
// finish until ctx expires, then cancel the stragglers through the
// same cooperative stop-check path a client cancel uses, and join
// every worker. Always returns with the pool joined.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	drained := s.waitIdle(ctx)
	if !drained {
		// Force: running jobs abort within an engine poll interval;
		// queued jobs are marked canceled by the workers or below.
		s.baseCancel()
		force, fcancel := context.WithTimeout(context.Background(), 10*time.Second)
		drained = s.waitIdle(force)
		fcancel()
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
	// Workers have exited; anything still on the registry in a
	// non-terminal state (shouldn't happen once drained) is canceled.
	s.mu.Lock()
	stragglers := make([]*Job, 0)
	for _, j := range s.jobs {
		stragglers = append(stragglers, j)
	}
	s.mu.Unlock()
	for _, j := range stragglers {
		j.finish(StateCanceled,
			&JobError{Kind: KindAborted, Message: "server shut down", Reason: "canceled"},
			nil, false)
	}
	s.baseCancel()
	if err := s.journal.Close(); err != nil {
		s.cfg.Logf("serve: journal close: %v", err)
	}
	if !drained {
		return fmt.Errorf("serve: shutdown forced with jobs still in flight")
	}
	return nil
}

// waitIdle polls until no job is queued or running, or ctx expires.
func (s *Server) waitIdle(ctx context.Context) bool {
	for {
		if s.InFlight() == 0 {
			return true
		}
		select {
		case <-ctx.Done():
			return s.InFlight() == 0
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// httpStatus maps an error kind to its HTTP status.
func httpStatus(kind string) int {
	switch kind {
	case KindBadRequest:
		return http.StatusBadRequest
	case KindOverloaded, KindQuota:
		return http.StatusTooManyRequests
	case KindDraining:
		return http.StatusServiceUnavailable
	case KindNotFound:
		return http.StatusNotFound
	case KindNotReady:
		return http.StatusConflict
	case KindAborted:
		return http.StatusGone
	default:
		// Typed engine failures (stall, unroutable, panic,
		// internal) are job outcomes, reported on the job that failed:
		// the request itself succeeded, the simulation did not.
		return http.StatusUnprocessableEntity
	}
}

// writeJSON writes v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError writes a typed JobError, with Retry-After for sheds.
func writeError(w http.ResponseWriter, je *JobError) {
	if je.RetryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(je.RetryAfterS))
	}
	writeJSON(w, httpStatus(je.Kind), struct {
		Error *JobError `json:"error"`
	}{je})
}

// Stats is the server's observability snapshot: global gauges,
// per-tenant accounting, and the cache/journal counters.
type Stats struct {
	Jobs     int                    `json:"jobs"`
	InFlight int                    `json:"in_flight"`
	Queue    int                    `json:"queue"`
	Draining bool                   `json:"draining"`
	EWMAMS   int64                  `json:"ewma_job_ms"`
	Tenants  map[string]TenantStats `json:"tenants"`
	Cache    CacheStats             `json:"cache"`
	Journal  JournalStats           `json:"journal"`
	Recovery *RecoveryReport        `json:"recovery,omitempty"`
}

// StatsSnapshot assembles the /stats document.
func (s *Server) StatsSnapshot() Stats {
	s.mu.Lock()
	st := Stats{
		Jobs:     len(s.jobs),
		InFlight: s.inFlight,
		Tenants:  map[string]TenantStats{},
	}
	for name, ts := range s.tenants {
		t := ts.stats
		t.Weight = ts.weight
		t.Queued = len(ts.queue)
		st.Queue += len(ts.queue)
		st.Tenants[name] = t
	}
	s.mu.Unlock()
	st.Draining = s.draining.Load()
	st.EWMAMS = s.ewmaNS.Load() / int64(time.Millisecond)
	st.Cache = s.CacheStats()
	st.Journal = s.journal.Stats()
	st.Recovery = s.recovery
	return st
}

// tenantOf extracts and validates the request's tenant.
func tenantOf(r *http.Request) (string, *JobError) {
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		return DefaultTenant, nil
	}
	if err := validTenant(tenant); err != nil {
		return "", &JobError{Kind: KindBadRequest, Message: err.Error()}
	}
	return tenant, nil
}

// TenantHeader names the HTTP header carrying the tenant identity.
const TenantHeader = "X-Dresar-Tenant"

// Handler builds the HTTP API.
//
//	POST /v1/jobs             submit a JobSpec        -> 202 JobStatus
//	GET  /v1/jobs             list registered jobs    -> 200 {jobs:[...]}
//	GET  /v1/jobs/{id}        job status              -> 200 JobStatus
//	GET  /v1/jobs/{id}/result result payload          -> 200 canonical JSON
//	POST /v1/jobs/{id}/cancel request cancellation    -> 202 JobStatus
//	GET  /healthz             liveness                -> 200 always
//	GET  /readyz              readiness               -> 200, 503 draining
//	GET  /stats               Stats                   -> 200
//	GET  /v1/metrics          Stats (alias)           -> 200
//
// Submissions carry their tenant in X-Dresar-Tenant (DefaultTenant
// when absent). Failures are typed JSON bodies ({"error":{...}}),
// never bare 500s: 400 bad_request, 429 overloaded/quota
// (+Retry-After), 503 draining, 404 not_found, 409 not_ready, 410
// aborted, 422 engine failures.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		tenant, te := tenantOf(r)
		if te != nil {
			writeError(w, te)
			return
		}
		var spec JobSpec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeError(w, &JobError{Kind: KindBadRequest, Message: "bad spec: " + err.Error()})
			return
		}
		j, je := s.SubmitAs(tenant, spec)
		if je != nil {
			writeError(w, je)
			return
		}
		st := j.Status()
		code := http.StatusAccepted
		if st.State == StateDone { // cache hit completes synchronously
			code = http.StatusOK
		}
		writeJSON(w, code, st)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Jobs []JobStatus `json:"jobs"`
		}{s.List()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Get(r.PathValue("id"))
		if !ok {
			writeError(w, &JobError{Kind: KindNotFound, Message: "no such job"})
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Get(r.PathValue("id"))
		if !ok {
			writeError(w, &JobError{Kind: KindNotFound, Message: "no such job"})
			return
		}
		st := j.Status()
		switch {
		case !st.State.Terminal():
			writeError(w, &JobError{Kind: KindNotReady, Message: "job still " + string(st.State)})
		case st.State == StateDone:
			j.mu.Lock()
			payload := j.result
			j.mu.Unlock()
			if payload == nil {
				// A journal-replayed job whose result has since been
				// evicted from the cache: done, but no bytes to serve.
				writeError(w, &JobError{Kind: KindNotFound,
					Message: "result evicted from cache; resubmit the spec"})
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(payload)
		default:
			je := st.Error
			if je == nil {
				je = &JobError{Kind: KindInternal, Message: "job failed without a recorded error"}
			}
			writeError(w, je)
		}
	})
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		j, je := s.Cancel(r.PathValue("id"))
		if je != nil {
			writeError(w, je)
			return
		}
		writeJSON(w, http.StatusAccepted, j.Status())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeError(w, &JobError{Kind: KindDraining, Message: "draining"})
			return
		}
		w.Write([]byte("ready\n"))
	})
	stats := func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.StatsSnapshot())
	}
	mux.HandleFunc("GET /stats", stats)
	mux.HandleFunc("GET /v1/metrics", stats)
	return mux
}
