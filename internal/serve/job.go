// Package serve is the simulation-as-a-service layer: a fault-first
// HTTP/JSON job server around figures.SweepCtx and both simulation
// engines. Its design constraints, in order:
//
//   - a single bad job (runaway, stalled, panicking) must never wedge
//     or crash the server — jobs run under per-job deadlines and
//     client-initiated cancellation, plumbed as cooperative stop
//     checks down to the event engine (sim.Engine.SetStopCheck), and
//     every engine failure surfaces as a typed JSON error, not a 500;
//   - overload sheds instead of queueing unboundedly — a bounded
//     worker pool fronted by a bounded admission queue returns 429
//     with a Retry-After estimate when full;
//   - identical work is served from a crash-safe content-addressed
//     run cache — the engines are deterministic, so identical
//     canonicalized specs produce byte-identical results, making
//     caching trivially correct (the same skewed-repeat insight as
//     Jain's destination-locality caching study);
//   - shutdown drains in-flight jobs under a deadline, then cancels
//     the stragglers, and always joins its goroutines.
package serve

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"dresar/internal/core"
	"dresar/internal/figures"
	"dresar/internal/xbar"
)

// JobSpec is a sweep submission: every (app, size) cell of the cross
// product runs on its own machine. Workers only changes wall-clock
// parallelism, never results, so it is excluded from the cache key.
type JobSpec struct {
	// Scale is "small" (reduced inputs) or "paper" (Table 2 inputs).
	Scale string `json:"scale"`
	// Apps are workload names from figures.Apps.
	Apps []string `json:"apps"`
	// Sizes are switch-directory entry counts; 0 is the base system.
	Sizes []int `json:"sizes"`
	// Workers bounds the sweep's cell-level worker pool (0 = host
	// parallelism, capped server-side).
	Workers int `json:"workers,omitempty"`
	// DeadlineMS bounds the job's run time in wall-clock milliseconds;
	// 0 uses the server default. The server caps it at its maximum.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// knownApp reports whether figures can run app.
func knownApp(app string) bool {
	for _, a := range figures.Apps {
		if a == app {
			return true
		}
	}
	return false
}

// Canonicalize validates the spec and rewrites it into the canonical
// form the cache key derives from: apps and sizes sorted and
// deduplicated (the sweep's result map is order-insensitive, so
// reordered submissions of the same work must hit the same cache
// entry), scale lower-cased. Wall-clock-only knobs (Workers,
// DeadlineMS) are not part of the canonical identity.
func (s *JobSpec) Canonicalize() error {
	s.Scale = strings.ToLower(strings.TrimSpace(s.Scale))
	if s.Scale == "" {
		s.Scale = "small"
	}
	if s.Scale != "small" && s.Scale != "paper" {
		return fmt.Errorf("scale %q is not \"small\" or \"paper\"", s.Scale)
	}
	if len(s.Apps) == 0 {
		return errors.New("no apps in spec")
	}
	if len(s.Sizes) == 0 {
		return errors.New("no sizes in spec")
	}
	sort.Strings(s.Apps)
	s.Apps = dedupStrings(s.Apps)
	for _, a := range s.Apps {
		if !knownApp(a) {
			return fmt.Errorf("unknown app %q (want one of %s)", a, strings.Join(figures.Apps, ", "))
		}
	}
	sort.Ints(s.Sizes)
	s.Sizes = dedupInts(s.Sizes)
	for _, n := range s.Sizes {
		if n < 0 || n > 1<<20 {
			return fmt.Errorf("directory size %d out of range [0, 2^20]", n)
		}
	}
	// A size no cell can build (such as 768: 192 sets of 4 ways) is
	// refused here, not admitted to fail later in its cell.
	if err := figures.CheckSizes(s.Sizes); err != nil {
		return err
	}
	if s.Workers < 0 || s.DeadlineMS < 0 {
		return errors.New("workers and deadline_ms must be non-negative")
	}
	return nil
}

func dedupStrings(in []string) []string {
	out := in[:0]
	for i, v := range in {
		if i == 0 || v != in[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func dedupInts(in []int) []int {
	out := in[:0]
	for i, v := range in {
		if i == 0 || v != in[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// scale maps the canonical scale string onto figures.Scale.
func (s JobSpec) scale() figures.Scale {
	if s.Scale == "paper" {
		return figures.ScalePaper
	}
	return figures.ScaleSmall
}

// JobState is a job's lifecycle position.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Error kinds: the typed vocabulary every engine failure maps onto.
// Clients switch on Kind, never on message text.
const (
	KindBadRequest = "bad_request" // malformed spec
	KindOverloaded = "overloaded"  // admission queue full, retry later
	KindQuota      = "quota"       // tenant over its admission rate, retry later
	KindDraining   = "draining"    // server shutting down
	KindNotFound   = "not_found"   // no such job
	KindNotReady   = "not_ready"   // result requested before completion
	KindAborted    = "aborted"     // JobAborted: cancelled or deadline-exceeded
	KindStall      = "stall"       // liveness watchdog: *core.StallError
	KindUnroutable = "unroutable"  // *xbar.UnroutableError under fabric faults
	KindPanic      = "panic"       // recovered cell panic (*figures.CellPanic)
	KindInternal   = "internal"    // anything unclassified
)

// JobError is the typed JSON error surfaced by the API. For aborted
// jobs it carries the engine's partial-progress numbers (the
// *core.AbortError contract: cycle reached and events still pending
// at the cancel point).
type JobError struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// Reason distinguishes aborts: "canceled" (client cancel or
	// shutdown) vs "deadline" (per-job deadline exceeded).
	Reason string `json:"reason,omitempty"`
	// Cycle/Pending are the abort point for KindAborted and the stall
	// point for KindStall.
	Cycle   uint64 `json:"cycle,omitempty"`
	Pending int    `json:"pending,omitempty"`
	// SinceProgress is KindStall's no-progress span in cycles.
	SinceProgress uint64 `json:"since_progress,omitempty"`
	// RetryAfterS accompanies KindOverloaded.
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

func (e *JobError) Error() string { return fmt.Sprintf("%s: %s", e.Kind, e.Message) }

// classify maps an error from the sweep stack onto its typed JSON
// form. cancelReason annotates aborts ("canceled" or "deadline");
// callers derive it from the job's context cause.
func classify(err error, cancelReason string) *JobError {
	var abort *core.AbortError
	if errors.As(err, &abort) {
		return &JobError{
			Kind:    KindAborted,
			Message: "job aborted before completion",
			Reason:  cancelReason,
			Cycle:   uint64(abort.Now),
			Pending: abort.Pending,
		}
	}
	var stall *core.StallError
	if errors.As(err, &stall) {
		return &JobError{
			Kind:          KindStall,
			Message:       firstLine(stall.Error()),
			Cycle:         uint64(stall.Now),
			Pending:       stall.Pending,
			SinceProgress: uint64(stall.SinceProgress),
		}
	}
	var ue *xbar.UnroutableError
	if errors.As(err, &ue) {
		return &JobError{Kind: KindUnroutable, Message: firstLine(ue.Error()), Cycle: uint64(ue.At)}
	}
	var cp *figures.CellPanic
	if errors.As(err, &cp) {
		return &JobError{Kind: KindPanic, Message: fmt.Sprintf("panic in cell %s/%d: %v", cp.App, cp.Entries, cp.Value)}
	}
	return &JobError{Kind: KindInternal, Message: firstLine(err.Error())}
}

// firstLine truncates multi-line engine reports for the wire; the
// full detail stays in the server log.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Job is one tracked submission.
type Job struct {
	ID     string
	Key    string
	Tenant string

	mu        sync.Mutex
	spec      JobSpec
	state     JobState
	err       *JobError
	cached    bool
	cancelled bool // client asked for cancellation
	cancel    func(reason string)
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    []byte
	done      chan struct{}

	// onFinish, when set, observes the single terminal transition
	// (outside j.mu): the server uses it to journal the transition
	// and update per-tenant accounting.
	onFinish func(j *Job, prev, state JobState, err *JobError, cached bool)
}

// JobStatus is the wire form of a job's state.
type JobStatus struct {
	ID        string    `json:"id"`
	Key       string    `json:"key"`
	Tenant    string    `json:"tenant,omitempty"`
	Spec      JobSpec   `json:"spec"`
	State     JobState  `json:"state"`
	Cached    bool      `json:"cached"`
	Error     *JobError `json:"error,omitempty"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.ID, Key: j.Key, Tenant: j.Tenant, Spec: j.spec, State: j.state,
		Cached: j.cached, Error: j.err,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// finish moves the job to a terminal state exactly once, then fires
// the server's terminal-transition hook outside the job lock (the
// hook takes the server lock and appends to the journal; holding j.mu
// across it would invert the server's mu -> j.mu lock order).
func (j *Job) finish(state JobState, err *JobError, result []byte, cached bool) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	prev := j.state
	j.state = state
	j.err = err
	j.result = result
	j.cached = cached
	j.finished = time.Now()
	hook := j.onFinish
	close(j.done)
	j.mu.Unlock()
	if hook != nil {
		hook(j, prev, state, err, cached)
	}
}
