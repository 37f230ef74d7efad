package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// Client talks to the job API with bounded retries. Overload (429)
// and drain (503) responses, plus transport-level failures, retry
// with exponential backoff and jitter; everything else — including
// typed job failures — surfaces immediately as a *JobError.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// Tenant, when set, is sent as X-Dresar-Tenant on every request.
	Tenant string
	// HTTP is the transport; nil uses a client with a 30s timeout.
	HTTP *http.Client
	// MaxRetries bounds retry attempts per call (0 means 5).
	MaxRetries int
	// BaseBackoff seeds the exponential schedule (0 means 100ms);
	// MaxBackoff caps it (0 means 5s). Each wait gets up to 50%
	// additive jitter so a shed fleet does not retry in lockstep.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Rand supplies jitter; nil uses the global source.
	Rand *rand.Rand
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (c *Client) retries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return 5
}

// backoff computes the wait before retry attempt (0-based), folding in
// the server's Retry-After hint when one was given.
func (c *Client) backoff(attempt int, retryAfterS int) time.Duration {
	base := c.BaseBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxB := c.MaxBackoff
	if maxB <= 0 {
		maxB = 5 * time.Second
	}
	d := base << uint(attempt)
	if retryAfterS > 0 && time.Duration(retryAfterS)*time.Second > d {
		d = time.Duration(retryAfterS) * time.Second
	}
	if d > maxB {
		d = maxB
	}
	jitter := time.Duration(0)
	if d > 0 {
		if c.Rand != nil {
			jitter = time.Duration(c.Rand.Int63n(int64(d)/2 + 1))
		} else {
			jitter = time.Duration(rand.Int63n(int64(d)/2 + 1))
		}
	}
	return d + jitter
}

// retryable reports whether an HTTP status merits another attempt.
func retryable(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// apiError is the wire envelope for typed failures.
type apiError struct {
	Error *JobError `json:"error"`
}

// do issues one API call with the retry schedule. A nil out skips
// decoding; raw, when non-nil, receives the raw response body.
func (c *Client) do(ctx context.Context, method, path string, body, out any, raw *[]byte) error {
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			return err
		}
	}
	var lastErr error
	for attempt := 0; attempt <= c.retries(); attempt++ {
		if attempt > 0 {
			wait := c.backoff(attempt-1, retryAfterOf(lastErr))
			select {
			case <-ctx.Done():
				return fmt.Errorf("serve: %s %s: %w (last: %v)", method, path, ctx.Err(), lastErr)
			case <-time.After(wait):
			}
		}
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
		if err != nil {
			return err
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.Tenant != "" {
			req.Header.Set(TenantHeader, c.Tenant)
		}
		resp, err := c.http().Do(req)
		if err != nil {
			lastErr = err // transport failure: retry
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode >= 400 {
			je := decodeError(resp, data)
			if retryable(resp.StatusCode) {
				lastErr = je
				continue
			}
			return je
		}
		if raw != nil {
			*raw = data
		}
		if out != nil {
			if err := json.Unmarshal(data, out); err != nil {
				return fmt.Errorf("serve: decode %s %s: %w", method, path, err)
			}
		}
		return nil
	}
	return fmt.Errorf("serve: %s %s: retries exhausted: %w", method, path, lastErr)
}

// decodeError recovers the typed error from a failure response,
// synthesizing one when the body is not the expected envelope.
func decodeError(resp *http.Response, data []byte) *JobError {
	var env apiError
	if json.Unmarshal(data, &env) == nil && env.Error != nil {
		if env.Error.RetryAfterS == 0 {
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				env.Error.RetryAfterS = s
			}
		}
		return env.Error
	}
	return &JobError{Kind: KindInternal, Message: fmt.Sprintf("http %d: %s", resp.StatusCode, firstLine(string(data)))}
}

// retryAfterOf extracts the server's Retry-After hint from a retryable
// typed error, 0 otherwise.
func retryAfterOf(err error) int {
	if je, ok := err.(*JobError); ok {
		return je.RetryAfterS
	}
	return 0
}

// Submit posts a job and returns its initial status (terminal already
// on a cache hit).
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st, nil)
	return st, err
}

// Status fetches a job's current status.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st, nil)
	return st, err
}

// Cancel requests cancellation and returns the post-cancel status.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil, &st, nil)
	return st, err
}

// Result fetches a finished job's payload. A failed or canceled job
// returns its typed *JobError.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	var raw []byte
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// Stats fetches the server's /stats snapshot.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.do(ctx, http.MethodGet, "/stats", nil, &st, nil)
	return st, err
}

// Wait polls until the job is terminal or ctx expires.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}
