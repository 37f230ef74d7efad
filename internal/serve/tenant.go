package serve

import (
	"fmt"
	"time"
)

// Multi-tenancy: every submission belongs to a tenant (the
// X-Dresar-Tenant header; DefaultTenant when absent), and the server
// isolates tenants from each other on both the admission and the
// dispatch side:
//
//   - admission: a per-tenant token bucket bounds submit rate, and a
//     per-tenant queue bound caps how much backlog one tenant can pin,
//     so a flooding tenant is shed (429 quota / overloaded) while
//     others keep their full budget;
//   - dispatch: workers pull from per-tenant FIFO sub-queues under
//     smooth weighted round-robin, so a deep queue in one tenant
//     cannot starve another — each tenant's jobs start at a rate
//     proportional to its weight regardless of backlog shape.

// DefaultTenant is the tenant of requests that carry no
// X-Dresar-Tenant header.
const DefaultTenant = "default"

// validTenant enforces the tenant-name grammar: 1-64 chars of
// [a-zA-Z0-9._-]. Keeping names filesystem- and header-safe lets them
// appear verbatim in journal records, logs, and stats keys.
func validTenant(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("tenant name must be 1-64 characters")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("tenant name %q contains %q (allowed: letters, digits, '.', '_', '-')", name, r)
		}
	}
	return nil
}

// TenantConfig sets one tenant's admission and fairness knobs. The
// zero value inherits the server-wide defaults.
type TenantConfig struct {
	// Weight is the tenant's WRR dispatch share (<= 0 means 1).
	Weight int
	// Rate is the sustained admission rate in submits/second;
	// 0 inherits the server default, < 0 means unlimited.
	Rate float64
	// Burst is the token-bucket depth (0 inherits, <= 0 after
	// inheritance means max(1, ceil(Rate))).
	Burst int
	// QueueDepth bounds this tenant's sub-queue (0 inherits
	// Config.QueueDepth).
	QueueDepth int
}

// TenantStats is one tenant's observable state, surfaced in /stats.
type TenantStats struct {
	Weight    int    `json:"weight"`
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Submitted uint64 `json:"submitted"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	CacheHits uint64 `json:"cache_hits"`
	// Shed counts queue-full rejections; Throttled counts token-bucket
	// rejections. Both are 429s the client can retry.
	Shed      uint64 `json:"shed"`
	Throttled uint64 `json:"throttled"`
}

// tokenBucket is a standard refill-on-demand token bucket.
type tokenBucket struct {
	rate   float64 // tokens per second; <= 0 disables limiting
	burst  float64
	tokens float64
	last   time.Time
}

// take consumes one token if available; otherwise it reports how long
// until the next token accrues.
func (b *tokenBucket) take(now time.Time) (ok bool, wait time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
	} else {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	deficit := 1 - b.tokens
	return false, time.Duration(deficit / b.rate * float64(time.Second))
}

// tenantState is the server-side record for one tenant: its queue, its
// bucket, its smooth-WRR counter, and its counters. All fields are
// guarded by Server.mu.
type tenantState struct {
	name   string
	weight int
	depth  int
	bucket tokenBucket
	queue  []*Job
	wrr    int // smooth-WRR current weight
	stats  TenantStats
}

// tenantLocked returns (creating on first use) the state for tenant.
// Unknown tenants inherit the server-wide defaults; pre-provisioned
// ones (Config.Tenants) keep their overrides.
func (s *Server) tenantLocked(name string) *tenantState {
	if ts, ok := s.tenants[name]; ok {
		return ts
	}
	ts := newTenantState(name, s.cfg.Tenants[name], s.cfg)
	s.tenants[name] = ts
	return ts
}

// newTenantState resolves a TenantConfig against the server defaults.
func newTenantState(name string, tc TenantConfig, cfg Config) *tenantState {
	weight := tc.Weight
	if weight <= 0 {
		weight = 1
	}
	rate := tc.Rate
	if rate == 0 {
		rate = cfg.TenantRate
	}
	burst := tc.Burst
	if burst == 0 {
		burst = cfg.TenantBurst
	}
	if burst <= 0 {
		burst = 1
		if rate > 1 {
			burst = int(rate)
		}
	}
	depth := tc.QueueDepth
	if depth <= 0 {
		depth = cfg.QueueDepth
	}
	return &tenantState{
		name:   name,
		weight: weight,
		depth:  depth,
		bucket: tokenBucket{rate: rate, burst: float64(burst)},
	}
}

// pickLocked implements smooth weighted round-robin over the tenants
// with non-empty queues (nginx's algorithm: each round every
// contending tenant gains its weight, the max is chosen and pays back
// the total). Terminal jobs (cancelled while queued) are skimmed off
// here rather than handed to a worker. Iteration over the tenant map
// is made deterministic by selecting the max across all entries with a
// name tiebreak.
func (s *Server) pickLocked() *Job {
	for {
		var best *tenantState
		total := 0
		for _, ts := range s.tenants {
			if len(ts.queue) == 0 {
				continue
			}
			total += ts.weight
			ts.wrr += ts.weight
			if best == nil || ts.wrr > best.wrr || (ts.wrr == best.wrr && ts.name < best.name) {
				best = ts
			}
		}
		if best == nil {
			return nil
		}
		best.wrr -= total
		j := best.queue[0]
		best.queue[0] = nil
		best.queue = best.queue[1:]
		best.stats.Queued--
		if j.Status().State.Terminal() {
			// Cancelled while queued: already finished, never ran.
			s.inFlight--
			continue
		}
		return j
	}
}
