// Command dresar-load drives a dresar-served instance: it submits
// sweep jobs on a bounded concurrency, retries sheds with exponential
// backoff and jitter, and reports submit-to-result latency
// percentiles and throughput. It doubles as the e2e assertion tool:
// -expect-cached fails unless every job was a cache hit, -verify
// compares result payloads byte-for-byte against a golden file, and
// -cancel-after cancels each job mid-run and asserts the typed
// aborted outcome.
//
// It also provides the durability-harness modes: -submit-only records
// accepted job IDs to a file and exits without waiting (the pre-crash
// half of the kill -9 e2e), -wait-ids polls a recorded ID list until
// every job is terminal (the post-restart half), and -soak runs many
// concurrent clients across multiple tenants with random cancellations
// for a wall-clock duration, asserting every accepted job reaches a
// terminal state (sheds and throttles are counted, not failed).
//
// Usage:
//
//	dresar-load -base http://127.0.0.1:8080 [-n 8] [-c 2]
//	            [-apps fft,tc] [-sizes 0,512] [-scale small]
//	            [-deadline-ms 0] [-expect-cached] [-cancel-after 100ms]
//	            [-out result.json] [-verify result.json] [-tenant NAME]
//	dresar-load -submit-only -ids-file ids.txt [-n 8] ...
//	dresar-load -wait-ids ids.txt [-timeout 2m]
//	dresar-load -soak [-duration 10s] [-tenants 4] [-clients 16]
//	            [-cancel-frac 0.1]
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dresar/internal/serve"
)

func main() {
	base := flag.String("base", "http://127.0.0.1:8080", "server base URL")
	n := flag.Int("n", 8, "jobs to submit")
	conc := flag.Int("c", 2, "concurrent clients")
	appsStr := flag.String("apps", "fft", "comma-separated workload list")
	sizesStr := flag.String("sizes", "0,512", "comma-separated switch-directory sizes")
	scale := flag.String("scale", "small", "input scale: small or paper")
	deadlineMS := flag.Int64("deadline-ms", 0, "per-job deadline in ms (0 = server default)")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall client timeout per job")
	expectCached := flag.Bool("expect-cached", false, "fail unless every job is served from the cache")
	cancelAfter := flag.Duration("cancel-after", 0, "cancel each job this long after submit and expect a typed abort")
	outFile := flag.String("out", "", "write the first result payload to this file")
	verifyFile := flag.String("verify", "", "fail unless every result payload is byte-identical to this file")
	tenant := flag.String("tenant", "", "X-Dresar-Tenant header for every request")
	submitOnly := flag.Bool("submit-only", false, "submit jobs and exit without waiting (crash-harness pre-half)")
	idsFile := flag.String("ids-file", "", "with -submit-only: record accepted job IDs here, one per line")
	waitIDs := flag.String("wait-ids", "", "poll the job IDs in this file until every one is terminal, then exit")
	expectDone := flag.Bool("expect-done", false, "with -wait-ids: additionally require every job to end done, not failed/canceled")
	soak := flag.Bool("soak", false, "run the multi-tenant soak: concurrent clients, mixed tenants, random cancels")
	soakDuration := flag.Duration("duration", 10*time.Second, "with -soak: wall-clock run time")
	soakTenants := flag.Int("tenants", 4, "with -soak: number of distinct tenants")
	soakClients := flag.Int("clients", 16, "with -soak: concurrent client goroutines")
	cancelFrac := flag.Float64("cancel-frac", 0.1, "with -soak: fraction of jobs to cancel mid-flight")
	flag.Parse()

	if *waitIDs != "" {
		os.Exit(runWaitIDs(*base, *waitIDs, *timeout, *expectDone))
	}
	if *soak {
		os.Exit(runSoak(*base, *soakDuration, *soakTenants, *soakClients, *cancelFrac, *timeout))
	}

	var sizes []int
	for _, s := range strings.Split(*sizesStr, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			die(fmt.Errorf("bad size %q: %v", s, err))
		}
		sizes = append(sizes, v)
	}
	spec := serve.JobSpec{
		Scale:      *scale,
		Apps:       strings.Split(*appsStr, ","),
		Sizes:      sizes,
		DeadlineMS: *deadlineMS,
	}
	if *submitOnly {
		os.Exit(runSubmitOnly(*base, *tenant, spec, *n, *idsFile))
	}
	var golden []byte
	if *verifyFile != "" {
		var err error
		golden, err = os.ReadFile(*verifyFile)
		die(err)
	}

	type outcome struct {
		latency time.Duration
		state   serve.JobState
		cached  bool
		errKind string
		payload []byte
		err     error
	}
	outcomes := make([]outcome, *n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(*conc, 1))
	start := time.Now()
	for i := 0; i < *n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c := &serve.Client{Base: *base, Tenant: *tenant}
			ctx, cancel := context.WithTimeout(context.Background(), *timeout)
			defer cancel()
			t0 := time.Now()
			st, err := c.Submit(ctx, spec)
			if err != nil {
				outcomes[i] = outcome{err: err}
				return
			}
			if *cancelAfter > 0 {
				time.Sleep(*cancelAfter)
				if _, err := c.Cancel(ctx, st.ID); err != nil {
					outcomes[i] = outcome{err: fmt.Errorf("cancel: %w", err)}
					return
				}
			}
			fin, err := c.Wait(ctx, st.ID, 20*time.Millisecond)
			if err != nil {
				outcomes[i] = outcome{err: err}
				return
			}
			o := outcome{latency: time.Since(t0), state: fin.State, cached: fin.Cached}
			if fin.Error != nil {
				o.errKind = fin.Error.Kind
			}
			if fin.State == serve.StateDone {
				payload, err := c.Result(ctx, st.ID)
				if err != nil {
					o.err = fmt.Errorf("result: %w", err)
				} else {
					o.payload = payload
				}
			}
			outcomes[i] = o
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	// Report, then assert.
	var lats []time.Duration
	states := map[serve.JobState]int{}
	kinds := map[string]int{}
	cached := 0
	failed := false
	var firstPayload []byte
	for i, o := range outcomes {
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "dresar-load: job %d: %v\n", i, o.err)
			failed = true
			continue
		}
		lats = append(lats, o.latency)
		states[o.state]++
		if o.errKind != "" {
			kinds[o.errKind]++
		}
		if o.cached {
			cached++
		}
		if o.payload != nil && firstPayload == nil {
			firstPayload = o.payload
		}
		if golden != nil && o.payload != nil && !bytes.Equal(o.payload, golden) {
			fmt.Fprintf(os.Stderr, "dresar-load: job %d payload differs from %s\n", i, *verifyFile)
			failed = true
		}
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	pct := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	fmt.Printf("jobs=%d ok=%d wall=%s throughput=%.2f jobs/s\n",
		*n, len(lats), wall.Round(time.Millisecond), float64(len(lats))/wall.Seconds())
	fmt.Printf("latency p50=%s p90=%s p99=%s max=%s\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), pct(1.0).Round(time.Microsecond))
	fmt.Printf("states=%v errorKinds=%v cached=%d/%d\n", states, kinds, cached, len(lats))

	if *expectCached && cached != len(lats) {
		fmt.Fprintf(os.Stderr, "dresar-load: expected every job cached, got %d/%d\n", cached, len(lats))
		failed = true
	}
	if *cancelAfter > 0 {
		// Every job must have ended in the typed canceled state —
		// not done, not wedged, not an untyped failure. (A job that
		// finished before the cancel landed is reported done; treat
		// that as a test-setup error so the e2e picks a long job.)
		if states[serve.StateCanceled] != len(lats) {
			fmt.Fprintf(os.Stderr, "dresar-load: expected %d canceled jobs, states=%v\n", len(lats), states)
			failed = true
		}
		if kinds["aborted"] != len(lats) {
			fmt.Fprintf(os.Stderr, "dresar-load: expected typed aborted errors, kinds=%v\n", kinds)
			failed = true
		}
	}
	if *outFile != "" && firstPayload != nil {
		die(os.WriteFile(*outFile, firstPayload, 0o644))
	}
	if failed {
		os.Exit(1)
	}
}

// runSubmitOnly submits n jobs and exits without waiting — the
// pre-crash half of the kill -9 harness. Job i's spec appends a
// distinct extra size so every job is unique work (no cache dedupe on
// the first pass) and the recovered server has real re-running to do.
// The sizes double from 4 entries, so each is a power-of-two number of
// 4-way sets that every cell can build; past 19 jobs they leave the
// server's [0, 2^20] range and the submit is refused.
// Accepted IDs are recorded one per line for a later -wait-ids pass.
func runSubmitOnly(base, tenant string, spec serve.JobSpec, n int, idsFile string) int {
	c := &serve.Client{Base: base, Tenant: tenant}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var ids []string
	for i := 0; i < n; i++ {
		s := spec
		s.Sizes = append(append([]int{}, spec.Sizes...), 4<<i)
		st, err := c.Submit(ctx, s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dresar-load: submit %d: %v\n", i, err)
			return 1
		}
		ids = append(ids, st.ID)
	}
	fmt.Printf("submitted=%d\n", len(ids))
	if idsFile != "" {
		if err := os.WriteFile(idsFile, []byte(strings.Join(ids, "\n")+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "dresar-load:", err)
			return 1
		}
	}
	return 0
}

// runWaitIDs polls every job ID in idsFile until each is terminal —
// the post-restart half of the crash harness. A job the server no
// longer knows, or one still live at the deadline, fails the run:
// accepted work must never be lost or wedged by a crash.
func runWaitIDs(base, idsFile string, timeout time.Duration, expectDone bool) int {
	f, err := os.Open(idsFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dresar-load:", err)
		return 1
	}
	defer f.Close()
	var ids []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if id := strings.TrimSpace(sc.Text()); id != "" {
			ids = append(ids, id)
		}
	}
	c := &serve.Client{Base: base}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	states := map[serve.JobState]int{}
	code := 0
	for _, id := range ids {
		fin, err := c.Wait(ctx, id, 20*time.Millisecond)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dresar-load: job %s never reached a terminal state: %v\n", id, err)
			code = 1
			continue
		}
		states[fin.State]++
		if expectDone && fin.State != serve.StateDone {
			msg := ""
			if fin.Error != nil {
				msg = fin.Error.Message
			}
			fmt.Fprintf(os.Stderr, "dresar-load: job %s ended %s: %s\n", id, fin.State, msg)
			code = 1
		}
	}
	fmt.Printf("waited=%d states=%v\n", len(ids), states)
	return code
}

// runSoak floods the server from many concurrent clients spread across
// tenants, cancelling a fraction of jobs mid-flight. Sheds (quota /
// overloaded) are expected under pressure and counted, not failed; the
// invariant asserted is that every accepted job reaches a terminal
// state and no request errors out untyped.
func runSoak(base string, dur time.Duration, tenants, clients int, cancelFrac float64, timeout time.Duration) int {
	if tenants < 1 {
		tenants = 1
	}
	pool := []serve.JobSpec{
		{Apps: []string{"fft"}, Sizes: []int{0}},
		{Apps: []string{"fft"}, Sizes: []int{512}},
		{Apps: []string{"tc"}, Sizes: []int{0, 512}},
		{Apps: []string{"fft", "tc"}, Sizes: []int{128}},
	}
	var submitted, terminal, cachedHits, cancels, shed, errs atomic.Int64
	states := make([]map[serve.JobState]int, clients) // per-client, merged at the end
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i) + 1))
			st := map[serve.JobState]int{}
			states[i] = st
			c := &serve.Client{
				Base:        base,
				Tenant:      fmt.Sprintf("soak-%d", i%tenants),
				MaxRetries:  1,
				BaseBackoff: 5 * time.Millisecond,
				MaxBackoff:  50 * time.Millisecond,
				Rand:        rng,
			}
			for time.Now().Before(deadline) {
				spec := pool[rng.Intn(len(pool))]
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				js, err := c.Submit(ctx, spec)
				if err != nil {
					if je, ok := err.(*serve.JobError); ok &&
						(je.Kind == serve.KindQuota || je.Kind == serve.KindOverloaded || je.Kind == serve.KindDraining) {
						shed.Add(1)
						time.Sleep(time.Duration(rng.Intn(20)+5) * time.Millisecond)
					} else {
						errs.Add(1)
						fmt.Fprintf(os.Stderr, "dresar-load: soak submit: %v\n", err)
					}
					cancel()
					continue
				}
				submitted.Add(1)
				if rng.Float64() < cancelFrac {
					time.Sleep(time.Duration(rng.Intn(5)) * time.Millisecond)
					if _, err := c.Cancel(ctx, js.ID); err == nil {
						cancels.Add(1)
					}
				}
				fin, err := c.Wait(ctx, js.ID, 10*time.Millisecond)
				if err != nil {
					errs.Add(1)
					fmt.Fprintf(os.Stderr, "dresar-load: soak job %s stuck: %v\n", js.ID, err)
					cancel()
					continue
				}
				terminal.Add(1)
				st[fin.State]++
				if fin.Cached {
					cachedHits.Add(1)
				}
				cancel()
			}
		}(i)
	}
	wg.Wait()
	merged := map[serve.JobState]int{}
	for _, st := range states {
		for k, v := range st {
			merged[k] += v
		}
	}
	fmt.Printf("soak: submitted=%d terminal=%d states=%v cached=%d cancels=%d shed=%d errs=%d\n",
		submitted.Load(), terminal.Load(), merged, cachedHits.Load(), cancels.Load(), shed.Load(), errs.Load())
	if errs.Load() > 0 || terminal.Load() != submitted.Load() {
		fmt.Fprintf(os.Stderr, "dresar-load: soak failed: %d errors, %d/%d jobs terminal\n",
			errs.Load(), terminal.Load(), submitted.Load())
		return 1
	}
	if submitted.Load() == 0 {
		fmt.Fprintln(os.Stderr, "dresar-load: soak submitted nothing (all shed?)")
		return 1
	}
	return 0
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dresar-load:", err)
		os.Exit(1)
	}
}
