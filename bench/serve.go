package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"dresar/internal/figures"
	"dresar/internal/serve"
	"dresar/internal/workload"
)

// serveLoad shapes the serving workload: an open loop of cache-hit
// and cache-miss submits against an in-process dresar-served.
type serveLoad struct {
	HitRate, MissRate float64         // submits per second; misses at most the whole pool
	HitSpecs          []serve.JobSpec // warmed at start-up, then submitted as cache hits
	MissApps          []string        // cache misses: one of these apps ...
	MissMaxK          int             // ... at 4·2^k directory entries, k ≤ MissMaxK
	Conns             int             // keep-alive connections to the server
	SetupReps         int             // server start-ups per run; the last one takes the load
	Poll              time.Duration   // miss status poll interval
}

func cell(app string, entries int) serve.JobSpec {
	return serve.JobSpec{Scale: "small", Apps: []string{app}, Sizes: []int{entries}}
}

// serveMix is the serve-mix workload. The hit specs include FFT with
// and without 1K-entry switch directories, so the served results carry
// the Figure 11 FFT ratio. The misses are cells that take a fraction of
// a second; the 39 of them all run in any run of 20 s or more, so every
// run simulates the same set. The pool stops at 4·2^13 entries: each
// doubling past it doubles a machine's directory memory, which reaches
// hundreds of megabytes by 4·2^17.
var serveMix = serveLoad{
	HitRate: 200, MissRate: 2,
	HitSpecs: []serve.JobSpec{
		cell("fft", 0), cell("fft", 1024), cell("tc", 0), cell("tc", 1024),
		cell("gauss", 0), cell("gauss", 1024), cell("fwa", 0), cell("fwa", 1024),
	},
	MissApps: []string{"gauss", "tc", "fft"}, MissMaxK: 13,
	Conns: 2, SetupReps: 5, Poll: 10 * time.Millisecond,
}

// calPerStart is the number of calibration bursts before each server
// start-up; as many again per start-up follow the load.
const calPerStart = 2

// arrival is one scheduled submit.
type arrival struct {
	at   time.Duration // due time after the load starts
	hit  int           // index into HitSpecs, or -1 for a miss
	miss serve.JobSpec
}

// missPool lists the miss specs in the order the load submits them:
// each app's directory sizes shuffled, apps interleaved in a shuffled
// order per round, so every prefix holds the apps in equal shares and
// no spec repeats (a repeat would be a cache hit).
func missPool(l serveLoad, rng *rand.Rand) []serve.JobSpec {
	per := make([][]serve.JobSpec, len(l.MissApps))
	for i, app := range l.MissApps {
		for k := 0; k <= l.MissMaxK; k++ {
			s := cell(app, 4<<k)
			if !slices.ContainsFunc(l.HitSpecs, func(h serve.JobSpec) bool { return serve.CacheKey(h) == serve.CacheKey(s) }) {
				per[i] = append(per[i], s)
			}
		}
		rng.Shuffle(len(per[i]), func(a, b int) { per[i][a], per[i][b] = per[i][b], per[i][a] })
	}
	var pool []serve.JobSpec
	for round := 0; ; round++ {
		added := false
		for _, i := range rng.Perm(len(per)) {
			if round < len(per[i]) {
				pool = append(pool, per[i][round])
				added = true
			}
		}
		if !added {
			return pool
		}
	}
}

// openLoopSchedule draws the load for d from seed. Hits and misses each
// arrive as a Poisson process conditioned on its expected count: that
// many arrivals at independent uniform times, so every run carries the
// same number of requests. Hits spread uniformly over the hit specs;
// misses follow missPool order, at most the whole pool.
func openLoopSchedule(seed uint64, d time.Duration, l serveLoad) []arrival {
	rng := rand.New(rand.NewPCG(seed, 1))
	at := func() time.Duration { return time.Duration(rng.Int64N(int64(d))) }
	var out []arrival
	for i := 0; i < int(math.Round(l.HitRate*d.Seconds())); i++ {
		out = append(out, arrival{at: at(), hit: rng.IntN(len(l.HitSpecs))})
	}
	pool := missPool(l, rng)
	for i := 0; i < int(math.Round(l.MissRate*d.Seconds())) && i < len(pool); i++ {
		out = append(out, arrival{at: at(), hit: -1, miss: pool[i]})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// server is one in-process dresar-served on a loopback listener.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *serve.Client
	http   *http.Client
}

// startServer starts a server with its cache under dir, waits for
// /readyz, and warms the cache with the hit specs, returning their
// payloads and the time all of that took. The server runs without its
// journal: on a disk shared with other tenants the journal's fsync time
// varies tenfold within an hour, and in slow spells the serialized
// appends queue the hits behind one another, so the hit latency would
// measure the disk rather than the serving code (README.md).
func startServer(l serveLoad, dir string) (*server, [][]byte, time.Duration, error) {
	start := time.Now()
	srv, err := serve.NewServer(serve.Config{
		Workers: 2, MaxSweepWorkers: 1, CacheDir: filepath.Join(dir, "cache"),
	})
	if err != nil {
		return nil, nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // the listen error is the one to report
		return nil, nil, 0, err
	}
	s := &server{srv: srv, hs: serve.NewHTTPServer(srv.Handler(), serve.HTTPTimeouts{}), served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.http = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: l.Conns, MaxIdleConnsPerHost: l.Conns,
	}}
	s.client = &serve.Client{Base: "http://" + ln.Addr().String(), HTTP: s.http}
	payloads, err := s.warm(l)
	if err != nil {
		_ = s.close() // the warm-up error is the one to report
		return nil, nil, 0, err
	}
	return s, payloads, time.Since(start), nil
}

// warm waits for /readyz, then submits every hit spec and returns
// their result payloads.
func (s *server) warm(l serveLoad) ([][]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.ready(ctx); err != nil {
		return nil, err
	}
	ids := make([]string, len(l.HitSpecs))
	for i, spec := range l.HitSpecs {
		st, err := s.client.Submit(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("warm-up submit: %w", err)
		}
		ids[i] = st.ID
	}
	payloads := make([][]byte, len(ids))
	for i, id := range ids {
		if _, err := s.wait(ctx, id, l.Poll); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", id, err)
		}
		var err error
		if payloads[i], err = s.client.Result(ctx, id); err != nil {
			return nil, fmt.Errorf("warm-up result: %w", err)
		}
	}
	return payloads, nil
}

func (s *server) ready(ctx context.Context) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.client.Base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := s.http.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server not ready: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// wait polls a job until it is terminal and reports how many polls it
// took; a job that ends other than done is an error.
func (s *server) wait(ctx context.Context, id string, poll time.Duration) (int, error) {
	for n := 1; ; n++ {
		st, err := s.client.Status(ctx, id)
		if err != nil {
			return n, err
		}
		if st.State.Terminal() {
			if st.State != serve.StateDone {
				return n, fmt.Errorf("job %s %s: %v", id, st.State, st.Error)
			}
			return n, nil
		}
		select {
		case <-ctx.Done():
			return n, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// close stops the HTTP listener and drains the server, waiting for
// every goroutine either started.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	s.http.CloseIdleConnections()
	return err
}

// outcome is one request of the load.
type outcome struct {
	hit                  bool
	app                  string
	latency              time.Duration // from the due time to the result bytes
	submit, poll, result time.Duration
	polls                int
	err                  error
}

// request submits one arrival and fetches its result, checking a hit
// against the payload the warm-up served for the same spec and a
// miss's result document against its spec.
func (s *server) request(l serveLoad, a arrival, due time.Time, payloads [][]byte) outcome {
	o := outcome{hit: a.hit >= 0}
	spec, timeout := a.miss, time.Minute
	if o.hit {
		spec, timeout = l.HitSpecs[a.hit], 10*time.Second
	}
	o.app = spec.Apps[0]
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	t := time.Now()
	st, err := s.client.Submit(ctx, spec)
	o.submit = time.Since(t)
	if err != nil {
		o.err = err
		return o
	}
	if o.hit != (st.State == serve.StateDone && st.Cached) {
		o.err = fmt.Errorf("submit of %v: state %s cached=%v", spec, st.State, st.Cached)
		return o
	}
	if !o.hit {
		t = time.Now()
		o.polls, err = s.wait(ctx, st.ID, l.Poll)
		o.poll = time.Since(t)
		if err != nil {
			o.err = err
			return o
		}
	}
	t = time.Now()
	body, err := s.client.Result(ctx, st.ID)
	o.result = time.Since(t)
	o.latency = time.Since(due)
	switch {
	case err != nil:
		o.err = err
	case o.hit && string(body) != string(payloads[a.hit]):
		o.err = fmt.Errorf("hit %v: body differs from the warm-up payload", spec)
	case !o.hit:
		_, o.err = checkPayload(body, spec)
	}
	return o
}

// servedRow is one cell of a result document.
type servedRow struct {
	App    string         `json:"app"`
	Size   int            `json:"size"`
	Result figures.Result `json:"result"`
}

// checkPayload decodes a single-cell result document and checks that it
// answers spec and that each read miss has exactly one service class.
func checkPayload(body []byte, spec serve.JobSpec) (figures.Result, error) {
	var doc struct{ Rows []servedRow }
	if err := json.Unmarshal(body, &doc); err != nil {
		return figures.Result{}, fmt.Errorf("result of %v: %w", spec, err)
	}
	if len(doc.Rows) != 1 || doc.Rows[0].App != spec.Apps[0] || doc.Rows[0].Size != spec.Sizes[0] {
		return figures.Result{}, fmt.Errorf("result of %v answers another spec: %+v", spec, doc.Rows)
	}
	res := doc.Rows[0].Result
	if res.ReadMisses != res.Clean+res.CtoCHome+res.CtoCSwitch || res.Reads == 0 {
		return res, fmt.Errorf("result of %v: %d read misses but %d+%d+%d serviced", spec, res.ReadMisses, res.Clean, res.CtoCHome, res.CtoCSwitch)
	}
	return res, nil
}

// kernelRefs counts the references an app's small-scale kernel issues.
func kernelRefs(app string) (float64, error) {
	w, err := smallKernel(app)
	if err != nil {
		return 0, err
	}
	n := 0.0
	for ph := 0; ph < w.Phases(); ph++ {
		for p := 0; p < w.Procs(); p++ {
			w.Refs(p, ph, func(workload.Ref) { n++ })
		}
	}
	return n, nil
}

// runServe measures the serving workload: SetupReps server start-ups
// (start to /readyz plus the cache warm-up), then the open-loop load
// on the last one. Calibration bursts run before each start-up and, as
// many again, after the load, while no server runs; the host times but
// hit latency are reported in reference seconds.
func runServe(l serveLoad, o runOpts) (*report, error) {
	figures.ShardWorkers = 1
	r := newReport()
	var host hostSpeed
	calibrate := func(n int) {
		runtime.GC()
		for i := 0; i < n; i++ {
			host.sample()
		}
	}
	refs := map[string]float64{}
	for _, app := range l.MissApps {
		n, err := kernelRefs(app)
		if err != nil {
			return nil, err
		}
		refs[app] = n
	}

	var s *server
	var payloads [][]byte
	var setups []float64
	for i := 0; i < l.SetupReps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		calibrate(calPerStart)
		var d time.Duration
		var err error
		s, payloads, d, err = startServer(l, filepath.Join(o.scratch, fmt.Sprintf("serve-%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		r.span("warm", d)
	}
	warmResults(l, payloads, r)

	before := s.srv.StatsSnapshot().Tenants[serve.DefaultTenant]
	sched := openLoopSchedule(o.seed, o.seconds, l)
	outs, lags := s.drive(l, sched, payloads)
	after := s.srv.StatsSnapshot().Tenants[serve.DefaultTenant]
	r.set("live_heap_mb", liveHeapMB())
	if err := s.close(); err != nil {
		r.fail("server shutdown: %v", err)
	}
	calibrate(calPerStart * l.SetupReps)

	var hitMS, missS []float64
	missByApp := map[string][]float64{}
	polls := 0
	for _, out := range outs {
		r.attempted++
		r.span("submit", out.submit)
		r.span("poll", out.poll)
		r.span("result", out.result)
		polls += out.polls
		switch {
		case out.err != nil:
			r.fail("%v", out.err)
		case out.hit:
			hitMS = append(hitMS, ms(out.latency))
		default:
			missS = append(missS, out.latency.Seconds())
			missByApp[out.app] = append(missByApp[out.app], out.latency.Seconds())
		}
	}
	// The client retries shed and throttled submits; each one is a
	// request the server refused, so it counts as failed.
	if refused := after.Shed - before.Shed + after.Throttled - before.Throttled; refused > 0 {
		r.fail("%d submits refused by admission control", refused)
		r.failed += int(refused) - 1
	}
	// Each app's misses are cut to their median latency before the apps
	// are combined: the apps simulate at different speeds, so a median
	// over all misses would jump from one app's speed to another's.
	var appRefs, appS float64
	for app, lat := range missByApp {
		appRefs += refs[app]
		appS += median(lat)
	}
	r.setHostTimes(&host, median(setups), median(missS), appRefs, appS)
	// Hit latency stays in measured milliseconds. A hit is mostly
	// loopback I/O and goroutine wake-ups, not computation: across runs
	// it moved less than half as much as the calibration burst, so
	// scaling it by the burst widened its spread instead of narrowing it.
	r.set("req_p50_ms", median(hitMS))
	r.note("hit latency p90 %.2f ms (n=%d)", quantile(hitMS, 0.9), len(hitMS))
	if p := tailPercentile(len(hitMS)); p > 90 {
		r.note("hit latency p%g %.2f ms (n=%d)", p, quantile(hitMS, p/100), len(hitMS))
	}
	if p := tailPercentile(len(missS)); p > 0 {
		r.note("miss latency p%g %.1f ms (n=%d)", p, 1e3*quantile(missS, p/100), len(missS))
	}
	r.note("load generator lateness p99 %.2f ms", quantile(lags, 0.99))
	r.set("count.submits", float64(after.Submitted-before.Submitted))
	r.set("count.hits", float64(after.CacheHits-before.CacheHits))
	r.set("count.misses_run", float64(after.Done-before.Done-(after.CacheHits-before.CacheHits)))
	r.set("count.shed", float64(after.Shed-before.Shed))
	r.set("count.throttled", float64(after.Throttled-before.Throttled))
	r.set("count.polls", float64(polls))
	return r, nil
}

// drive issues the schedule open-loop from one dispatching goroutine,
// each request on its own goroutine so that a slow one delays no later
// arrival, and returns every outcome with the dispatcher's lateness.
func (s *server) drive(l serveLoad, sched []arrival, payloads [][]byte) ([]outcome, []float64) {
	outs := make([]outcome, len(sched))
	lags := make([]float64, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.at)
		time.Sleep(time.Until(due))
		lags[i] = ms(time.Since(due))
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			outs[i] = s.request(l, a, due, payloads)
		}(i, a)
	}
	wg.Wait()
	return outs, lags
}

// warmResults checks the warm-up payloads and derives the simulated
// metrics from them: the FFT execution-time ratio of the 1K-entry
// switch directory, and the digest of every served result.
func warmResults(l serveLoad, payloads [][]byte, r *report) {
	h := sha256.New()
	cycles := map[string]float64{}
	for i, spec := range l.HitSpecs {
		h.Write(payloads[i])
		res, err := checkPayload(payloads[i], spec)
		if err != nil {
			r.attempted++
			r.fail("warm-up: %v", err)
			continue
		}
		cycles[fmt.Sprintf("%s/%d", spec.Apps[0], spec.Sizes[0])] = float64(res.ExecCycles)
	}
	r.note("figures_digest %x", h.Sum(nil))
	if base, sd := cycles["fft/0"], cycles["fft/1024"]; base > 0 && sd > 0 {
		r.set("exec_ratio_1k", sd/base)
		r.set("ratio.exec_1k.16n", sd/base)
	}
}
