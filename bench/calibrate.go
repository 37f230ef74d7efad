package main

import (
	"time"
)

// The host-time metrics, all but serve-mix's hit latency (runServe),
// are given in reference seconds: measured seconds scaled by how fast
// the host ran a fixed calibration kernel during the same run, relative
// to the kernel's time on an idle host. On a shared machine the
// simulator's speed drifts with the other tenants' load by a third or
// more within minutes, alike in every cell; the kernel slows with it, so
// the ratio removes most of that drift and keeps what the repository's
// code changed. README.md gives the spreads with and without it.

// refBurst is one calibration burst's time on an idle 2.0 GHz Xeon
// vCPU, the host the bounds in BENCHMARK.json were set on. It fixes the
// scale of reference seconds and must never change.
const refBurst = 5 * time.Millisecond

// calMap is the hash table the kernel updates: 4096 keys, built once
// and never grown, a constant 0.15 MB of every run's live heap.
var calMap = func() map[uint64]uint64 {
	m := make(map[uint64]uint64, 4096)
	for i := uint64(0); i < 4096; i++ {
		m[i] = i
	}
	return m
}()

var calSink uint64

// burst runs the kernel once and returns its time. It neither allocates
// nor calls repository code. Its mix, three quarters of the time integer
// arithmetic with data-dependent branches and one quarter hash-table
// updates, is the one whose slowdowns followed the simulator's most
// closely: arithmetic alone slows less than the simulator, hash-table
// updates alone slow more.
func burst() time.Duration {
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1_200_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&1 == 0 {
			x += uint64(i)
		}
	}
	calSink += x
	x = 7
	for i := 0; i < 120_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calMap[x&4095] += uint64(i)
	}
	calSink += x
	return time.Since(t)
}

// hostSpeed collects a run's calibration bursts.
type hostSpeed struct{ bursts []float64 }

// sample runs one burst. Callers collect garbage first, so that no
// collector work runs beside it.
func (h *hostSpeed) sample() { h.bursts = append(h.bursts, burst().Seconds()) }

// factor is the host's speed relative to the reference, from the median
// burst: 0.8 means the host ran at four fifths of the reference speed,
// and a measured time times factor is in reference seconds.
func (h *hostSpeed) factor() float64 { return refBurst.Seconds() / median(h.bursts) }

// setHostTimes sets the host-time metrics in reference seconds and
// notes the measured values: set-up and job seconds, and the references
// a set of simulations issued and the seconds they took. It returns the
// host's speed factor.
func (r *report) setHostTimes(h *hostSpeed, setupS, jobS, refs, simS float64) float64 {
	f := h.factor()
	r.note("host speed %.4f of the reference (%d bursts); measured setup_s %.6g s, job_s %.6g s, sim_krefs_per_s %.6g",
		f, len(h.bursts), setupS, jobS, refs/simS/1e3)
	r.set("setup_s", f*setupS)
	r.set("job_s", f*jobS)
	r.set("sim_krefs_per_s", refs/(f*simS)/1e3)
	r.set("ratio.host_ns_per_ref", 1e9*f*simS/refs)
	return f
}
