package main

import (
	"math"
	"testing"
)

// On a host running at half the reference speed, a measured time halves
// in reference seconds and a measured rate doubles.
func TestHostTimesScaleToReference(t *testing.T) {
	half := hostSpeed{bursts: []float64{2 * refBurst.Seconds(), 1, 2 * refBurst.Seconds()}}
	r := newReport()
	if f := r.setHostTimes(&half, 0.4, 10, 3e6, 2); f != 0.5 {
		t.Errorf("speed factor %g, want 0.5", f)
	}
	for name, want := range map[string]float64{
		"setup_s": 0.2, "job_s": 5, "sim_krefs_per_s": 3000, "ratio.host_ns_per_ref": 1e9 / 3e6,
	} {
		if got := r.values[name]; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}
