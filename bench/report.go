package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// report collects one run's outcome: operations attempted and failed,
// metric values, span totals, and diagnostic lines.
type report struct {
	attempted, failed int
	values            map[string]float64
	spans             map[string]time.Duration
	notes             []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, spans: map[string]time.Duration{}}
}

func (r *report) set(name string, v float64)        { r.values[name] = v }
func (r *report) span(name string, d time.Duration) { r.spans[name] += d }
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.note("FAIL "+format, args...)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the diagnostics, then each catalogue metric as
// "name value unit", then the JSON result line. A metric the run could
// not compute reads 0 and fails the run; so does one it did not
// produce, unless absentIsZero: a per-layer metric of a layer the
// workload never enters reads 0.
func (r *report) write(w io.Writer, catalogue []metricDef, absentIsZero bool) error {
	res := result{Metrics: map[string]metricValue{}}
	for _, m := range catalogue {
		v, ok := r.values[m.Name]
		if !ok && absentIsZero {
			v, ok = 0, true
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s not measured", m.Name)
			v = 0
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	if r.attempted == 0 {
		r.fail("no operation attempted")
		r.attempted = 1
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, m := range catalogue {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	res.Correct, res.Attempted, res.Failed = r.failed == 0, r.attempted, r.failed
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
