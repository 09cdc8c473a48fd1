package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"time"
)

// metricName is the contract every reported metric name satisfies.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last stdout line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// put records a metric; emit checks its name.
func (r *Result) put(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]Metric{}
	}
	r.Metrics[name] = Metric{Value: value, Unit: unit}
}

// emit validates the result and writes it as one JSON line.
func (r *Result) emit(w io.Writer) error {
	for name, m := range r.Metrics {
		if !metricName.MatchString(name) {
			return fmt.Errorf("metric name %q does not match %s", name, metricName)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	if r.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the midpoint median of xs (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTail is the number of samples a tail percentile needs beyond it.
const minTail = 10

// tailQuantile is quantile(xs, q) for a tail percentile, refused with
// an error when fewer than minTail samples lie beyond it: a p99 over
// 100 samples is one sample, not a percentile.
func tailQuantile(xs []float64, q float64) (float64, error) {
	beyond := int(math.Floor((1 - q) * float64(len(xs))))
	if beyond < minTail {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it, need %d", q*100, len(xs), beyond, minTail)
	}
	return quantile(xs, q), nil
}

// endToEnd is what every workload reports with --trace 0. Each metric
// has one meaning a user sees, measured on whatever work the workload
// does (README.md, "Metrics").
type endToEnd struct {
	SetupS   float64 // start until the first timed operation (median of several starts)
	WorkS    float64 // wall time of the run's fixed unit of work
	LatP50Ms float64 // median time one operation took
}

func (e endToEnd) put(r *Result) {
	r.put("setup_s", e.SetupS, "s")
	r.put("work_s", e.WorkS, "s")
	r.put("lat_p50_ms", e.LatP50Ms, "ms")
}

// bundleTimes are the calls a reload makes, timed on the benchmark's
// two reload bundles: decode and verify, and each static pass verify
// re-runs, summed over every entry.
type bundleTimes struct {
	Decode, Verify, Check, Elide, Race, Spec time.Duration
}

// layerMetrics is what every workload reports with --trace 1: per-layer
// figures from calls the benchmark times itself.
type layerMetrics struct {
	CompileS        float64 // cold workloads.Spec.Compile, summed
	CompilePrograms int
	ExecS           float64 // kernel execution calls, summed
	Cycles          uint64  // simulated cycles of the executed kernels
	ECChecked       uint64
	ECElided        uint64
	Mem             memDelta // Go heap activity while kernels execute
	BusyFrac        float64  // Σ task wall / (workers × pool wall)
	DrainS          float64  // pool wall − Σ task wall / workers
	ServiceMs       float64  // median operation service time
	WaitMs          float64  // median operation wait before service
	P90Ms           float64  // p90 of the operation time lat_p50_ms reports
	Bundle          bundleTimes
	MaxRSSMB        float64 // peak RSS of the process doing the work
	OverheadPct     float64 // traced vs untraced time of the same work
}

func (l *layerMetrics) put(r *Result) {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	r.put("compile.ms", l.CompileS*1e3, "ms")
	r.put("compile.programs", float64(l.CompilePrograms), "count")
	r.put("exec.launch_s", l.ExecS, "s")
	r.put("exec.ns_per_cycle", l.ExecS*1e9/float64(l.Cycles), "ns")
	r.put("sim.cycles", float64(l.Cycles), "count")
	r.put("sim.ec_checked", float64(l.ECChecked), "count")
	r.put("sim.ec_elided", float64(l.ECElided), "count")
	r.put("go.alloc_mb", float64(l.Mem.Alloc)/(1<<20), "MB")
	r.put("go.mallocs", float64(l.Mem.Mallocs), "count")
	r.put("go.gc_cycles", float64(l.Mem.GCs), "count")
	r.put("go.gc_pause_ms", float64(l.Mem.PauseNs)/1e6, "ms")
	r.put("runner.busy_frac", l.BusyFrac, "ratio")
	r.put("runner.drain_s", l.DrainS, "s")
	r.put("op.service_ms", l.ServiceMs, "ms")
	r.put("op.wait_ms", l.WaitMs, "ms")
	r.put("op.p90_ms", l.P90Ms, "ms")
	r.put("bundle.decode_ms", ms(l.Bundle.Decode), "ms")
	r.put("bundle.verify_ms", ms(l.Bundle.Verify), "ms")
	r.put("lint.check_ms", ms(l.Bundle.Check), "ms")
	r.put("lint.elide_audit_ms", ms(l.Bundle.Elide), "ms")
	r.put("race.analyze_ms", ms(l.Bundle.Race), "ms")
	r.put("lint.spec_audit_ms", ms(l.Bundle.Spec), "ms")
	r.put("proc.max_rss_mb", l.MaxRSSMB, "MB")
	r.put("trace.overhead_pct", l.OverheadPct, "%")
}
