package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"

	"lmi/internal/chaos"
	"lmi/internal/serve"
)

// benchmarkJSON reads the metric lists from the repository's
// BENCHMARK.json.
func benchmarkJSON(t *testing.T) (e2e, layers map[string]bool) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]bool{}, map[string]bool{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = true
	}
	for _, m := range doc.PerLayer {
		layers[m.Name] = true
	}
	return e2e, layers
}

func TestMetricNames(t *testing.T) {
	e2e, layers := benchmarkJSON(t)
	for _, set := range []map[string]bool{e2e, layers} {
		for name := range set {
			if !metricName.MatchString(name) {
				t.Errorf("BENCHMARK.json metric %q does not match %s", name, metricName)
			}
		}
	}
	r := &Result{Attempted: 1}
	r.put("bad name!", 1, "s")
	if err := r.emit(io.Discard); err == nil {
		t.Error("emit accepted a metric name outside [A-Za-z0-9_.-]")
	}
	if err := (&Result{}).emit(io.Discard); err == nil {
		t.Error("emit accepted a result with no attempted operation")
	}

	// Every workload reports through endToEnd.put and layerMetrics.put,
	// so each prints exactly the metrics BENCHMARK.json declares.
	same := func(what string, got *Result, want map[string]bool) {
		for name := range got.Metrics {
			if !want[name] {
				t.Errorf("%s metric %q is not declared in BENCHMARK.json", what, name)
			}
		}
		for name := range want {
			if _, ok := got.Metrics[name]; !ok {
				t.Errorf("BENCHMARK.json %s metric %q is never reported", what, name)
			}
		}
	}
	res := &Result{}
	endToEnd{}.put(res)
	same("end-to-end", res, e2e)
	jobs := []jobOut{{Key: "fig12:x/lmi", C: Counters{Cycles: 10, Instrs: 5, ThreadInstrs: 50}, WallS: 1}}
	for len(jobs) < 112 { // as many as a Fig. 12 sweep, enough for its p90
		jobs = append(jobs, jobs[0])
	}
	co := childOut{SweepS: 1, Workers: 2, Jobs: jobs, Layers: &layerMetrics{}}
	l, err := sweepLayers([]childOut{co}, []childOut{co})
	if err != nil {
		t.Fatal(err)
	}
	res = &Result{}
	l.put(res)
	same("per-layer", res, layers)
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := tailQuantile(xs, 0.99); err == nil {
		t.Error("p99 over 999 samples (9 beyond) was not refused")
	}
	xs = append(xs, 999)
	v, err := tailQuantile(xs, 0.99)
	if err != nil {
		t.Fatalf("p99 over 1000 samples refused: %v", err)
	}
	if v != 989 {
		t.Errorf("p99 = %v, want 989 (nearest rank)", v)
	}
	if _, err := tailQuantile(xs[:50], 0.9); err == nil {
		t.Error("p90 over 50 samples (5 beyond) was not refused")
	}
}

func TestPerturbedCounterFails(t *testing.T) {
	want := map[string]Counters{
		"fig12:a/lmi":      {Cycles: 100, Instrs: 10, ECChecked: 3},
		"fig12:b/baseline": {Cycles: 80, Instrs: 8},
	}
	good := []jobOut{{Key: "fig12:a/lmi", C: want["fig12:a/lmi"]}, {Key: "fig12:b/baseline", C: want["fig12:b/baseline"]}}
	if n := checkJobs(want, good, io.Discard); n != 0 {
		t.Fatalf("matching sweep: %d failures", n)
	}
	for name, mutate := range map[string]func(j []jobOut) []jobOut{
		"cycles":  func(j []jobOut) []jobOut { j[0].C.Cycles++; return j },
		"elided":  func(j []jobOut) []jobOut { j[1].C.ECElided = 1; return j },
		"fault":   func(j []jobOut) []jobOut { j[0].C, j[0].Err = Counters{}, "unexpected fault"; return j },
		"missing": func(j []jobOut) []jobOut { return j[:1] },
		"unknown": func(j []jobOut) []jobOut { return append(j, jobOut{Key: "fig12:c/lmi"}) },
	} {
		got := mutate(append([]jobOut(nil), good...))
		if n := checkJobs(want, got, io.Discard); n != 1 {
			t.Errorf("%s: %d failures, want 1", name, n)
		}
	}
}

func TestWrongServeResponseFails(t *testing.T) {
	bench := sample{
		Req:  serve.Request{Workload: "bfs", Mechanism: "lmi"},
		Code: http.StatusOK,
		Resp: runJSON{Status: "ok", Attempts: 1, Cycles: 900, ECChecked: 40, ECElided: 60, Bundle: "d1"},
	}
	chaosReq := sample{
		Req:  serve.Request{Mechanism: "lmi", Kind: chaos.KindAllocExhaust, Seed: 5},
		Code: http.StatusOK,
		Resp: runJSON{Status: "ok", Attempts: 1, Outcome: "detected", Cycles: 30},
	}
	exp := map[expectKey]expected{
		keyOf(bench):    {Out: serve.Outcome{Cycles: 900, ECChecked: 40, ECElided: 60}, Executor: true},
		keyOf(chaosReq): {Out: serve.Outcome{Cycles: 30, Outcome: chaos.OutcomeDetected}, Executor: true},
	}
	if why := checkSample(bench, exp); why != "" {
		t.Fatalf("correct bench response failed: %s", why)
	}
	if why := checkSample(chaosReq, exp); why != "" {
		t.Fatalf("correct chaos response failed: %s", why)
	}
	wrong := map[string]sample{}
	s := bench
	s.Resp.Cycles++
	wrong["cycles"] = s
	s = bench
	s.Resp.ECElided, s.Resp.ECChecked = 0, 100
	wrong["elision"] = s
	s = bench
	s.Code = http.StatusTooManyRequests
	wrong["shed"] = s
	s = bench
	s.Resp.Bundle = "unknown"
	wrong["digest"] = s
	s = bench
	s.Err = "connection reset"
	wrong["transport"] = s
	s = chaosReq
	s.Resp.Outcome = "missed"
	wrong["missed"] = s
	s = chaosReq
	s.Resp.Outcome = "tolerated"
	wrong["outcome"] = s
	for name, s := range wrong {
		if checkSample(s, exp) == "" {
			t.Errorf("%s: wrong response counted as correct", name)
		}
	}

	ok := reloadOut{Code: http.StatusOK, Serving: "d2", Want: "d2"}
	tampered := reloadOut{Tampered: true, Code: http.StatusUnprocessableEntity,
		Reason: "digest-mismatch", Serving: "d2", Want: "d2"}
	if checkReload(ok) != "" || checkReload(tampered) != "" {
		t.Fatalf("correct reloads failed: %q %q", checkReload(ok), checkReload(tampered))
	}
	for name, r := range map[string]reloadOut{
		"tamper-accepted": {Tampered: true, Code: http.StatusOK, Serving: "d3", Want: "d2"},
		"wrong-reason":    {Tampered: true, Code: http.StatusUnprocessableEntity, Reason: "cert-stale", Serving: "d2", Want: "d2"},
		"digest-moved":    {Tampered: true, Code: http.StatusUnprocessableEntity, Reason: "digest-mismatch", Serving: "d3", Want: "d2"},
		"not-installed":   {Code: http.StatusOK, Serving: "d1", Want: "d2"},
		"refused":         {Code: http.StatusUnprocessableEntity, Serving: "d1", Want: "d2"},
	} {
		if checkReload(r) == "" {
			t.Errorf("%s: wrong reload counted as correct", name)
		}
	}
}

func TestStreamIsPureFunctionOfSeed(t *testing.T) {
	a, b := genStream(7, 400, 27), genStream(7, 400, 27)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different streams")
	}
	if reflect.DeepEqual(a, genStream(8, 400, 27)) {
		t.Fatal("different seeds gave the same stream")
	}
	// The scheduled span is n/rate for every seed: the offered rate
	// over the whole stream does not move with the seed.
	n, rate := 400, 27.0
	span := time.Duration(float64(n) / rate * float64(time.Second))
	for _, seed := range []uint64{7, 8, 9} {
		last := genStream(seed, n, rate)[n-1].Due
		if d := last - span; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("seed %d: last request due %v, want %v", seed, last, span)
		}
	}
	// Every full request cycle holds the same mix, whatever the seed.
	cycle := len(requestCycle(newRNG(1, 0)))
	for _, seed := range []uint64{1, 2, 3} {
		bench := 0
		for _, r := range genStream(seed, cycle, 27) {
			if r.Req.Workload != "" {
				bench++
			}
		}
		if bench != cycle-chaosPerCycle {
			t.Errorf("seed %d: %d bench requests per cycle, want %d", seed, bench, cycle-chaosPerCycle)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "job", Start: 0, End: 100, Parent: -1},
		{Name: "compile", Start: 10, End: 30, Parent: 0},
		{Name: "launch", Start: 20, End: 90, Parent: 0},
	}
	got := selfTimes(spans)
	want := map[string]float64{"job": 20e-9, "compile": 20e-9, "launch": 70e-9}
	for k, v := range want {
		if d := got[k] - v; d > 1e-15 || d < -1e-15 {
			t.Errorf("self(%s) = %g, want %g", k, got[k], v)
		}
	}
}
