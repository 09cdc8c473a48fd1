package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. Start and End are nanoseconds
// since the tracer's origin; Parent is the index of the enclosing span
// (-1 for a root); Req groups the spans of one job or request.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// Tracer keeps spans in memory until the benchmark writes them at exit.
// A nil *Tracer records nothing, so untraced runs pay one nil check per
// boundary.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *Tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *Tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes is each span name's total self time in seconds: a span's
// duration minus the part of it that its children cover.
func selfTimes(spans []Span) map[string]float64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		covered := coveredNs(spans, children[i], s.Start, s.End)
		out[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// coveredNs is the length of the union of the child intervals clipped
// to [lo, hi]; children of one span may overlap when they run on
// several goroutines.
func coveredNs(spans []Span, kids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if b < 0 {
			continue
		}
		a, b = max(a, lo), min(b, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curB = -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// writeTrace writes the spans and their self-time summary as JSON.
func writeTrace(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		SelfSeconds map[string]float64 `json:"self_s"`
		Spans       []Span             `json:"spans"`
	}{selfTimes(spans), spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printSelf writes a self-time table, largest first.
func printSelf(w io.Writer, title string, self map[string]float64) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "perfbench: %s self time:\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %10.3f s\n", n, self[n])
	}
}
