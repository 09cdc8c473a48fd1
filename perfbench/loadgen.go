package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"lmi/internal/chaos"
	"lmi/internal/serve"
	"lmi/internal/workloads"
)

// benchMechanisms are the Fig. 12 mechanisms bench requests run under,
// in request-cycle order; benchVariants maps them to their variants.
var (
	benchMechanisms = []string{"baseline", "baggybounds", "gpushield", "lmi"}
	benchVariants   = map[string]workloads.Variant{
		"baseline": workloads.VariantBase, "baggybounds": workloads.VariantBaggy,
		"gpushield": workloads.VariantGPUShield, "lmi": workloads.VariantLMI,
	}
)

// chaosPairs are the (mechanism, injection) pairs whose outcome is
// detected, tolerated or clean for every seed (300 seeds each surveyed
// when the list was made), so a served chaos request never fails by
// design. Pairs a mechanism misses on some seeds (um-flip and
// free-skip-nullify on lmi, spurious-elide, ...) are left out: they
// are the chaos campaign's subject, not load.
var chaosPairs = []struct {
	mech string
	kind chaos.Kind
}{
	{"lmi", chaos.KindControl}, {"lmi", chaos.KindAllocMisround}, {"lmi", chaos.KindAllocExhaust},
	{"lmi", chaos.KindExtentFlip}, {"lmi", chaos.KindHintSpurious}, {"lmi", chaos.KindRaceDropBar},
	{"lmi", chaos.KindRaceStridePerturb}, {"lmi", chaos.KindRaceDemoteAtomic},
	{"lmi+track", chaos.KindControl}, {"lmi+track", chaos.KindAllocMisround}, {"lmi+track", chaos.KindAllocExhaust},
	{"lmi+track", chaos.KindExtentFlip}, {"lmi+track", chaos.KindHintDrop}, {"lmi+track", chaos.KindHintSpurious},
	{"lmi+track", chaos.KindOCUMisdecode}, {"lmi+track", chaos.KindFreeSkipNullify},
	{"lmi+track", chaos.KindRaceDropBar}, {"lmi+track", chaos.KindRaceStridePerturb}, {"lmi+track", chaos.KindRaceDemoteAtomic},
	{"baggybounds", chaos.KindControl}, {"baggybounds", chaos.KindAllocMisround}, {"baggybounds", chaos.KindAllocExhaust},
	{"baggybounds", chaos.KindExtentFlip}, {"baggybounds", chaos.KindRaceDropBar},
	{"baggybounds", chaos.KindRaceStridePerturb}, {"baggybounds", chaos.KindRaceDemoteAtomic},
	{"gpushield", chaos.KindControl}, {"gpushield", chaos.KindAllocExhaust}, {"gpushield", chaos.KindExtentFlip},
	{"gpushield", chaos.KindUMFlip}, {"gpushield", chaos.KindRaceDropBar},
	{"gpushield", chaos.KindRaceStridePerturb}, {"gpushield", chaos.KindRaceDemoteAtomic},
}

// chaosPerCycle is the number of chaos requests per request cycle,
// beside one bench request per (workload, mechanism): a third of the
// stream, so the median request is a bench request and the cheap chaos
// requests show head-of-line blocking in the tail.
const chaosPerCycle = 56

// benchRequests is every Table V workload under every Fig. 12
// mechanism, once.
func benchRequests() []serve.Request {
	var reqs []serve.Request
	for _, s := range workloads.All() {
		for _, m := range benchMechanisms {
			reqs = append(reqs, serve.Request{Workload: s.Name, Mechanism: m})
		}
	}
	return reqs
}

// requestCycle is one shuffled cycle of the request mix: every Table V
// workload under every Fig. 12 mechanism once, plus chaosPerCycle
// seeded chaos requests. Fixing the mix per cycle keeps the amount of
// work in a run independent of the seed.
func requestCycle(r *rng) []serve.Request {
	reqs := benchRequests()
	for i := 0; i < chaosPerCycle; i++ {
		p := chaosPairs[r.intn(len(chaosPairs))]
		reqs = append(reqs, serve.Request{Mechanism: p.mech, Kind: p.kind, Seed: r.next()})
	}
	out := make([]serve.Request, len(reqs))
	for i, j := range r.perm(len(reqs)) {
		out[i] = reqs[j]
	}
	return out
}

// loadReq is one open-loop request and the time it is due, relative to
// the start of the phase.
type loadReq struct {
	Due time.Duration
	Req serve.Request
}

// genStream is the open-loop stream: n requests from repeated request
// cycles, with exponential gaps (a Poisson process) at the given rate,
// scaled so that the last request is due at exactly n/rate seconds: the
// offered rate over the whole stream is the same for every seed. It is
// a pure function of (seed, n, rate).
func genStream(seed uint64, n int, rate float64) []loadReq {
	r := newRNG(seed, 100)
	var out []loadReq
	var dues []float64
	var due float64
	for len(out) < n {
		for _, req := range requestCycle(r) {
			if len(out) == n {
				break
			}
			due += r.exp(1 / rate)
			dues = append(dues, due)
			out = append(out, loadReq{Req: req})
		}
	}
	scale := float64(n) / rate / due
	for i := range out {
		out[i].Due = time.Duration(dues[i] * scale * float64(time.Second))
	}
	return out
}

// runJSON is the /run response fields the benchmark checks.
type runJSON struct {
	Status    string `json:"status"`
	Attempts  int    `json:"attempts"`
	Outcome   string `json:"outcome"`
	Cycles    uint64 `json:"cycles"`
	ECChecked uint64 `json:"ec_checked"`
	ECElided  uint64 `json:"ec_elided"`
	Error     string `json:"error"`
	Bundle    string `json:"bundle_digest"`
}

// sample is one request's measured outcome.
type sample struct {
	Req    serve.Request
	Code   int
	Resp   runJSON
	Err    string
	LateS  float64 // how late the generator dispatched it
	LatS   float64 // due (or, closed loop, sent) until response read
	SentAt time.Time
	DoneAt time.Time
}

// post sends one /run request.
func post(c *http.Client, url string, req serve.Request) (int, runJSON, error) {
	var out runJSON
	body, err := json.Marshal(req)
	if err != nil {
		return 0, out, err
	}
	resp, err := c.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, out, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, out, err
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return resp.StatusCode, out, fmt.Errorf("decoding /run response: %w", err)
	}
	return resp.StatusCode, out, nil
}

// openLoop sends every request at its due time, whatever is still in
// flight, over at most conns connections. Latency runs from the due
// time, so a stall also charges the requests queued behind it.
func openLoop(c *http.Client, url string, start time.Time, stream []loadReq, tr *Tracer) []sample {
	samples := make([]sample, len(stream))
	var wg sync.WaitGroup
	for i := range stream {
		due := start.Add(stream[i].Due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			s := &samples[i]
			s.Req = stream[i].Req
			s.SentAt = time.Now()
			s.LateS = s.SentAt.Sub(due).Seconds()
			root := tr.begin("loadgen.request", -1, int64(i))
			sp := tr.begin("http.POST /run", root, int64(i))
			code, resp, err := post(c, url, s.Req)
			tr.end(sp)
			tr.end(root)
			s.DoneAt = time.Now()
			s.LatS = s.DoneAt.Sub(due).Seconds()
			s.Code, s.Resp = code, resp
			if err != nil {
				s.Err = err.Error()
			}
		}(i, due)
	}
	wg.Wait()
	return samples
}

// closedLoop sends reqs back to back over conns connections and
// returns the samples and the wall time of the whole batch.
func closedLoop(c *http.Client, url string, reqs []serve.Request, conns int, tr *Tracer, reqBase int64) ([]sample, time.Duration) {
	samples := make([]sample, len(reqs))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(reqs) {
					return
				}
				s := &samples[i]
				s.Req = reqs[i]
				s.SentAt = time.Now()
				sp := tr.begin("http.POST /run", -1, reqBase+int64(i))
				code, resp, err := post(c, url, s.Req)
				tr.end(sp)
				s.DoneAt = time.Now()
				s.LatS = s.DoneAt.Sub(s.SentAt).Seconds()
				s.Code, s.Resp = code, resp
				if err != nil {
					s.Err = err.Error()
				}
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(t0)
}
