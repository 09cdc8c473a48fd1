package main

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"lmi/internal/bundle"
	"lmi/internal/chaos"
	"lmi/internal/compiler"
	"lmi/internal/fastsim"
	"lmi/internal/lint"
	"lmi/internal/race"
	"lmi/internal/runner"
	"lmi/internal/serve"
	"lmi/internal/workloads"
)

// serveParams are the serve-reload settings recorded in BENCHMARK.json's
// command line.
type serveParams struct {
	rate float64 // offered open-loop rate, requests/s
}

// minOpenLoop is the fewest open-loop requests a run measures: p90
// then has at least 30 samples beyond it.
const minOpenLoop = 300

// satCycles is how many closed-loop batches a run sends: with the open
// loop, a run serves more than 1000 requests.
const satCycles = 4

// maxLateMs bounds how late the generator may send at p95; a later
// generator measures itself, not the server.
const maxLateMs = 20

// serveStarts is how many times a run starts lmi-serve; setup_s is the
// median, and the last start serves the load.
const serveStarts = 7

// A run makes reloadCount reloads, one every reloadEvery or as soon as
// the previous one returns; tamperKind is the one tampered reload and
// tamperAt its position. Of the five accepted reloads, two install the
// :elide bundle and three the :spec one, whose specialization audit
// makes it the slower.
const (
	reloadCount = 6
	reloadEvery = time.Second
	tamperKind  = bundle.TamperFlipByte
	tamperAt    = 2
)

// bundles are the signed artifacts a serve-reload run uses.
type bundles struct {
	pub                   ed25519.PublicKey
	spec, elide, tampered []byte
	specDigest, elideDig  string
}

// buildBundles signs an all-:spec and an all-:elide bundle of every
// Table V workload, plus a tampered copy of the :spec bundle. The key is
// fixed, so the bytes are the same on every run.
func buildBundles() (*bundles, error) {
	seed := sha256.Sum256([]byte("perfbench bundle signing key"))
	priv := ed25519.NewKeyFromSeed(seed[:])
	wrongSeed := sha256.Sum256([]byte("perfbench wrong key"))
	wrong := ed25519.NewKeyFromSeed(wrongSeed[:])
	var specSpecs, elideSpecs []bundle.BuildSpec
	for _, s := range workloads.All() {
		specSpecs = append(specSpecs, bundle.BuildSpec{Workload: s.Name, Elide: true, Specialize: true})
		elideSpecs = append(elideSpecs, bundle.BuildSpec{Workload: s.Name, Elide: true})
	}
	seal := func(specs []bundle.BuildSpec) (*bundle.Bundle, []byte, error) {
		b, err := bundle.Build(specs, 0)
		if err != nil {
			return nil, nil, err
		}
		if err := b.Seal(priv); err != nil {
			return nil, nil, err
		}
		var buf bytes.Buffer
		err = b.Encode(&buf)
		return b, buf.Bytes(), err
	}
	sb, sbytes, err := seal(specSpecs)
	if err != nil {
		return nil, err
	}
	eb, ebytes, err := seal(elideSpecs)
	if err != nil {
		return nil, err
	}
	tb, err := bundle.Tamper(tamperKind, sb, eb, priv, wrong)
	if err != nil {
		return nil, err
	}
	var tbuf bytes.Buffer
	if err := tb.Encode(&tbuf); err != nil {
		return nil, err
	}
	return &bundles{
		pub:  priv.Public().(ed25519.PublicKey),
		spec: sbytes, elide: ebytes, tampered: tbuf.Bytes(),
		specDigest: sb.Digest, elideDig: eb.Digest,
	}, nil
}

// server is one running lmi-serve process.
type server struct {
	cmd *exec.Cmd
	url string
}

// freeAddr picks a free localhost port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer starts lmi-serve and returns once /readyz answers 200,
// with the time that took: process start, bundle verification, and the
// listener opening.
func startServer(o opts, b *bundles, bundlePath string, logw io.Writer) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(filepath.Join(o.binDir, "lmi-serve"),
		"-addr", addr, "-tier", "compiled", "-specialize",
		"-bundle", bundlePath, "-bundle-pub", hex.EncodeToString(b.pub))
	cmd.Stdout, cmd.Stderr = logw, logw
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, url: "http://" + addr}
	c := &http.Client{Timeout: time.Second}
	for time.Since(t0) < 60*time.Second {
		resp, err := c.Get(s.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return nil, 0, fmt.Errorf("lmi-serve not ready after 60s")
}

// stop drains the server with SIGTERM and waits for it to exit.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	return s.cmd.Wait()
}

// statsJSON is the part of /stats the benchmark reads.
type statsJSON struct {
	BundleDigest string `json:"bundle_digest"`
	Stats        struct {
		Shed      uint64 `json:"shed"`
		Retries   uint64 `json:"retries"`
		HighWater int    `json:"queue_high_water"`
	} `json:"stats"`
}

func getStats(c *http.Client, url string) (statsJSON, error) {
	var st statsJSON
	resp, err := c.Get(url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// reloadOut is one POST /reload.
type reloadOut struct {
	Tampered bool
	Code     int
	Reason   string
	Serving  string
	Want     string // digest that must be serving afterwards
	RTT      time.Duration
	Err      string
}

// reloads posts the reload sequence, one reload every reloadEvery from
// start or as soon as the previous one returns when that is later:
// reloadCount reloads, alternately the :elide and :spec bundles, with the
// tampered bundle at position tamperAt.
func reloads(c *http.Client, url string, b *bundles, start time.Time, tr *Tracer) []reloadOut {
	var outs []reloadOut
	serving := b.specDigest
	for i := 0; i < reloadCount; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * reloadEvery)))
		body, want, tampered := b.elide, b.elideDig, false
		switch {
		case i == tamperAt:
			body, want, tampered = b.tampered, serving, true
		case i%2 == 1:
			body, want = b.spec, b.specDigest
		}
		sp := tr.begin("http.POST /reload", -1, int64(-1-i))
		t0 := time.Now()
		out := reloadOut{Tampered: tampered, Want: want}
		resp, err := c.Post(url+"/reload", "application/json", bytes.NewReader(body))
		if err == nil {
			var r struct {
				Reason  string `json:"reason"`
				Serving string `json:"serving_bundle_digest"`
			}
			err = json.NewDecoder(resp.Body).Decode(&r)
			resp.Body.Close()
			out.Code, out.Reason, out.Serving = resp.StatusCode, r.Reason, r.Serving
		}
		out.RTT = time.Since(t0)
		tr.end(sp)
		if err != nil {
			out.Err = err.Error()
		}
		if !tampered {
			serving = want
		}
		outs = append(outs, out)
	}
	return outs
}

// checkReload reports why a reload's outcome is wrong ("" when right):
// an accepted reload must serve its digest; the tampered one must get
// 422 with its pinned reason and leave the serving digest unchanged.
func checkReload(r reloadOut) string {
	switch {
	case r.Err != "":
		return r.Err
	case r.Tampered && r.Code != http.StatusUnprocessableEntity:
		return fmt.Sprintf("tampered reload answered %d, want 422", r.Code)
	case r.Tampered && r.Reason != string(bundle.ExpectedTamperRejection(tamperKind)):
		return fmt.Sprintf("tampered reload rejected as %q, want %q", r.Reason, bundle.ExpectedTamperRejection(tamperKind))
	case !r.Tampered && r.Code != http.StatusOK:
		return fmt.Sprintf("reload answered %d", r.Code)
	case r.Serving != r.Want:
		return fmt.Sprintf("serving %s after reload, want %s", r.Serving, r.Want)
	}
	return ""
}

// expecter computes the in-process serve.Executor result for a request
// under the bundle a response names, memoizing bench requests (a pure
// function of workload, mechanism and bundle) and timing every Execute.
type expecter struct {
	byDigest map[string]*serve.Executor
	compile  time.Duration // the cold compile of every bench program
	programs int
	mem      memWindow // Go heap activity during Execute calls
	poolWall time.Duration
	workers  int
}

func newExpecter(b *bundles) (*expecter, error) {
	// Compile every bench program once first, so the timed Execute
	// calls find the compile cache as a running server does.
	ex := &expecter{byDigest: map[string]*serve.Executor{}}
	t0 := time.Now()
	for _, s := range workloads.All() {
		for _, m := range benchMechanisms {
			if _, err := s.Compile(benchVariants[m]); err != nil {
				return nil, err
			}
			ex.programs++
		}
	}
	ex.compile = time.Since(t0)
	for digest, body := range map[string][]byte{"": nil, b.specDigest: b.spec, b.elideDig: b.elide} {
		e, err := serve.NewExecutorTier(1, fastsim.TierCompiled)
		if err != nil {
			return nil, err
		}
		e.SetSpecialize(true)
		if body != nil {
			bb, err := bundle.Decode(bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			v, err := bundle.Verify(bb, b.pub)
			if err != nil {
				return nil, err
			}
			if err := e.SetBundle(v); err != nil {
				return nil, err
			}
		}
		ex.byDigest[digest] = e
	}
	return ex, nil
}

// expectKey identifies an Execute call: bench requests by (workload,
// mechanism, digest); chaos requests also by their attempt seed.
type expectKey struct {
	Workload, Mechanism, Digest string
	Kind                        chaos.Kind
	Seed                        uint64
}

func keyOf(s sample) expectKey {
	k := expectKey{Workload: s.Req.Workload, Mechanism: s.Req.Mechanism, Digest: s.Resp.Bundle}
	if s.Req.Workload == "" {
		k.Kind = s.Req.Kind
		k.Seed = serve.AttemptSeed(s.Req.Seed, max(s.Resp.Attempts, 1)-1)
	}
	return k
}

type expected struct {
	Out      serve.Outcome
	Service  time.Duration
	Executor bool // an executor exists for the digest
}

// expectAll runs every distinct Execute the samples need, on the
// runner's pool.
func (ex *expecter) expectAll(samples []sample, tr *Tracer) map[expectKey]expected {
	var keys []expectKey
	seen := map[expectKey]bool{}
	for _, s := range samples {
		if k := keyOf(s); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	res := make([]expected, len(keys))
	ex.workers = runtime.GOMAXPROCS(0)
	t0 := time.Now()
	runner.ForEach(context.Background(), len(keys), ex.workers, func(i int) error {
		k := keys[i]
		e, ok := ex.byDigest[k.Digest]
		if !ok {
			return nil
		}
		req := serve.Request{Workload: k.Workload, Mechanism: k.Mechanism, Kind: k.Kind}
		ex.mem.enter()
		sp := tr.begin("serve.Executor.Execute", -1, int64(i))
		t0 := time.Now()
		out := e.Execute(context.Background(), req, k.Seed)
		res[i] = expected{Out: out, Service: time.Since(t0), Executor: true}
		tr.end(sp)
		ex.mem.exit()
		return nil
	})
	ex.poolWall = time.Since(t0)
	m := make(map[expectKey]expected, len(keys))
	for i, k := range keys {
		m[k] = res[i]
	}
	return m
}

// overheadPct is the tracing overhead on the in-process executor of
// digest: the bench requests of one request cycle (warm by now) run
// untraced, traced, traced and untraced, in that order, so that a drift
// or warm-up across the passes cancels. lmi-serve itself is never
// traced, so only here does a span wrap the work it times. The traced
// passes record into a tracer of their own, kept out of the run's trace.
func (ex *expecter) overheadPct(digest string) float64 {
	e := ex.byDigest[digest]
	reqs := benchRequests()
	pass := func(tr *Tracer) time.Duration {
		t0 := time.Now()
		runner.ForEach(context.Background(), len(reqs), 0, func(i int) error {
			sp := tr.begin("serve.Executor.Execute", -1, int64(i))
			e.Execute(context.Background(), reqs[i], 0)
			tr.end(sp)
			return nil
		})
		return time.Since(t0)
	}
	var plain, traced time.Duration
	for _, on := range []bool{false, true, true, false} {
		if on {
			traced += pass(newTracer())
		} else {
			plain += pass(nil)
		}
	}
	return (float64(traced)/float64(plain) - 1) * 100
}

// checkSample reports why a served request counts as failed ("" when it
// is correct): anything but a 200, a chaos outcome other than detected,
// tolerated or clean, or counters that differ from the in-process
// Execute under the bundle the response names.
func checkSample(s sample, exp map[expectKey]expected) string {
	if s.Err != "" {
		return s.Err
	}
	if s.Code != http.StatusOK {
		return fmt.Sprintf("HTTP %d: %s", s.Code, s.Resp.Error)
	}
	e, ok := exp[keyOf(s)]
	if !ok || !e.Executor {
		return fmt.Sprintf("response names unknown bundle %q", s.Resp.Bundle)
	}
	if e.Out.Err != nil {
		return fmt.Sprintf("in-process Execute failed: %v", e.Out.Err)
	}
	if s.Req.Workload == "" {
		switch chaos.Outcome(s.Resp.Outcome) {
		case chaos.OutcomeDetected, chaos.OutcomeTolerated, chaos.OutcomeClean:
		default:
			return fmt.Sprintf("chaos outcome %q", s.Resp.Outcome)
		}
		if s.Resp.Outcome != string(e.Out.Outcome) {
			return fmt.Sprintf("chaos outcome %q, in-process %q", s.Resp.Outcome, e.Out.Outcome)
		}
	}
	if s.Resp.Cycles != e.Out.Cycles || s.Resp.ECChecked != e.Out.ECChecked || s.Resp.ECElided != e.Out.ECElided {
		return fmt.Sprintf("cycles/ec_checked/ec_elided %d/%d/%d, in-process %d/%d/%d",
			s.Resp.Cycles, s.Resp.ECChecked, s.Resp.ECElided, e.Out.Cycles, e.Out.ECChecked, e.Out.ECElided)
	}
	return ""
}

// runServe is the serve-reload workload: lmi-serve started serveStarts
// times (setup_s); an open-loop Poisson phase for the latency; closed-
// loop batches beside the reload sequence for work_s; then every
// response and reload checked.
func runServe(o opts) (*Result, error) {
	p := o.serve
	if p.rate <= 0 {
		return nil, errors.New("serve-reload needs --serve-rate")
	}
	// The open loop runs for `seconds`, or longer when that is needed
	// for minOpenLoop requests at the offered rate.
	n := max(int(p.rate*o.seconds), minOpenLoop)
	b, err := buildBundles()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	bundlePath := o.path("serve-spec-bundle.json")
	if err := os.WriteFile(bundlePath, b.spec, 0o644); err != nil {
		return nil, err
	}
	logf, err := os.Create(o.path("lmi-serve.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()

	var setups []float64
	var srv *server
	for i := 0; i < serveStarts; i++ {
		s, d, err := startServer(o, b, bundlePath, logf)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < serveStarts-1 {
			if err := s.stop(); err != nil {
				return nil, fmt.Errorf("stopping lmi-serve: %w", err)
			}
			continue
		}
		srv = s
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = srv.stop() // error path: the run already failed
		}
	}()

	var tr *Tracer
	if o.trace {
		tr = newTracer()
	}
	conns := runtime.NumCPU()
	c := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}

	// Reads alone: the open loop, for the latency.
	stream := genStream(o.seed, n, p.rate)
	open := openLoop(c, srv.url, time.Now(), stream, tr)

	// Reads beside writes: satCycles closed-loop batches of one request
	// cycle each, back to back, with the reload sequence starting beside
	// the first. work_s is the batches' wall time.
	var rl []reloadOut
	reloadsDone := make(chan struct{})
	go func() {
		defer close(reloadsDone)
		rl = reloads(c, srv.url, b, time.Now(), tr)
	}()
	var closed []sample
	var work time.Duration
	var batches []float64
	sr := newRNG(o.seed, 200)
	for i := 0; i < satCycles; i++ {
		s, wall := closedLoop(c, srv.url, requestCycle(sr), conns, tr, int64(len(open)+len(closed)))
		closed = append(closed, s...)
		work += wall
		batches = append(batches, wall.Seconds())
	}
	<-reloadsDone

	st, err := getStats(c, srv.url)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stopping lmi-serve: %w", err)
	}

	// Check every response against the in-process executor.
	ex, err := newExpecter(b)
	if err != nil {
		return nil, err
	}
	all := append(append([]sample(nil), open...), closed...)
	exp := ex.expectAll(all, tr)
	res := &Result{Attempted: len(all) + len(rl)}
	for i, s := range all {
		if why := checkSample(s, exp); why != "" {
			res.Failed++
			if res.Failed <= 10 {
				fmt.Fprintf(os.Stderr, "perfbench: request %d %s: %s\n", i, s.Req.Key(), why)
			}
		}
	}
	rejected := 0
	for _, r := range rl {
		if why := checkReload(r); why != "" {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: reload: %s\n", why)
		}
		if r.Tampered {
			rejected++
		}
	}
	if want := rl[len(rl)-1].Want; st.BundleDigest != want {
		res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: /stats serves %s after the reloads, want %s\n", st.BundleDigest, want)
	}

	var lat, late []float64
	for _, s := range open {
		lat = append(lat, s.LatS*1e3)
		late = append(late, s.LateS*1e3)
	}
	lateP95, err := tailQuantile(late, 0.95)
	if err != nil {
		return nil, err
	}
	if lateP95 >= maxLateMs {
		res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: generator ran %.1f ms late at p95, over %d ms\n", lateP95, maxLateMs)
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(os.Stderr, "perfbench: serve-reload: latency p50 %.1f p90 %.1f p95 %.1f ms, generator late p95 %.2f ms\n",
		median(lat), quantile(lat, 0.9), quantile(lat, 0.95), lateP95)
	var reloadMs []float64
	for _, r := range rl {
		reloadMs = append(reloadMs, float64(r.RTT)/1e6)
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve-reload: %d open-loop requests; %d closed-loop requests in batches of %.2f s; %d reloads (%d rejected) of %.0f ms; %d failed; /stats shed %d retries %d queue high water %d\n",
		len(open), len(closed), batches, len(rl), rejected, reloadMs, res.Failed, st.Stats.Shed, st.Stats.Retries, st.Stats.HighWater)

	if !o.trace {
		endToEnd{SetupS: median(setups), WorkS: work.Seconds(), LatP50Ms: median(lat)}.put(res)
		return res, nil
	}

	// Per-layer: the in-process service time of each open-loop request,
	// and the HTTP latency beyond it.
	l := &layerMetrics{
		CompileS: ex.compile.Seconds(), CompilePrograms: ex.programs,
		Mem: ex.mem.d, MaxRSSMB: rss,
	}
	var svc, wait []float64
	for _, s := range open {
		e := exp[keyOf(s)]
		svc = append(svc, e.Service.Seconds()*1e3)
		wait = append(wait, s.LatS*1e3-e.Service.Seconds()*1e3)
		l.ExecS += e.Service.Seconds()
		l.Cycles += e.Out.Cycles
		l.ECChecked += e.Out.ECChecked
		l.ECElided += e.Out.ECElided
	}
	l.ServiceMs, l.WaitMs = median(svc), median(wait)
	if l.P90Ms, err = tailQuantile(lat, 0.9); err != nil {
		return nil, err
	}
	var busy time.Duration
	for _, e := range exp {
		busy += e.Service
	}
	l.BusyFrac = busy.Seconds() / (float64(ex.workers) * ex.poolWall.Seconds())
	l.DrainS = ex.poolWall.Seconds() - busy.Seconds()/float64(ex.workers)
	l.OverheadPct = ex.overheadPct(b.specDigest)
	if l.Bundle, err = timeBundles(b, tr); err != nil {
		return nil, err
	}
	l.put(res)
	spans := tr.Spans()
	printSelf(os.Stderr, o.workload, selfTimes(spans))
	if err := writeTrace(o.path(fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed)), spans); err != nil {
		return nil, err
	}
	return res, nil
}

// timeBundles times, on the two reload bundles, the calls a reload
// makes: bundle.Decode and bundle.Verify, and separately each static
// pass Verify re-runs, summed over every entry.
func timeBundles(b *bundles, tr *Tracer) (bundleTimes, error) {
	var t bundleTimes
	timed := func(name string, acc *time.Duration, f func()) {
		sp := tr.begin(name, -1, 0)
		t0 := time.Now()
		f()
		*acc += time.Since(t0)
		tr.end(sp)
	}
	for _, body := range [][]byte{b.spec, b.elide} {
		var bb *bundle.Bundle
		var err error
		timed("bundle.Decode", &t.Decode, func() { bb, err = bundle.Decode(bytes.NewReader(body)) })
		if err != nil {
			return t, err
		}
		timed("bundle.Verify", &t.Verify, func() { _, err = bundle.Verify(bb, b.pub) })
		if err != nil {
			return t, err
		}
		for i := range bb.Entries {
			e := &bb.Entries[i]
			prog, err := e.DecodeProgram()
			if err != nil {
				return t, err
			}
			timed("lint.CheckWithSource", &t.Check, func() { lint.CheckWithSource(prog, compiler.ModeLMI, e.SourceMap) })
			timed("lint.ElideAudit", &t.Elide, func() { lint.ElideAudit(prog, e.Contract) })
			timed("race.Analyze", &t.Race, func() { race.Analyze(prog, e.Contract, e.SourceMap) })
			if e.SpecCode == nil {
				continue
			}
			residual, err := e.DecodeSpecProgram()
			if err != nil {
				return t, err
			}
			timed("lint.SpecializeAudit", &t.Spec, func() { lint.SpecializeAudit(prog, residual, e.SpecCertificate, *e.SpecContract) })
		}
	}
	return t, nil
}
