package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"lmi/internal/experiments"
	"lmi/internal/fastsim"
	"lmi/internal/runner"
	"lmi/internal/sim"
	"lmi/internal/workloads"
)

// The Fig. 12 and Fig. 13 variant orders, as internal/experiments
// submits them.
var (
	fig12Variants = []workloads.Variant{workloads.VariantBase, workloads.VariantBaggy, workloads.VariantGPUShield, workloads.VariantLMI}
	fig13Variants = []workloads.Variant{workloads.VariantBase, workloads.VariantLMIDBI, workloads.VariantMemcheck}
)

// sweepPart is one runner pool call: a figure's jobs in submission order.
type sweepPart struct {
	fig  string
	jobs []runner.Job
}

// sweepParts builds a sweep workload's runner calls. The seed permutes
// each figure's submission order, which moves the long jobs within the
// pool's schedule; the set of jobs and every per-job result stay fixed.
func sweepParts(workload string, seed uint64) ([]sweepPart, error) {
	cfg := experiments.SimConfig()
	fig12 := func(tier fastsim.Tier) sweepPart {
		var jobs []runner.Job
		for _, s := range workloads.All() {
			for _, v := range fig12Variants {
				jobs = append(jobs, runner.Job{Spec: s, Variant: v, Config: cfg, Tier: tier})
			}
		}
		return sweepPart{"fig12", jobs}
	}
	fig13 := func(tier fastsim.Tier) sweepPart {
		var jobs []runner.Job
		for _, s := range workloads.Fig13Set() {
			for _, v := range fig13Variants {
				jobs = append(jobs, runner.Job{Spec: s, Variant: v, Config: cfg, AtDBIGrid: true, Tier: tier})
			}
		}
		return sweepPart{"fig13", jobs}
	}
	var parts []sweepPart
	switch workload {
	case wlCycle:
		parts = []sweepPart{fig12(fastsim.TierCycle)}
	case wlCompiled:
		parts = []sweepPart{fig12(fastsim.TierCompiled), fig13(fastsim.TierCompiled)}
	default:
		return nil, fmt.Errorf("%q is not a sweep workload", workload)
	}
	for pi := range parts {
		p := &parts[pi]
		order := newRNG(seed, uint64(pi)).perm(len(p.jobs))
		shuffled := make([]runner.Job, len(p.jobs))
		for i, j := range order {
			shuffled[i] = p.jobs[j]
		}
		p.jobs = shuffled
	}
	return parts, nil
}

// jobKey names a job in the reference: "fig12:bfs/lmi".
func jobKey(fig string, j runner.Job) string { return fig + ":" + j.Name() }

// jobOut is one job's outcome as the sweep child reports it.
type jobOut struct {
	Key    string   `json:"key"`
	C      Counters `json:"counters"`
	Err    string   `json:"err,omitempty"`
	WallS  float64  `json:"wall_s"`
	StartS float64  `json:"start_s,omitempty"` // traced: start, from the figure's submission
}

// childOut is the sweep child's report: its last stdout line.
type childOut struct {
	SweepS  float64            `json:"sweep_s"`
	Workers int                `json:"workers"`
	RSSMB   float64            `json:"rss_mb"`
	Jobs    []jobOut           `json:"jobs"`
	Layers  *layerMetrics      `json:"layers,omitempty"`
	SelfS   map[string]float64 `json:"self_s,omitempty"`
}

// runSweepChild is one full sweep in a fresh process, so every sweep
// compiles cold and its peak RSS is its own. It prints "start" when its
// set-up is done and the timed sweep begins, then its report.
func runSweepChild(workload string, seed uint64, traced bool, traceOut string) error {
	parts, err := sweepParts(workload, seed)
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	var tr *Tracer
	var ls *layerMetrics
	if traced {
		tr, ls = newTracer(), &layerMetrics{}
	}
	fmt.Println("start")
	out := childOut{Workers: workers}
	t0 := time.Now()
	compiled := map[string]bool{}
	for _, p := range parts {
		if traced {
			out.Jobs = append(out.Jobs, tracedPart(tr, ls, compiled, p, workers, int64(len(out.Jobs)))...)
			continue
		}
		rep := runner.RunNamed(p.fig, p.jobs, workers)
		for _, r := range rep.Results {
			out.Jobs = append(out.Jobs, toJobOut(p.fig, r.Job, r.Stats, r.Err, r.Wall))
		}
	}
	out.SweepS = time.Since(t0).Seconds()
	if out.RSSMB, err = peakRSSMB("self"); err != nil {
		return err
	}
	if traced {
		spans := tr.Spans()
		ls.CompilePrograms = len(compiled)
		out.Layers, out.SelfS = ls, selfTimes(spans)
		if err := writeTrace(traceOut, spans); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

func toJobOut(fig string, j runner.Job, st *sim.KernelStats, err error, wall time.Duration) jobOut {
	o := jobOut{Key: jobKey(fig, j), WallS: wall.Seconds()}
	if err != nil {
		o.Err = err.Error()
	} else {
		o.C = countersOf(st, j.Tier)
	}
	return o
}

// tracedPart runs one figure's jobs on the runner's pool with a span
// around each layer call. The per-job pipeline is the one runner.Run
// executes (workloads.RunProgramTierAtCtx), unrolled so each layer's
// public call is timed from here.
func tracedPart(tr *Tracer, ls *layerMetrics, compiled map[string]bool, p sweepPart, workers int, reqBase int64) []jobOut {
	outs := make([]jobOut, len(p.jobs))
	var mu sync.Mutex
	mw := &memWindow{}
	t0 := time.Now()
	runner.ForEach(context.Background(), len(p.jobs), workers, func(i int) error {
		j := p.jobs[i]
		req := reqBase + int64(i)
		start := time.Since(t0)
		root := tr.begin("runner.job", -1, req)
		st, d, err := tracedJob(tr, mw, j, root, req)
		wall := tr.end(root)
		mu.Lock()
		defer mu.Unlock()
		ls.CompileS += d.compile.Seconds()
		ls.ExecS += d.exec.Seconds()
		compiled[j.Name()] = true
		outs[i] = toJobOut(p.fig, j, st, err, wall)
		outs[i].StartS = start.Seconds()
		return nil
	})
	ls.Mem.add(mw.d)
	return outs
}

// jobTimes are one traced job's compile and kernel-execution times.
type jobTimes struct {
	compile, exec time.Duration
}

func tracedJob(tr *Tracer, mw *memWindow, j runner.Job, root int, req int64) (st *sim.KernelStats, d jobTimes, err error) {
	s := j.Spec
	sp := tr.begin("workloads.Spec.Compile", root, req)
	prog, err := s.Compile(j.Variant)
	d.compile = tr.end(sp)
	if err != nil {
		return nil, d, err
	}
	sp = tr.begin("sim.NewDevice+Malloc", root, req)
	dev, err := sim.NewDevice(j.Config, workloads.NewMechanism(j.Variant))
	var in, out uint64
	if err == nil {
		in, err = dev.Malloc(s.N * 4)
	}
	if err == nil {
		out, err = dev.Malloc(s.N * 4)
	}
	tr.end(sp)
	if err != nil {
		return nil, d, err
	}
	grid := s.LaunchGrid(j.Variant)
	if j.AtDBIGrid && s.DBIGrid > 0 {
		grid = s.DBIGrid
	}
	params := []uint64{in, out, s.N}
	ctx := context.Background()
	if j.Tier == fastsim.TierCycle {
		mw.enter()
		sp = tr.begin("sim.Device.LaunchCtx", root, req)
		st, err = dev.LaunchCtx(ctx, prog, grid, s.Block, params)
		d.exec = tr.end(sp)
		mw.exit()
	} else {
		sp = tr.begin("fastsim.Compile", root, req)
		cp, cerr := fastsim.Compile(prog)
		tr.end(sp)
		if cerr != nil {
			return nil, d, cerr
		}
		mw.enter()
		sp = tr.begin("fastsim.Compiled.LaunchCtx", root, req)
		st, err = cp.LaunchCtx(ctx, dev, grid, s.Block, params)
		d.exec = tr.end(sp)
		mw.exit()
	}
	if err == nil {
		err = runner.FaultError(j.Name(), st)
	}
	return st, d, err
}

// memDelta is a runtime.MemStats difference.
type memDelta struct {
	Alloc   uint64 `json:"alloc_bytes"`
	Mallocs uint64 `json:"mallocs"`
	GCs     uint32 `json:"gc_cycles"`
	PauseNs uint64 `json:"gc_pause_ns"`
}

func (m *memDelta) add(o memDelta) {
	m.Alloc += o.Alloc
	m.Mallocs += o.Mallocs
	m.GCs += o.GCs
	m.PauseNs += o.PauseNs
}

// memWindow accumulates runtime.MemStats deltas over the intervals in
// which at least one kernel execution is in flight. Go has no
// per-goroutine allocation counter, so with several workers this is
// the allocation of the execution-busy part of the work; compiles and
// device set-up overlapping an execution on another worker are
// included.
type memWindow struct {
	mu       sync.Mutex
	inFlight int
	start    runtime.MemStats
	d        memDelta
}

func (m *memWindow) enter() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.inFlight == 0 {
		runtime.ReadMemStats(&m.start)
	}
	m.inFlight++
}

func (m *memWindow) exit() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inFlight--
	if m.inFlight > 0 {
		return
	}
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	m.d.add(memDelta{
		Alloc:   now.TotalAlloc - m.start.TotalAlloc,
		Mallocs: now.Mallocs - m.start.Mallocs,
		GCs:     now.NumGC - m.start.NumGC,
		PauseNs: now.PauseTotalNs - m.start.PauseTotalNs,
	})
}

// peakRSSMB reads VmHWM (peak resident set) of a process from /proc.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// spawnChild starts this binary in a sub-mode and returns the time
// from the spawn until the child printed "start" (its set-up time),
// and the child's last stdout line.
func spawnChild(args ...string) (setup time.Duration, last string, err error) {
	self, err := os.Executable()
	if err != nil {
		return 0, "", err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, "", err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, "", err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Text()
		if line == "start" && setup == 0 {
			setup = time.Since(t0)
			continue
		}
		last = line
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return 0, "", fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	if scanErr != nil {
		return 0, "", scanErr
	}
	if setup == 0 {
		return 0, "", fmt.Errorf("%s: child never started", strings.Join(args, " "))
	}
	return setup, last, nil
}

// setupProbes is how many extra cold starts a sweep run times for
// setup_s before each sweep, so the median has enough samples taken
// across the whole run.
const setupProbes = 15

// runSweep is a sweep workload: repeated cold sweeps in child
// processes for about `seconds`, each checked job by job against the
// reference. With trace, sweeps alternate untraced and traced.
func runSweep(o opts) (*Result, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	want := ref[o.workload]
	if len(want) == 0 {
		return nil, fmt.Errorf("no reference counters for %s", o.workload)
	}
	var setups []float64
	res := &Result{}
	var plain, traced []childOut
	t0 := time.Now()
	for n := 0; ; n++ {
		for i := 0; i < setupProbes; i++ {
			d, _, err := spawnChild("probe", "--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10))
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
		tracedRun := o.trace && n%2 == 1
		args := []string{"child", "--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10)}
		if tracedRun {
			args = append(args, "--trace", "1", "--trace-out",
				filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d-%d.json", o.workload, o.seed, n)))
		}
		d, last, err := spawnChild(args...)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		var co childOut
		if err := json.Unmarshal([]byte(last), &co); err != nil {
			return nil, fmt.Errorf("sweep child report: %w", err)
		}
		res.Attempted += len(co.Jobs)
		res.Failed += checkJobs(want, co.Jobs, os.Stderr)
		if tracedRun {
			traced = append(traced, co)
		} else {
			plain = append(plain, co)
		}
		// Enough sweeps: at least one of each kind, and about `seconds`
		// of sweeping.
		el := time.Since(t0).Seconds()
		if len(plain) > 0 && (!o.trace || len(traced) > 0) && el+el/float64(n+1)/2 > o.seconds {
			break
		}
	}
	res.Correct = res.Failed == 0

	if !o.trace {
		var walls []float64
		for _, c := range plain {
			walls = append(walls, c.SweepS)
		}
		// The operation a researcher waits on is the whole sweep.
		endToEnd{SetupS: median(setups), WorkS: median(walls), LatP50Ms: median(walls) * 1e3}.put(res)
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d sweeps %v s, %d setup samples\n", o.workload, len(walls), walls, len(setups))
		return res, nil
	}
	l, err := sweepLayers(plain, traced)
	if err != nil {
		return nil, err
	}
	// The reload bundles' calls, as every workload's traced run times
	// them (README.md, "Metrics").
	b, err := buildBundles()
	if err != nil {
		return nil, err
	}
	if l.Bundle, err = timeBundles(b, nil); err != nil {
		return nil, err
	}
	l.put(res)
	for _, c := range traced {
		printSelf(os.Stderr, o.workload+" traced sweep", c.SelfS)
	}
	return res, nil
}

// sweepLayers is the per-layer report of a sweep run: medians over its
// traced sweeps, and the tracing overhead against its untraced sweeps.
func sweepLayers(plain, traced []childOut) (*layerMetrics, error) {
	med := func(f func(c childOut) float64) float64 {
		var xs []float64
		for _, c := range traced {
			xs = append(xs, f(c))
		}
		return median(xs)
	}
	var pw []float64
	for _, c := range plain {
		pw = append(pw, c.SweepS)
	}
	l := &layerMetrics{
		CompileS:        med(func(c childOut) float64 { return c.Layers.CompileS }),
		CompilePrograms: int(med(func(c childOut) float64 { return float64(c.Layers.CompilePrograms) })),
		ExecS:           med(func(c childOut) float64 { return c.Layers.ExecS }),
		Mem: memDelta{
			Alloc:   uint64(med(func(c childOut) float64 { return float64(c.Layers.Mem.Alloc) })),
			Mallocs: uint64(med(func(c childOut) float64 { return float64(c.Layers.Mem.Mallocs) })),
			GCs:     uint32(med(func(c childOut) float64 { return float64(c.Layers.Mem.GCs) })),
			PauseNs: uint64(med(func(c childOut) float64 { return float64(c.Layers.Mem.PauseNs) })),
		},
		BusyFrac: med(func(c childOut) float64 {
			return sumWall(c.Jobs) / (float64(c.Workers) * c.SweepS)
		}),
		DrainS: med(func(c childOut) float64 {
			return c.SweepS - sumWall(c.Jobs)/float64(c.Workers)
		}),
		ServiceMs:   med(func(c childOut) float64 { return median(jobWallsMs(c.Jobs)) }),
		MaxRSSMB:    med(func(c childOut) float64 { return c.RSSMB }),
		OverheadPct: (med(func(c childOut) float64 { return c.SweepS })/median(pw) - 1) * 100,
	}
	var waits, p90s []float64
	for _, c := range traced {
		var w []float64
		for _, j := range c.Jobs {
			w = append(w, j.StartS*1e3)
		}
		p90, err := tailQuantile(jobWallsMs(c.Jobs), 0.9)
		if err != nil {
			return nil, err
		}
		waits, p90s = append(waits, median(w)), append(p90s, p90)
	}
	l.WaitMs, l.P90Ms = median(waits), median(p90s)
	// Every sweep runs the same jobs, so any traced sweep's counters do:
	// the output check has already matched them against the reference.
	t := sumCounters(traced[0].Jobs)
	l.Cycles, l.ECChecked, l.ECElided = t.Cycles, t.ECChecked, t.ECElided
	return l, nil
}

// jobWallsMs is every job's run time on its worker, in ms.
func jobWallsMs(jobs []jobOut) []float64 {
	var xs []float64
	for _, j := range jobs {
		xs = append(xs, j.WallS*1e3)
	}
	return xs
}

func sumWall(jobs []jobOut) float64 {
	t := 0.0
	for _, j := range jobs {
		t += j.WallS
	}
	return t
}

func sumCounters(jobs []jobOut) Counters {
	var t Counters
	for _, j := range jobs {
		t.add(j.C)
	}
	return t
}
