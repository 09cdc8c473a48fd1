package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lmi/internal/chaos"
	"lmi/internal/fastsim"
	"lmi/internal/serve"
)

// seedOwnedBy finds request seeds a fleet of the given shape routes to
// the wanted shard while all shards are alive.
func seedsOwnedBy(t *testing.T, shards, replicas, shard, n int) []uint64 {
	t.Helper()
	r := NewRing(shards, replicas)
	alive := allAlive(shards)
	var out []uint64
	for seed := uint64(1); len(out) < n && seed < 100000; seed++ {
		req := serve.Request{Mechanism: "lmi", Kind: "control", Seed: seed}
		if r.Owner(RequestHash(req), alive) == shard {
			out = append(out, seed)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d of %d seeds owned by shard %d", len(out), n, shard)
	}
	return out
}

func testConfig(log *bytes.Buffer) Config {
	cfg := Config{
		Shards:          2,
		WorkersPerShard: 1,
		QueueCapacity:   8,
		FleetBudget:     64,
		Retry:           serve.RetryConfig{MaxAttempts: 1},
	}
	if log != nil {
		cfg.DecisionLog = log
		cfg.LogBuffer = 256
	}
	return cfg
}

func TestCoordinatorServesAndLogsDecisions(t *testing.T) {
	var log bytes.Buffer
	c, err := NewCoordinator(testConfig(&log))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	const n = 6
	for seed := uint64(1); seed <= n; seed++ {
		res, err := c.Submit(context.Background(), serve.Request{Mechanism: "lmi", Kind: "control", Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Status != serve.StatusOK {
			t.Fatalf("seed %d: status %s err %v", seed, res.Status, res.Err)
		}
	}
	rep := c.Shutdown(context.Background())
	if rep.Stats.Accepted != n || rep.Stats.OK != n {
		t.Fatalf("stats = %+v, want %d accepted and ok", rep.Stats, n)
	}
	if rep.Decisions.Written != n || rep.Decisions.Dropped != 0 {
		t.Fatalf("decisions = %+v, want %d written", rep.Decisions, n)
	}
	if exec := rep.Shards[0].Executed + rep.Shards[1].Executed; exec != n {
		t.Fatalf("per-shard executed sums to %d, want %d", exec, n)
	}
	lines := 0
	sc := bufio.NewScanner(&log)
	for sc.Scan() {
		var d Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("decision line %d: %v", lines, err)
		}
		if d.Status != string(serve.StatusOK) || d.Shard < 0 || d.Shard > 1 {
			t.Fatalf("decision %d malformed: %+v", lines, d)
		}
		lines++
	}
	if lines != n {
		t.Fatalf("decision log has %d records, want %d", lines, n)
	}
}

// TestCoordinatorRoutesAroundDeadShard: requests owned by a killed
// shard execute on the survivor via the ring, and rejoin brings the
// shard back into rotation.
func TestCoordinatorRoutesAroundDeadShard(t *testing.T) {
	c, err := NewCoordinator(testConfig(nil))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer c.Shutdown(context.Background())
	seeds := seedsOwnedBy(t, 2, 16, 0, 3)

	c.Kill(0)
	if a := c.Alive(); a[0] || !a[1] {
		t.Fatalf("liveness after Kill(0) = %v", a)
	}
	for _, seed := range seeds {
		res, err := c.Submit(context.Background(), serve.Request{Mechanism: "lmi", Kind: "control", Seed: seed})
		if err != nil || res.Status != serve.StatusOK {
			t.Fatalf("seed %d on survivor: status %s err %v", seed, res.Status, err)
		}
	}
	c.Rejoin(0)
	if a := c.Alive(); !a[0] || !a[1] {
		t.Fatalf("liveness after Rejoin(0) = %v", a)
	}
	res, err := c.Submit(context.Background(), serve.Request{Mechanism: "lmi", Kind: "control", Seed: seeds[0]})
	if err != nil || res.Status != serve.StatusOK {
		t.Fatalf("after rejoin: status %s err %v", res.Status, err)
	}
}

// TestCoordinatorRequeuesOnKill wedges shard 0's single worker in
// retry backoff, queues more requests behind it, kills the shard, and
// requires every queued request to finish OK on the survivor with the
// requeue counted.
func TestCoordinatorRequeuesOnKill(t *testing.T) {
	cfg := testConfig(nil)
	cfg.Retry = serve.RetryConfig{MaxAttempts: 2, BackoffBase: 2 * time.Second, BackoffMax: 4 * time.Second}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	seeds := seedsOwnedBy(t, 2, 16, 0, 5)

	var wg sync.WaitGroup
	// The wedge: a 1ns attempt deadline fails fast and retryably, so
	// shard 0's only worker sits in a multi-second backoff sleep.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Submit(context.Background(), serve.Request{
			Mechanism: "lmi", Kind: "control", Seed: seeds[0], Deadline: time.Nanosecond,
		})
	}()
	time.Sleep(300 * time.Millisecond) // the wedge is now in Sleep; the queue is idle

	results := make([]serve.Result, len(seeds)-1)
	errs := make([]error, len(seeds)-1)
	for i, seed := range seeds[1:] {
		i, seed := i, seed
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = c.Submit(context.Background(),
				serve.Request{Mechanism: "lmi", Kind: "control", Seed: seed})
		}()
	}
	time.Sleep(300 * time.Millisecond) // they are queued behind the wedge
	c.Kill(0)
	wg.Wait()

	for i := range results {
		if errs[i] != nil || results[i].Status != serve.StatusOK {
			t.Fatalf("queued request %d: status %s err %v", i, results[i].Status, errs[i])
		}
	}
	st := c.Stats()
	if st.Requeues < uint64(len(seeds)-1) {
		t.Fatalf("requeues = %d, want at least the %d displaced requests", st.Requeues, len(seeds)-1)
	}
	rep := c.Shutdown(context.Background())
	if rep.Shards[0].Kills != 1 || rep.Shards[0].Requeued < len(seeds)-1 {
		t.Fatalf("shard 0 summary = %+v", rep.Shards[0])
	}
}

func TestCoordinatorAllShardsDeadIsLost(t *testing.T) {
	var log bytes.Buffer
	c, err := NewCoordinator(testConfig(&log))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	c.Kill(0)
	c.Kill(1)
	_, err = c.Submit(context.Background(), serve.Request{Mechanism: "lmi", Kind: "control", Seed: 1})
	if !TypedError(err) || !strings.Contains(err.Error(), "no shard alive") {
		t.Fatalf("Submit with no shard alive = %v, want ErrShardLost", err)
	}
	rep := c.Shutdown(context.Background())
	if rep.Stats.Lost != 1 {
		t.Fatalf("stats = %+v, want 1 lost", rep.Stats)
	}
	sc := bufio.NewScanner(&log)
	if !sc.Scan() {
		t.Fatal("lost request emitted no decision record")
	}
	var d Decision
	if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
		t.Fatalf("decision: %v", err)
	}
	if d.Status != string(StatusLost) || d.Shard != -1 {
		t.Fatalf("lost decision = %+v, want status lost on shard -1", d)
	}
}

func TestCoordinatorDrainingRejects(t *testing.T) {
	c, err := NewCoordinator(testConfig(nil))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	c.Shutdown(context.Background())
	if _, err := c.Submit(context.Background(), serve.Request{Mechanism: "lmi", Seed: 1}); err != serve.ErrDraining {
		t.Fatalf("Submit while draining = %v, want ErrDraining", err)
	}
}

// runReply is the part of the POST /run wire form the tests read.
type runReply struct {
	Status   serve.Status  `json:"status"`
	Attempts int           `json:"attempts"`
	Class    serve.Class   `json:"class"`
	Outcome  chaos.Outcome `json:"outcome"`
	Cycles   uint64        `json:"cycles"`
	Error    string        `json:"error"`
	Bundle   string        `json:"bundle_digest"`
}

// postRun sends one request to POST /run and decodes the reply.
func postRun(t *testing.T, url, body string) (int, runReply) {
	t.Helper()
	resp, err := http.Post(url+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rj runReply
	if err := json.NewDecoder(resp.Body).Decode(&rj); err != nil {
		t.Fatalf("decoding /run reply: %v", err)
	}
	return resp.StatusCode, rj
}

// getCode GETs path and returns the HTTP status.
func getCode(t *testing.T, url, path string) int {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// runCase is one POST /run body with the HTTP code, status and reply
// property it must produce.
type runCase struct {
	body   string
	code   int
	status serve.Status
	check  func(runReply) bool
}

// TestCoordinatorHTTP drives the HTTP surface per fleet shape: /run
// maps each disposition onto its status (a clean control and a bench
// run 200; a missed injection 502 with the typed, unretried
// silent-corruption error; an unknown mechanism or malformed body
// 400), /stats counts them and reports a non-default tier (omitted on
// the cycle tier, matching the runner's jobJSON convention), and
// /readyz flips to 503 once no shard is alive.
func TestCoordinatorHTTP(t *testing.T) {
	one := testConfig(nil)
	one.Shards = 1
	compiled := one
	compiled.Tier = fastsim.TierCompiled
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"2 shards", testConfig(nil)},
		{"1 shard", one},
		{"1 shard compiled", compiled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCoordinator(tc.cfg)
			if err != nil {
				t.Fatalf("NewCoordinator: %v", err)
			}
			defer c.Shutdown(context.Background())
			srv := httptest.NewServer(c.Handler())
			defer srv.Close()

			for _, path := range []string{"/healthz", "/readyz"} {
				if code := getCode(t, srv.URL, path); code != http.StatusOK {
					t.Fatalf("GET %s = %d", path, code)
				}
			}

			// The /run status mapping, then a bench-workload run.
			for _, group := range []struct {
				name  string
				cases []runCase
			}{
				{"run", []runCase{
					{`{"mechanism":"lmi","kind":"control","seed":5}`, http.StatusOK, serve.StatusOK,
						func(rj runReply) bool { return rj.Outcome == chaos.OutcomeClean && rj.Cycles > 0 }},
					// lmi misses free-skip-nullify (use-after-free via skipped
					// nullify): terminal, typed, one attempt only.
					{`{"mechanism":"lmi","kind":"free-skip-nullify","seed":7}`, http.StatusBadGateway, serve.StatusFailed,
						func(rj runReply) bool {
							return strings.Contains(rj.Error, "silent corruption") &&
								rj.Class == serve.ClassTerminal && rj.Attempts == 1
						}},
					{`{"mechanism":"nope","seed":1}`, http.StatusBadRequest, serve.StatusFailed,
						func(rj runReply) bool { return strings.Contains(rj.Error, "bad request") }},
					{`{not json`, http.StatusBadRequest, serve.StatusFailed,
						func(rj runReply) bool { return strings.Contains(rj.Error, "bad request") }},
				}},
				{"bench run", []runCase{
					{`{"workload":"nn","mechanism":"lmi","seed":1}`, http.StatusOK, serve.StatusOK,
						func(rj runReply) bool { return rj.Cycles > 0 }},
				}},
			} {
				t.Run(group.name, func(t *testing.T) {
					for _, rc := range group.cases {
						code, rj := postRun(t, srv.URL, rc.body)
						if code != rc.code || rj.Status != rc.status || !rc.check(rj) {
							t.Fatalf("POST /run %s = %d %+v, want %d %s", rc.body, code, rj, rc.code, rc.status)
						}
					}
				})
			}

			resp, err := http.Get(srv.URL + "/stats")
			if err != nil {
				t.Fatalf("GET /stats: %v", err)
			}
			var stats struct {
				Tier   *string `json:"tier"`
				Alive  []bool  `json:"alive"`
				Shards []ShardSummary
				Stats  Stats `json:"stats"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
				t.Fatalf("decode /stats: %v", err)
			}
			resp.Body.Close()
			if len(stats.Alive) != tc.cfg.Shards {
				t.Fatalf("/stats alive = %v, want %d shards", stats.Alive, tc.cfg.Shards)
			}
			for i, a := range stats.Alive {
				if !a {
					t.Fatalf("/stats alive = %v: shard %d down", stats.Alive, i)
				}
			}
			// The unknown mechanism fails validation on a shard; the
			// malformed body never reaches one.
			if st := stats.Stats; st.OK != 2 || st.Failed != 2 || st.Accepted != 4 {
				t.Fatalf("/stats counters = %+v, want 4 accepted, 2 ok, 2 failed", st)
			}
			switch {
			case tc.cfg.Tier == fastsim.TierCompiled && (stats.Tier == nil || *stats.Tier != "compiled"):
				t.Fatalf("compiled-tier /stats tier = %v, want compiled", stats.Tier)
			case tc.cfg.Tier != fastsim.TierCompiled && stats.Tier != nil:
				t.Fatalf("cycle-tier /stats must omit the tier field, got %q", *stats.Tier)
			}

			for i := 0; i < tc.cfg.Shards; i++ {
				c.Kill(i)
			}
			if code := getCode(t, srv.URL, "/readyz"); code != http.StatusServiceUnavailable {
				t.Fatalf("/readyz with no shard alive = %d, want 503", code)
			}
		})
	}
}

// parkConfig is a one-worker, one-shard fleet whose retry backoff is
// long enough to wedge that worker (see park).
func parkConfig(queue, budget int) Config {
	return Config{
		Shards:          1,
		WorkersPerShard: 1,
		QueueCapacity:   queue,
		FleetBudget:     budget,
		Retry:           serve.RetryConfig{MaxAttempts: 2, BackoffBase: time.Hour, BackoffMax: time.Hour},
	}
}

// park wedges shard 0's single worker on a request whose 1ns attempt
// deadline fails retryably, leaving the worker in an hour-long backoff
// sleep until release is called. The request enters the shard queue
// directly, so the coordinator's counters never see it.
func park(t *testing.T, c *Coordinator) (release func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	task := liveTask{
		ctx:  ctx,
		req:  serve.Request{Mechanism: "lmi", Kind: "control", Seed: 1, Deadline: time.Nanosecond},
		done: make(chan liveResult, 1),
	}
	if err := c.shards[0].submit(task); err != nil {
		t.Fatalf("parking the worker: %v", err)
	}
	waitDepth(t, c, 0) // the worker took it
	return func() {
		cancel()
		<-task.done
	}
}

// waitDepth waits until the fleet queue holds exactly n requests.
func waitDepth(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Depth != n {
		if time.Now().After(deadline) {
			t.Fatalf("fleet queue depth %d, want %d", c.Stats().Depth, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// queueBehind submits n requests that queue behind the parked worker
// and waits until they are queued. cancel abandons them; each
// submitter's error then arrives on errs.
func queueBehind(t *testing.T, c *Coordinator, n int) (cancel func(), errs chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	errs = make(chan error, n)
	for i := 0; i < n; i++ {
		seed := uint64(100 + i)
		go func() {
			_, err := c.Submit(ctx, serve.Request{Mechanism: "lmi", Kind: "control", Seed: seed})
			errs <- err
		}()
	}
	waitDepth(t, c, n)
	return cancel, errs
}

// TestCoordinatorShedsWhenFull: with the only worker parked and the
// queue at the admission limit, the next Submit sheds immediately — it
// must not block — with the typed error of whichever limit binds. A
// request is accepted once, when the shard queue takes it, so the shed
// one is not also counted as accepted.
func TestCoordinatorShedsWhenFull(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int // 0 = the default, which binds at one queued request
		want   error
	}{
		{"fleet budget", 0, ErrFleetOverloaded},
		{"shard queue", 2, serve.ErrOverloaded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCoordinator(parkConfig(1, tc.budget))
			if err != nil {
				t.Fatalf("NewCoordinator: %v", err)
			}
			defer c.Shutdown(context.Background())
			release := park(t, c)
			defer release()
			cancel, errs := queueBehind(t, c, 1)

			if _, err := c.Submit(context.Background(), serve.Request{Mechanism: "lmi", Seed: 1}); !errors.Is(err, tc.want) {
				t.Fatalf("submit on a full queue: err = %v, want %v", err, tc.want)
			}
			if st := c.Stats(); st.Accepted != 1 || st.Shed != 1 || st.HighWater != 1 {
				t.Fatalf("stats = %+v, want accepted=1 shed=1 high water 1", st)
			}

			cancel()
			if err := <-errs; !errors.Is(err, context.Canceled) {
				t.Fatalf("queued submit err = %v, want wrapped context.Canceled", err)
			}
		})
	}
}

// TestCoordinatorHealthEndpoints: /healthz is alive unconditionally;
// /readyz reports 503 once the fleet queue is above half its budget —
// before Submit sheds at the budget itself — and once the drain
// begins, when /run refuses with draining; /stats serves either way.
func TestCoordinatorHealthEndpoints(t *testing.T) {
	// Queue capacity 4 gives a fleet budget of 3: unready above 1.
	for _, tc := range []struct {
		name   string
		queued int
		drain  bool
		ready  int
	}{
		{"idle", 0, false, http.StatusOK},
		{"at half budget", 1, false, http.StatusOK},
		{"above half budget", 2, false, http.StatusServiceUnavailable},
		{"draining", 0, true, http.StatusServiceUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCoordinator(parkConfig(4, 0))
			if err != nil {
				t.Fatalf("NewCoordinator: %v", err)
			}
			defer c.Shutdown(context.Background())
			srv := httptest.NewServer(c.Handler())
			defer srv.Close()
			if tc.queued > 0 {
				release := park(t, c)
				defer release()
				cancel, _ := queueBehind(t, c, tc.queued)
				defer cancel()
			}
			if tc.drain {
				c.Shutdown(context.Background())
				code, rj := postRun(t, srv.URL, `{"mechanism":"lmi","seed":1}`)
				if code != http.StatusServiceUnavailable || !strings.Contains(rj.Error, "draining") {
					t.Fatalf("/run during drain: code=%d result=%+v", code, rj)
				}
			}

			if code := getCode(t, srv.URL, "/healthz"); code != http.StatusOK {
				t.Fatalf("/healthz = %d (liveness depends on neither load nor drain)", code)
			}
			if code := getCode(t, srv.URL, "/readyz"); code != tc.ready {
				t.Fatalf("/readyz = %d, want %d", code, tc.ready)
			}
			if code := getCode(t, srv.URL, "/stats"); code != http.StatusOK {
				t.Fatalf("/stats = %d", code)
			}
		})
	}
}
