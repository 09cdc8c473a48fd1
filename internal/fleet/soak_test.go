package fleet

import (
	"bytes"
	"context"
	"testing"

	"lmi/internal/chaos"
	"lmi/internal/serve"
)

func runSoak(t *testing.T, cfg SoakConfig) (*SoakReport, string, string) {
	t.Helper()
	var log bytes.Buffer
	rep, err := FleetSoak(context.Background(), cfg, &log)
	if err != nil {
		t.Fatalf("FleetSoak: %v", err)
	}
	var out bytes.Buffer
	rep.Render(&out, true)
	return rep, out.String(), log.String()
}

// TestFleetSoakDeterministicAcrossWorkers is the headline contract:
// the report and the decision log are byte-identical at any precompute
// worker count.
func TestFleetSoakDeterministicAcrossWorkers(t *testing.T) {
	base := SoakConfig{Seed: 42, Requests: 800, Shards: 3}
	c1, c4 := base, base
	c1.Workers, c4.Workers = 1, 4
	rep, out1, log1 := runSoak(t, c1)
	_, out4, log4 := runSoak(t, c4)
	if out1 != out4 {
		t.Fatal("report bytes differ between Workers=1 and Workers=4")
	}
	if log1 != log4 {
		t.Fatal("decision log bytes differ between Workers=1 and Workers=4")
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("robustness violations:\n%s", v)
	}
	if rep.Counts[serve.StatusOK] == 0 {
		t.Fatal("soak completed nothing")
	}
}

func TestFleetSoakSeedSensitivity(t *testing.T) {
	_, a, _ := runSoak(t, SoakConfig{Seed: 1, Requests: 300, Shards: 2})
	_, b, _ := runSoak(t, SoakConfig{Seed: 2, Requests: 300, Shards: 2})
	if a == b {
		t.Fatal("different seeds rendered identical reports")
	}
}

// TestFleetSoakKillsFire: with multiple shards the scripted plan must
// contain kills, the kills must land (per-shard counters), and shard
// death must actually displace work. The seed is re-pinned whenever
// the chaos kind set grows (the stream generator draws kinds by
// index) to one whose kill windows still catch requests in flight.
func TestFleetSoakKillsFire(t *testing.T) {
	rep, _, _ := runSoak(t, SoakConfig{Seed: 18, Requests: 1200, Shards: 4})
	kills, rejoins, bursts := 0, 0, 0
	for _, f := range rep.Plan {
		switch f.Kind {
		case chaos.ShardKill:
			kills++
		case chaos.ShardRejoin:
			rejoins++
		case chaos.BurstOverload:
			bursts++
		}
	}
	if kills == 0 || rejoins == 0 || bursts == 0 {
		t.Fatalf("plan lacks chaos: kills=%d rejoins=%d bursts=%d", kills, rejoins, bursts)
	}
	if kills != rejoins {
		t.Fatalf("unbalanced plan: %d kills vs %d rejoins", kills, rejoins)
	}
	got := 0
	for _, sh := range rep.Shards {
		got += sh.Kills
	}
	if got != kills {
		t.Fatalf("%d kills planned but %d landed", kills, got)
	}
	if rep.Requeues == 0 {
		t.Fatal("kills landed but displaced no work; the requeue path went unexercised")
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("robustness violations:\n%s", v)
	}
}

func TestFleetSoakSingleShardDegenerates(t *testing.T) {
	rep, _, _ := runSoak(t, SoakConfig{Seed: 3, Requests: 300, Shards: 1})
	for _, f := range rep.Plan {
		if f.Kind == chaos.ShardKill {
			t.Fatal("single-shard plan must never kill the only shard")
		}
	}
	if rep.Requeues != 0 {
		t.Fatalf("%d requeues with one shard", rep.Requeues)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("robustness violations:\n%s", v)
	}
}

// TestFleetSoakDecisionAccounting: the sink is sized to the stream, so
// every request has exactly one record and nothing drops.
func TestFleetSoakDecisionAccounting(t *testing.T) {
	rep, _, log := runSoak(t, SoakConfig{Seed: 11, Requests: 400, Shards: 3})
	if rep.Decisions.Written != uint64(rep.Config.Requests) || rep.Decisions.Dropped != 0 {
		t.Fatalf("decisions = %+v for %d requests", rep.Decisions, rep.Config.Requests)
	}
	lines := bytes.Count([]byte(log), []byte("\n"))
	if lines != rep.Config.Requests {
		t.Fatalf("decision log has %d lines, want %d", lines, rep.Config.Requests)
	}
}

// TestFleetSoakSingleShardContract: the pinned single-shard soak (the
// stream scripts/check.sh replays through lmi-serve -soak -shards 1)
// meets the robustness contract and is not vacuous — every serving
// path fires: success, load shedding, breaker rejection, terminal
// failure, retry exhaustion, scheduled retries, and a breaker cell
// that opens under a failure burst and recovers through a half-open
// probe. The seed is re-pinned whenever the chaos kind set grows (the
// stream generator draws kinds by index) to one where all of them
// still fire.
func TestFleetSoakSingleShardContract(t *testing.T) {
	rep, _, _ := runSoak(t, SoakConfig{Seed: 2, Requests: 200, Shards: 1})
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("robustness violations:\n%s", v)
	}
	if got := len(rep.Results); got != 200 {
		t.Fatalf("results = %d, want 200", got)
	}
	for st, why := range map[serve.Status]string{
		serve.StatusOK:        "some requests must succeed",
		serve.StatusShed:      "the bounded queue must shed under the bursts",
		serve.StatusRejected:  "an open breaker must reject requests",
		serve.StatusFailed:    "missed injections must fail terminally",
		serve.StatusExhausted: "some retryable failures must exhaust their attempts",
	} {
		if rep.Counts[st] == 0 {
			t.Errorf("no %s requests in the pinned soak: %s", st, why)
		}
	}
	if rep.Retries == 0 {
		t.Errorf("no retries were scheduled; deadlines are not exercising the retry path")
	}
	var opened, reclosed bool
	for _, tr := range rep.Transitions {
		opened = opened || tr.From == serve.BreakerClosed && tr.To == serve.BreakerOpen
		reclosed = reclosed || tr.From == serve.BreakerHalfOpen && tr.To == serve.BreakerClosed
	}
	if !opened {
		t.Errorf("no breaker cell opened; failure bursts are not tripping the breaker")
	}
	if !reclosed {
		t.Errorf("no breaker cell recovered closed; the half-open probe path never completed")
	}
}
