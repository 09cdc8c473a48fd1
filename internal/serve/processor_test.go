package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// testProcessor builds a Processor on a 1-SM executor with an injected
// sleep, so retry schedules are observable without waiting them out.
func testProcessor(t *testing.T, brk BreakerConfig, retry RetryConfig, deadline time.Duration, sleep func(context.Context, time.Duration)) *Processor {
	t.Helper()
	exec, err := NewExecutor(1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	return &Processor{
		Exec:            exec,
		Brk:             NewBreaker(brk),
		Retry:           retry.WithDefaults(),
		DefaultDeadline: deadline,
		Now:             func() time.Duration { return time.Since(start) },
		Sleep:           sleep,
	}
}

// TestProcessorRetriesWithBackoff: a request whose attempts always
// exceed their deadline is retried MaxAttempts times with the
// deterministic backoff schedule (captured via the injected sleep) and
// ends exhausted.
func TestProcessorRetriesWithBackoff(t *testing.T) {
	var slept []time.Duration
	// An attempt deadline far below any real trial's runtime: every
	// attempt dies in the watchdog with a retryable context error.
	p := testProcessor(t, BreakerConfig{},
		RetryConfig{MaxAttempts: 3, BackoffBase: 10 * time.Millisecond, BackoffMax: 100 * time.Millisecond},
		time.Nanosecond,
		func(_ context.Context, d time.Duration) { slept = append(slept, d) })

	req := Request{Mechanism: "lmi", Kind: "control", Seed: 9}
	res := p.Process(context.Background(), req)
	if res.Status != StatusExhausted || res.Attempts != p.Retry.MaxAttempts {
		t.Fatalf("result = %+v, want exhausted after %d attempts", res, p.Retry.MaxAttempts)
	}
	if res.Class != ClassRetryable || !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("final error %v (class %s) is not a typed deadline", res.Err, res.Class)
	}
	want := []time.Duration{p.Retry.Delay(req.Seed, 0), p.Retry.Delay(req.Seed, 1)}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %d backoffs", slept, len(want))
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("backoff %d = %v, want %v (deterministic schedule)", i, slept[i], want[i])
		}
	}
}

// TestProcessorBreakerRejects: once a key's breaker opens, subsequent
// requests for that key are rejected without executing.
func TestProcessorBreakerRejects(t *testing.T) {
	p := testProcessor(t, BreakerConfig{FailThreshold: 1, Cooldown: time.Hour, ProbeSuccesses: 1},
		RetryConfig{}, 30*time.Second, func(context.Context, time.Duration) {})

	// lmi misses free-skip-nullify: one terminal failure opens the cell
	// at threshold 1.
	bad := Request{Mechanism: "lmi", Kind: "free-skip-nullify", Seed: 3}
	res := p.Process(context.Background(), bad)
	if res.Status != StatusFailed {
		t.Fatalf("setup failure run = %+v", res)
	}
	res = p.Process(context.Background(), Request{Mechanism: "lmi", Kind: "control", Seed: 4})
	if res.Status != StatusRejected || !errors.Is(res.Err, ErrCircuitOpen) {
		t.Fatalf("request on open cell = %+v, want rejected with ErrCircuitOpen", res)
	}
	if res.Attempts != 0 {
		t.Fatalf("rejected request still executed %d attempts", res.Attempts)
	}
}
