package serve

import (
	"time"

	"lmi/internal/chaos"
)

// RetryConfig is the retry policy for retryable failures.
type RetryConfig struct {
	// MaxAttempts is the total number of execution attempts, including
	// the first (default 3).
	MaxAttempts int
	// BackoffBase is the first retry's base delay; attempt k (0-based
	// failure count) waits BackoffBase<<k plus jitter (default 10ms).
	BackoffBase time.Duration
	// BackoffMax caps any single delay, jitter included (default 1s).
	BackoffMax time.Duration
}

// WithDefaults fills zero fields.
func (rc RetryConfig) WithDefaults() RetryConfig {
	if rc.MaxAttempts <= 0 {
		rc.MaxAttempts = 3
	}
	if rc.BackoffBase <= 0 {
		rc.BackoffBase = 10 * time.Millisecond
	}
	if rc.BackoffMax <= 0 {
		rc.BackoffMax = time.Second
	}
	return rc
}

// Delay returns the backoff before retrying after the attempt-th
// failure (0-based): BackoffBase<<attempt plus deterministic jitter in
// [0, span), capped at BackoffMax. The jitter derives from the request
// seed via the chaos seed mixer, so a request's full retry schedule is
// a pure function of (seed, policy) — same seed, same schedule, on any
// host. That determinism is what lets the soak harness replay retries
// on a virtual timeline and still render byte-identical reports.
func (rc RetryConfig) Delay(seed uint64, attempt int) time.Duration {
	rc = rc.WithDefaults()
	if attempt < 0 {
		attempt = 0
	}
	span := rc.BackoffBase
	// Shift without overflowing: past the cap the exact exponent no
	// longer matters.
	for i := 0; i < attempt && span < rc.BackoffMax; i++ {
		span <<= 1
	}
	if span > rc.BackoffMax {
		span = rc.BackoffMax
	}
	jitter := time.Duration(chaos.MixSeed(seed, uint64(attempt)+0x5EED) % uint64(span))
	d := span + jitter
	if d > rc.BackoffMax {
		d = rc.BackoffMax
	}
	return d
}

// AttemptSeed derives the private seed of one execution attempt from
// the request seed. Attempt 0 uses the request seed itself (so a
// single-shot request reproduces exactly as submitted); later attempts
// re-mix, so a transient injection does not replay identically on
// retry.
func AttemptSeed(seed uint64, attempt int) uint64 {
	if attempt == 0 {
		return seed
	}
	return chaos.MixSeed(seed, uint64(attempt))
}
