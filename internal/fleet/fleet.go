// Package fleet is the sharded multi-device serving coordinator over
// the internal/serve state machines: requests are consistent-hash
// sharded by (workload, mechanism, seed) across N simulated device
// workers, each owning its own admission queue, circuit breakers, and
// warm per-shard compiled-program cache. The coordinator detects
// worker death, deterministically requeues the dead shard's in-flight
// and queued requests to surviving shards (bounded redistribution —
// only the dead shard's keys move), sheds load on a fleet-wide queue
// budget, and rebalances when a shard rejoins. Every request emits one
// structured safety decision record — request key, shard, verdict,
// fault and extent-check counters, breaker state, retry schedule,
// execution tier — into a bounded asynchronous log sink that never
// blocks the serving path and accounts for every record it drops.
//
// The serve layer's shard components run in two drivers: the live
// Coordinator behind cmd/lmi-serve with real clocks and real
// goroutines (one shard by default — the single-shard fleet is the
// plain server), and a virtual-time fleet soak (FleetSoak) that replays
// a seeded stream with scripted shard kills, rejoins, and burst
// overloads, producing a report and decision log that are
// byte-identical for any -jobs value.
package fleet

import (
	"errors"

	"lmi/internal/serve"
)

// Typed fleet-level failures; together with the serve layer's
// sentinels these cover every disposition a fleet request can reach.
var (
	// ErrShardLost abandons a request after its shard died and the
	// bounded requeue budget was exhausted (or no shard is alive to
	// requeue to). It is the fleet's only "lost work" disposition, and
	// it is always typed — a request can fail because shards kept
	// dying under it, but it can never silently vanish.
	ErrShardLost = errors.New("fleet: shard lost: requeue budget exhausted")
	// ErrFleetOverloaded sheds a request at admission because the
	// fleet-wide queue budget (summed across shards) is exhausted, even
	// though the owner shard's own queue may have room.
	ErrFleetOverloaded = errors.New("fleet: overloaded: fleet queue budget exhausted")
)

// StatusLost is the fleet-level disposition for a request abandoned
// with ErrShardLost; it extends the serve layer's status vocabulary.
const StatusLost serve.Status = "lost"

// TypedError reports whether err is typed at the fleet or serve layer;
// the robustness audit rejects everything else.
func TypedError(err error) bool {
	return errors.Is(err, ErrShardLost) || errors.Is(err, ErrFleetOverloaded) || serve.TypedError(err)
}
