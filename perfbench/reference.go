package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"lmi/internal/fastsim"
	"lmi/internal/runner"
	"lmi/internal/sim"
)

// Counters are a job's deterministic simulation counters. The cache and
// DRAM fields are modelled only by the cycle tier (zero on the compiled
// tier, whose Cycles is an estimate).
type Counters struct {
	Cycles        uint64 `json:"cycles"`
	Instrs        uint64 `json:"instrs"`
	ThreadInstrs  uint64 `json:"thread_instrs"`
	ECChecked     uint64 `json:"ec_checked"`
	ECElided      uint64 `json:"ec_elided"`
	PointerChecks uint64 `json:"pointer_checks"`
	L1Hits        uint64 `json:"l1_hits,omitempty"`
	L1Misses      uint64 `json:"l1_misses,omitempty"`
	L2Hits        uint64 `json:"l2_hits,omitempty"`
	L2Misses      uint64 `json:"l2_misses,omitempty"`
	DRAM          uint64 `json:"dram_accesses,omitempty"`
}

func countersOf(st *sim.KernelStats, tier fastsim.Tier) Counters {
	c := Counters{
		Cycles: st.Cycles, Instrs: st.Instrs, ThreadInstrs: st.ThreadInstrs,
		ECChecked: st.ECChecked, ECElided: st.ECElided, PointerChecks: st.PointerChecks,
	}
	if tier == fastsim.TierCycle {
		c.L1Hits, c.L1Misses = st.L1.Hits, st.L1.Misses
		c.L2Hits, c.L2Misses = st.L2.Hits, st.L2.Misses
		c.DRAM = st.DRAMAccesses
	}
	return c
}

func (c *Counters) add(o Counters) {
	c.Cycles += o.Cycles
	c.Instrs += o.Instrs
	c.ThreadInstrs += o.ThreadInstrs
	c.ECChecked += o.ECChecked
	c.ECElided += o.ECElided
	c.PointerChecks += o.PointerChecks
	c.L1Hits += o.L1Hits
	c.L1Misses += o.L1Misses
	c.L2Hits += o.L2Hits
	c.L2Misses += o.L2Misses
	c.DRAM += o.DRAM
}

// functional is the projection both tiers must agree on.
func (c Counters) functional() [5]uint64 {
	return [5]uint64{c.Instrs, c.ThreadInstrs, c.ECChecked, c.ECElided, c.PointerChecks}
}

// Reference maps workload -> job key -> expected counters.
type Reference map[string]map[string]Counters

// referenceFile is recorded by `perfbench record` from a run of the
// program; see README.md for when to re-record it.
const referenceFile = "expected.json"

//go:embed expected.json
var referenceJSON []byte

func loadReference() (Reference, error) {
	var ref Reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", referenceFile, err)
	}
	return ref, nil
}

// checkJobs compares a sweep's jobs with the reference and returns how
// many failed: a job that errored (fault, halt, panic), differs in any
// counter, or is not in the reference. A reference job the sweep did
// not report also counts. Each failure is described on w.
func checkJobs(want map[string]Counters, got []jobOut, w io.Writer) int {
	failed := 0
	seen := make(map[string]bool, len(got))
	for _, j := range got {
		seen[j.Key] = true
		exp, ok := want[j.Key]
		switch {
		case j.Err != "":
			fmt.Fprintf(w, "perfbench: %s failed: %s\n", j.Key, j.Err)
		case !ok:
			fmt.Fprintf(w, "perfbench: %s: not in the reference\n", j.Key)
		case j.C != exp:
			fmt.Fprintf(w, "perfbench: %s: counters %+v, want %+v\n", j.Key, j.C, exp)
		default:
			continue
		}
		failed++
	}
	for k := range want {
		if !seen[k] {
			fmt.Fprintf(w, "perfbench: %s: missing from the sweep\n", k)
			failed++
		}
	}
	return failed
}

// record runs every sweep once in this process, cross-checks that the
// compiled tier's functional counters equal the cycle tier's on the
// Fig. 12 jobs, and writes the reference to path.
func record(path string) error {
	ref := Reference{}
	for _, wl := range []string{wlCycle, wlCompiled} {
		parts, err := sweepParts(wl, 0)
		if err != nil {
			return err
		}
		ref[wl] = map[string]Counters{}
		for _, p := range parts {
			rep := runner.RunNamed(p.fig, p.jobs, 0)
			for _, r := range rep.Results {
				if r.Err != nil {
					return r.Err
				}
				ref[wl][jobKey(p.fig, r.Job)] = countersOf(r.Stats, r.Job.Tier)
			}
		}
	}
	var keys []string
	for k := range ref[wlCycle] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cyc, comp := ref[wlCycle][k], ref[wlCompiled][k]
		if cyc.functional() != comp.functional() {
			return fmt.Errorf("%s: compiled tier %v != cycle tier %v", k, comp.functional(), cyc.functional())
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: compiled == cycle functional counters on %d Fig. 12 jobs\n", len(keys))
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
