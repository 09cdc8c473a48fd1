// Command perfbench is the repository benchmark: the software's own
// speed, end to end and per layer, on three workloads (see README.md).
//
//	bash perfbench/run.sh --workload fig12-cycle --seed 1 --seconds 30 --trace 0
//
// The last stdout line is one JSON object: correct, attempted, failed
// and metrics (end-to-end metrics with --trace 0, per-layer metrics
// with --trace 1). Sub-modes used by the harness itself: child (one
// sweep in a fresh process), probe (one cold start), record (rewrite
// expected.json from a run of the program).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

const (
	wlCycle    = "fig12-cycle"
	wlCompiled = "fig12-13-compiled"
	wlServe    = "serve-reload"
)

type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
	binDir   string
	serve    serveParams
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	mode := "bench"
	if len(args) > 0 && (args[0] == "child" || args[0] == "probe" || args[0] == "record") {
		mode, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o opts
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+wlCycle+", "+wlCompiled+" or "+wlServe)
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "measurement time per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.outDir, "out", ".bench_build/perfbench", "directory for traces and serving artifacts")
	fs.StringVar(&o.binDir, "bin", ".bench_build/bin", "directory holding the built lmi-serve")
	traceOut := fs.String("trace-out", "", "child: write the sweep's spans here")
	refOut := fs.String("o", referenceFile, "record: reference output path")
	fs.Float64Var(&o.serve.rate, "serve-rate", 0, "serve-reload: offered open-loop rate (requests/s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	switch mode {
	case "record":
		return record(*refOut)
	case "probe":
		if _, err := sweepParts(o.workload, o.seed); err != nil {
			return err
		}
		fmt.Println("start")
		return nil
	case "child":
		return runSweepChild(o.workload, o.seed, o.trace, *traceOut)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	var res *Result
	var err error
	switch o.workload {
	case wlCycle, wlCompiled:
		res, err = runSweep(o)
	case wlServe:
		res, err = runServe(o)
	default:
		return fmt.Errorf("unknown --workload %q", o.workload)
	}
	if err != nil {
		return err
	}
	return res.emit(os.Stdout)
}

func (o opts) path(name string) string { return filepath.Join(o.outDir, name) }
