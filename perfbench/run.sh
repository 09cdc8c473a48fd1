#!/usr/bin/env bash
# Builds lmi-serve and the benchmark harness from this checkout, then
# runs the harness with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload fig12-cycle --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, traces and serving artifacts all go
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -d cmd/lmi-serve ]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and cmd/lmi-serve are missing)" >&2
	exit 2
fi
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0
go build -o "$out/bin/lmi-serve" ./cmd/lmi-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out/perfbench" "$@"
