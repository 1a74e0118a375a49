#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload solve-knapsack --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache
# go to .bench_build/ there, so nothing is written outside the checkout.
set -euo pipefail

root=$PWD
if [[ ! -f $root/go.mod || ! -f $root/perfbench/go.mod ]]; then
	echo "run.sh: run from the repository root: go.mod or perfbench/go.mod is missing" >&2
	exit 2
fi

out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/home/go XDG_CONFIG_HOME=$out/home
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
