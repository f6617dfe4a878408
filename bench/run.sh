#!/bin/bash
# BENCHMARK.json's command: build the benchmark from source, then run it
# with the driver's arguments. Everything a build or a run writes (binary,
# Go build cache, run-logs, spools, span files) stays under bench/out, so a
# run reads and writes only inside its checkout.
set -eu
if [ ! -f go.mod ] || [ ! -d bench ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository (no go.mod here)" >&2
	exit 2
fi
build="$PWD/bench/out/build"
mkdir -p "$build"
GOCACHE="$build/gocache" go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
