#!/usr/bin/env bash
# BENCHMARK.json's command. Builds ./bench from the checkout's own source
# and runs one workload:
#
#   bash bench/run.sh --workload exs-scan --seed 7 --seconds 12 --trace 0
#
# Everything the build writes (Go build cache, temp files, the binary) goes
# under .bench_build/ in the checkout, so a run reads and writes nothing
# outside it. Nothing is downloaded: the module has no dependencies.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d bench ]; then
	echo "bench/run.sh: run from the root of a semdisco checkout (no go.mod here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/semdisco-bench" ./bench
exec "$build/semdisco-bench" "$@"
