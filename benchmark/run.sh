#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the build writes (Go build cache, binary) stays
# under .bench_build/ in the checkout root; nothing is downloaded.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/catfish-benchmark" ./benchmark
exec "$build/catfish-benchmark" "$@"
