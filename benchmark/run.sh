#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json "command"): builds and runs the
# benchmark from the root of a checkout, keeping every build product —
# the go build cache included — under .bench_build/ inside that checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
exec go run ./benchmark "$@"
